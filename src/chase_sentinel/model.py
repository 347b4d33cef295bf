"""Core value types: terms, atoms, rules, rule sets, and growing instances.

Terms, atoms and rules are immutable and hashable.  Terms and atoms are
interned: each is built in `__new__` and stored in one process-wide table
keyed by its class and parts (its name; its variable and index; its
function or predicate and argument objects), so equal values built apart
are one object.  Equality is therefore identity, and hashing is `object`'s
own, with no Python-level call.  A copy is the value itself, and pickling
goes through the constructor, so both return the interned object; a
skolem term pickles as a flat table of its subterms, so a deep one does
not recurse.  A skolem term caches its height and whether it is ground
when first built, and, once `has_cyclic_nesting` asked, the functions it
contains and whether it is cyclic; `__init__` is `object`'s, so
rebuilding a value resets none of this.  A term nested thousands of
levels deep hashes, compares, copies, measures and is checked for cycles
in O(1).  The cached fields are left out of
`repr`, so printed terms, witnesses and JSON are unchanged.  An atom used
as a pattern also keeps its `ArgPlan`, built on first use, so a rule's
atoms are compiled for matching once.

The table lives as long as the process and is never pruned.  It costs less
memory than the duplicate terms and atoms it replaces: when it came in,
the benchmark's peak RSS (medians of 5 runs at seed 1) fell on `generated`
(31.7 -> 30.1 MB) and `chase` (26.5 -> 25.3 MB) and stayed within the
run-to-run spread on `fixtures` (27.5 -> 27.9 MB, runs 27.5-28.2 MB).

An Instance is the one mutable structure in the package.  Its insertion
order is its undo log: `rollback(n)` drops every atom added after the
first n, so the backtracking searches apply and retract trigger
applications on the instance they are given.  No instance is ever
copied: a chase run builds its own from the database's atoms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence

_set = object.__setattr__


def _itself(value, memo=None):  # copying an interned, immutable value
    return value


class Term:
    """Marker base class; concrete terms are the dataclasses below.

    Every term has `ground` and `height`; `height` (constants at 1) is
    meaningful only for ground terms."""

    __slots__ = ()

    __copy__ = __deepcopy__ = _itself


# Every term and atom ever built, keyed by its class and parts: (class,
# name), (class, var, index), (class, fn, args) or (class, pred, args).
# Storing with `setdefault` keeps one object per key even when threads race.
_VALUES: dict = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class _Named(Term):
    """A term that is its name, the base of Constant and Variable: one
    object per class and name."""

    name: str

    height = 1

    def __new__(cls, name: str):
        key = (cls, name)
        self = _VALUES.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "name", name)
            self = _VALUES.setdefault(key, self)
        return self

    def __reduce__(self):
        return (self.__class__, (self.name,))

    def __str__(self) -> str:
        return self.name


class Constant(_Named):
    __slots__ = ()
    ground = True


class Variable(_Named):
    __slots__ = ()
    ground = False


@dataclass(frozen=True, slots=True, eq=False, init=False)
class SkolemTerm(Term):
    """Function term naming a null.

    Instances only ever hold ground skolem terms, which `hom.apply_trigger`
    builds from a rule's frontier values.  Height and groundness are
    computed from the arguments' cached values, in O(arity), when the term
    is first built.  The set of functions the term contains, and whether
    one of them occurs twice on a nesting path, are computed on first use
    by `has_cyclic_nesting`.
    """

    fn: str
    args: tuple
    height: int = field(repr=False)
    ground: bool = field(repr=False)
    _fns: Optional[int] = field(repr=False)
    _cyclic: bool = field(repr=False)

    def __new__(cls, fn: str, args: tuple):
        key = (cls, fn, args)
        self = _VALUES.get(key)
        if self is None:
            height = 0
            ground = True
            for a in args:
                if a.height > height:
                    height = a.height
                if not a.ground:
                    ground = False
            self = object.__new__(cls)
            _set(self, "fn", fn)
            _set(self, "args", args)
            _set(self, "height", height + 1)
            _set(self, "ground", ground)
            _set(self, "_fns", None)
            self = _VALUES.setdefault(key, self)
        return self

    def __reduce__(self):
        # Flat, so that pickle does not recurse: one (fn, args) row per
        # skolem subterm, arguments first, a skolem argument by its row.
        rows: dict = {}
        stack: list = [self]
        while stack:
            todo = [a for a in stack[-1].args if a.__class__ is SkolemTerm and a not in rows]
            if todo:
                stack.extend(todo)
            else:
                rows.setdefault(stack.pop(), len(rows))
        table = [(t.fn, tuple([rows.get(a, a) for a in t.args])) for t in rows]
        return (_skolem_from_table, (table,))

    def __str__(self) -> str:
        # Iterative: chase nulls nest deeper than the recursion limit.  The
        # stack holds terms and literal text.
        out: List[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, SkolemTerm):
                out.append(item.fn + "(")
                stack.append(")")
                for i, arg in enumerate(reversed(item.args)):
                    if i:
                        stack.append(",")
                    stack.append(arg)
            else:
                out.append(str(item))
        return "".join(out)

    def __repr__(self) -> str:
        # The dataclass repr, built iteratively like __str__; a one-element
        # tuple keeps its trailing comma.
        out: List[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
            elif item.__class__ is SkolemTerm:
                out.append("SkolemTerm(fn=%r, args=(" % (item.fn,))
                stack.append(",))" if len(item.args) == 1 else "))")
                for i, arg in enumerate(reversed(item.args)):
                    if i:
                        stack.append(", ")
                    stack.append(arg)
            else:
                out.append(repr(item))
        return "".join(out)


def _skolem_from_table(table: list) -> SkolemTerm:
    """The term of `SkolemTerm.__reduce__`'s table: its last row."""
    built: list = []
    for fn, args in table:
        built.append(SkolemTerm(fn, tuple([built[a] if a.__class__ is int else a for a in args])))
    return built[-1]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class IndexedConstant(Term):
    """Fresh constant <var, index> standing for variable `var` of the
    index-th rule of a path."""

    var: str
    index: int

    ground = True
    height = 1

    def __new__(cls, var: str, index: int):
        if index < 1:
            raise ValueError("indexed constant index must be >= 1")
        key = (cls, var, index)
        self = _VALUES.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "var", var)
            _set(self, "index", index)
            self = _VALUES.setdefault(key, self)
        return self

    def __reduce__(self):
        return (IndexedConstant, (self.var, self.index))

    def __str__(self) -> str:
        return "%s__%d" % (self.var, self.index)


class ArgPlan:
    """How a function-free pattern's arguments match a ground argument
    tuple: `consts` holds (position, ground term) pairs compared by
    identity, `slots` (position, variable name) pairs, and `vars` the set
    of slot names.  Every match compiles its pattern here, so an
    argument that is neither a variable nor ground (a skolem term over
    variables) raises ValueError instead of being mis-matched."""

    __slots__ = ("consts", "slots", "vars")

    def __init__(self, args: tuple):
        consts, slots = [], []
        for i, t in enumerate(args):
            if t.__class__ is Variable:
                slots.append((i, t.name))
            elif t.ground:
                consts.append((i, t))
            else:
                raise ValueError("pattern argument %s is neither a variable nor ground" % t)
        self.consts = tuple(consts)
        self.slots = tuple(slots)
        self.vars = frozenset([name for _, name in slots])


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Atom:
    """Predicate applied to a tuple of terms, one object per predicate and
    argument objects.  An atom used as a pattern builds its ArgPlan on
    first use and keeps it, so a rule's atoms are compiled once however
    often the rule is matched."""

    pred: str
    args: tuple
    _plan: Optional[ArgPlan] = field(repr=False)

    def __new__(cls, pred: str, args: tuple):
        key = (cls, pred, args)
        self = _VALUES.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "pred", pred)
            _set(self, "args", args)
            _set(self, "_plan", None)
            self = _VALUES.setdefault(key, self)
        return self

    @property
    def plan(self) -> ArgPlan:
        if self._plan is None:
            _set(self, "_plan", ArgPlan(self.args))
        return self._plan

    def __reduce__(self):
        return (Atom, (self.pred, self.args))

    __copy__ = __deepcopy__ = _itself

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ",".join(str(a) for a in self.args))

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class Position:
    """Argument slot P[i] of a predicate, 1-based."""

    pred: str
    slot: int

    def __str__(self) -> str:
        return "%s[%d]" % (self.pred, self.slot)


def atom(pred: str, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


def term_height(t: Term) -> int:
    """Nesting depth with constants at height 1; read from the term."""
    if not t.ground:
        raise ValueError("height undefined for non-ground term %s" % t)
    return t.height


# Function name -> its bit in the function sets of `has_cyclic_nesting`.
# The table only grows, by one entry per function name the process meets
# (one per existential variable name chased).  Which bit a name gets
# changes no answer, and `setdefault` with a shared counter keeps the bits
# of two names apart even when threads race.
_FUNCTION_BITS: dict = {}
_next_bit = itertools.count()


def has_cyclic_nesting(t: Term) -> bool:
    """True when the same skolem function occurs twice on one nesting path.

    A skolem term is cyclic iff its function occurs in one of its
    arguments or one of its arguments is cyclic.  Each term caches, on
    first use, that verdict and the set of functions it contains, as a bit
    mask over `_FUNCTION_BITS`, so a new term whose arguments were asked
    about costs O(functions) bit operations.  (A frozenset per term took
    590 MB on a tower of 5,000 distinct functions; the masks take 2 MB.)
    Terms not yet asked about are visited once each, on an explicit stack,
    since chase nulls nest deeper than the recursion limit."""
    if t.__class__ is not SkolemTerm:
        return False
    if t._fns is None:
        stack = [t]
        while stack:
            s = stack[-1]
            todo = [a for a in s.args if a.__class__ is SkolemTerm and a._fns is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if s._fns is None:  # a shared subterm can be on the stack twice
                _cache_nesting(s)
    return t._cyclic


def _cache_nesting(t: SkolemTerm) -> None:
    """Set the function set and cyclicity of `t` from those of its
    arguments, which must be set."""
    bit = _FUNCTION_BITS.get(t.fn)
    if bit is None:
        bit = _FUNCTION_BITS.setdefault(t.fn, next(_next_bit))
    fns = 0
    cyclic = False
    for a in t.args:
        if a.__class__ is SkolemTerm:
            if a._cyclic or a._fns >> bit & 1:
                cyclic = True
            fns |= a._fns
    _set(t, "_cyclic", cyclic)  # first: a set `_fns` marks both as cached
    _set(t, "_fns", fns | 1 << bit)


def apply_term(subst: Mapping[str, Term], t: Term) -> Term:
    """t with its variables replaced; rule terms are function-free, so
    nothing else changes."""
    if t.__class__ is Variable:
        return subst.get(t.name, t)
    return t


def apply_atom(subst: Mapping[str, Term], a: Atom) -> Atom:
    return Atom(a.pred, tuple([apply_term(subst, t) for t in a.args]))


def _ordered_vars(atoms: Iterable[Atom]) -> tuple:
    return tuple(dict.fromkeys(t.name for a in atoms for t in a.args if t.__class__ is Variable))


def _ordered_constants(atoms: Iterable[Atom]) -> tuple:
    return tuple(dict.fromkeys(t.name for a in atoms for t in a.args if t.__class__ is Constant))


@dataclass(frozen=True)
class Rule:
    """body -> exists(existentials) head, with variables classified lazily.

    Rules are function-free: every body and head argument is a Variable or
    a Constant.  Skolem terms enter only when the chase applies a rule
    (`hom.apply_trigger`), so no rule atom is ever matched against one.
    Frontier variables are ordered by first occurrence in the head; that
    order fixes the argument list of every skolem function of the rule.
    """

    id: str
    body: tuple
    head: tuple

    def __post_init__(self) -> None:
        if not self.body or not self.head:
            raise ValueError("rule %s needs a non-empty body and head" % self.id)
        for a in self.body + self.head:
            for t in a.args:
                if t.__class__ is not Variable and t.__class__ is not Constant:
                    raise ValueError(
                        "rule %s is not function-free: %s in %s is neither a variable "
                        "nor a constant" % (self.id, t, a)
                    )

    def __str__(self) -> str:
        return "[%s] %s :- %s" % (
            self.id,
            ", ".join(str(a) for a in self.head),
            ", ".join(str(a) for a in self.body),
        )

    @cached_property
    def body_vars(self) -> tuple:
        return _ordered_vars(self.body)

    @cached_property
    def head_vars(self) -> tuple:
        return _ordered_vars(self.head)

    @cached_property
    def universals(self) -> frozenset:
        return frozenset(self.body_vars)

    @cached_property
    def frontier(self) -> tuple:
        body = self.universals
        return tuple(v for v in self.head_vars if v in body)

    @cached_property
    def existentials(self) -> frozenset:
        return frozenset(self.head_vars) - self.universals

    @cached_property
    def is_datalog(self) -> bool:
        return not self.existentials

    @cached_property
    def skolem_functions(self) -> tuple:
        """(existential, skolem function name) pairs, existentials sorted;
        each function takes the frontier as its arguments."""
        return tuple((z, "f_%s" % z) for z in sorted(self.existentials))

    @cached_property
    def all_atoms(self) -> tuple:
        return self.body + self.head

    @cached_property
    def frozen_bodies(self) -> dict:
        """Memo of `critdb.restricted_critical_db`: path index -> body frozen there."""
        return {}

    @cached_property
    def trigger_heads(self) -> dict:
        """Memo of the chained search: frontier values -> `hom.head_image`."""
        return {}

    @cached_property
    def body_steps(self) -> dict:
        """Memo of the chained search: body atom order -> `hom.join_steps`."""
        return {}

    @cached_property
    def head_steps(self) -> dict:
        """Memo of `hom.is_active_trigger`: head atom order -> `hom.join_steps`,
        the frontier bound."""
        return {}


@dataclass(frozen=True)
class RuleSet:
    rules: tuple

    def __post_init__(self) -> None:
        seen_ids = set()
        arities: dict = {}
        for r in self.rules:
            if r.id in seen_ids:
                raise ValueError("duplicate rule id %r" % r.id)
            seen_ids.add(r.id)
            for a in r.all_atoms:
                prev = arities.setdefault(a.pred, a.arity)
                if prev != a.arity:
                    raise ValueError(
                        "predicate %s used with arities %d and %d" % (a.pred, prev, a.arity)
                    )
        used: dict = {}
        for r in self.rules:
            for v in set(r.body_vars) | set(r.head_vars):
                if v in used:
                    raise ValueError(
                        "rules %s and %s share variable %s (not standardized apart)"
                        % (used[v], r.id, v)
                    )
                used[v] = r.id

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def schema(self) -> dict:
        out: dict = {}
        for r in self.rules:
            for a in r.all_atoms:
                out.setdefault(a.pred, a.arity)
        return out

    @cached_property
    def constants(self) -> tuple:
        seen: dict = {}
        for r in self.rules:
            for name in _ordered_constants(r.all_atoms):
                seen.setdefault(name, None)
        return tuple(seen)

    @cached_property
    def by_id(self) -> dict:
        return {r.id: r for r in self.rules}

    @cached_property
    def datalog_rules(self) -> tuple:
        return tuple(r for r in self.rules if r.is_datalog)


def rule_set_size(rs: RuleSet) -> int:
    """Sum of atom argument counts over all bodies and heads."""
    return sum(len(a.args) for r in rs.rules for a in r.all_atoms)


class Instance:
    """Set of ground atoms with predicate indexes, derivation-step bookkeeping
    and an undo log.  Step 0 marks database atoms: only the constructor
    adds them, so they come before every derived atom, and `add` takes
    steps from 1 up.

    The atoms live in one insertion-ordered dict from atom to the step that
    first derived it, and `_hts` holds the height of the empty instance, 1,
    then the instance height after each insertion, so the dict is also the
    undo log: a backtracking search notes `len(inst)` before it applies a
    trigger and calls `rollback` with that size afterwards, without
    copying.  Each predicate keeps one list of its atoms in insertion
    order, database atoms first, and `_database` counts those per
    predicate, so `derived_first` gives the chained search (`activeness`)
    its derived-first candidate order without partitioning."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._fda: dict = {}  # atom -> first derivation step, in insertion order
        self._hts: list = [1]
        self._by_pred: dict = {}
        for a in atoms:
            self.add(a, 1)
        self._fda = dict.fromkeys(self._fda, 0)  # they are the database
        self._database = {pred: len(same) for pred, same in self._by_pred.items()}

    def __contains__(self, a: Atom) -> bool:
        return a in self._fda

    def __len__(self) -> int:
        return len(self._fda)

    def atoms(self) -> tuple:
        return tuple(self._fda)

    def by_pred(self, pred: str) -> Sequence[Atom]:
        return self._by_pred.get(pred, ())

    def derived_first(self, pred: str) -> Sequence[Atom]:
        """The atoms of `pred`: the derived, then the database ones."""
        atoms = self._by_pred.get(pred, ())
        n = self._database.get(pred, 0)
        return atoms[n:] + atoms[:n] if 0 < n < len(atoms) else atoms

    def first_derived_at(self, a: Atom) -> int:
        return self._fda[a]

    def ht(self) -> int:
        return self._hts[-1]

    def add(self, a: Atom, step: int) -> bool:
        """Insert `a` with derivation step `step` >= 1; False, with nothing
        changed, when the atom was already present."""
        if step < 1:
            raise ValueError("derivation steps start at 1; step 0 is the constructor's")
        if a in self._fda:
            return False
        ht = self._hts[-1]
        for t in a.args:
            if not t.ground:
                raise ValueError("instance atoms must be ground: %s" % a)
            if t.height > ht:
                ht = t.height
        self._fda[a] = step
        self._hts.append(ht)
        self._by_pred.setdefault(a.pred, []).append(a)
        return True

    def rollback(self, size: int) -> None:
        """Remove the atoms added since the instance held `size` of them."""
        fda = self._fda
        while len(fda) > size:
            a, step = fda.popitem()
            self._hts.pop()
            self._by_pred[a.pred].pop()
            if not step:
                self._database[a.pred] -= 1


def full_relation_atoms(pred: str, arity: int, domain: Sequence[Term]) -> Iterator[Atom]:
    for combo in itertools.product(domain, repeat=arity):
        yield Atom(pred, tuple(combo))
