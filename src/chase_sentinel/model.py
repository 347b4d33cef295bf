"""Core value types: terms, atoms, rules, rule sets, and growing instances.

Terms, atoms and rules are immutable and hashable.  Terms and atoms are
slots-based frozen dataclasses that compute their hash once, at
construction; a skolem term also caches its height and whether it is
ground.  So a term nested thousands of levels deep hashes and measures in
O(1), and equality compares hashes before it walks (iteratively) into the
arguments.  The cached fields are left out of `repr` and of equality, so
printed terms, witnesses and JSON are unchanged; pickling and copying go
through the constructor, so a hash is never carried into a process whose
string hashes differ.  `hom` reads `_hash`
directly in its match loop to reject unequal terms without a call.  An
atom used as a pattern also keeps its `ArgPlan`, built on first use, so a
rule's atoms are compiled for matching once.

There is no intern table: equal terms built apart stay distinct objects.
A table would keep every term alive for the life of the process and raise
peak memory, and the cached hash already makes lookups cheap.

An Instance is the one mutable structure in the package; it supports cheap
LIFO rollback so the backtracking searches can apply and undo trigger
applications without copying.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence

_set = object.__setattr__


class Term:
    """Marker base class; concrete terms are the dataclasses below.

    Every term has `ground` and `height`; `height` (constants at 1) is
    meaningful only for ground terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Constant(Term):
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    ground = True
    height = 1

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash(name))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Constant, (self.name,))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Constant:
            return NotImplemented
        return self.name == other.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Variable(Term):
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    ground = False
    height = 1

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash(name))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Variable, (self.name,))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Variable:
            return NotImplemented
        return self.name == other.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SkolemTerm(Term):
    """Function term naming a null.

    Instances only ever hold ground skolem terms; the skolemized rule heads
    cached on Rule contain skolem terms with variable arguments that get
    substituted away on application.  Height, groundness and hash are
    computed from the arguments' cached values, in O(arity).
    """

    fn: str
    args: tuple
    height: int = field(init=False, repr=False, compare=False)
    ground: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, fn: str, args: tuple):
        height = 0
        ground = True
        for a in args:
            if a.height > height:
                height = a.height
            if not a.ground:
                ground = False
        _set(self, "fn", fn)
        _set(self, "args", args)
        _set(self, "height", height + 1)
        _set(self, "ground", ground)
        _set(self, "_hash", hash((fn, args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (SkolemTerm, (self.fn, self.args))

    def __eq__(self, other) -> bool:
        # Iterative: chase nulls nest deeper than the recursion limit.
        if self is other:
            return True
        if other.__class__ is not SkolemTerm:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            s, o = stack.pop()
            if s._hash != o._hash or s.fn != o.fn or len(s.args) != len(o.args):
                return False
            for x, y in zip(s.args, o.args):
                if x is y:
                    continue
                if x.__class__ is SkolemTerm and y.__class__ is SkolemTerm:
                    stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __str__(self) -> str:
        # Iterative, like __eq__.  The stack holds terms and literal text.
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


@dataclass(frozen=True, slots=True)
class IndexedConstant(Term):
    """Fresh constant <var, index> standing for variable `var` of the
    index-th rule of a path."""

    var: str
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    ground = True
    height = 1

    def __init__(self, var: str, index: int):
        if index < 1:
            raise ValueError("indexed constant index must be >= 1")
        _set(self, "var", var)
        _set(self, "index", index)
        _set(self, "_hash", hash((var, index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (IndexedConstant, (self.var, self.index))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not IndexedConstant:
            return NotImplemented
        return self.index == other.index and self.var == other.var

    def __str__(self) -> str:
        return "%s__%d" % (self.var, self.index)


class ArgPlan:
    """How a pattern's arguments match a ground argument tuple: `consts`
    holds (position, ground term) pairs compared by equality, `slots`
    (position, variable name) pairs, and `nested` (position, function,
    arity, ArgPlan) entries for non-ground skolem terms.  `vars` is the set
    of variable names anywhere in the arguments."""

    __slots__ = ("consts", "slots", "nested", "vars")

    def __init__(self, args: tuple):
        consts, slots, nested, names = [], [], [], set()
        for i, t in enumerate(args):
            if t.__class__ is Variable:
                slots.append((i, t.name))
                names.add(t.name)
            elif t.ground:
                consts.append((i, t))
            else:
                sub = ArgPlan(t.args)
                nested.append((i, t.fn, len(t.args), sub))
                names |= sub.vars
        self.consts = tuple(consts)
        self.slots = tuple(slots)
        self.nested = tuple(nested)
        self.vars = frozenset(names)


@dataclass(frozen=True, slots=True)
class Atom:
    """Predicate applied to a tuple of terms.  An atom used as a pattern
    builds its ArgPlan on first use and keeps it, so a rule's atoms are
    compiled once however often the rule is matched."""

    pred: str
    args: tuple
    _hash: int = field(init=False, repr=False, compare=False)
    _plan: Optional[ArgPlan] = field(init=False, repr=False, compare=False)

    def __init__(self, pred: str, args: tuple):
        _set(self, "pred", pred)
        _set(self, "args", args)
        _set(self, "_hash", hash((pred, args)))
        _set(self, "_plan", None)

    @property
    def plan(self) -> ArgPlan:
        if self._plan is None:
            _set(self, "_plan", ArgPlan(self.args))
        return self._plan

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Atom, (self.pred, self.args))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Atom:
            return NotImplemented
        return self._hash == other._hash and self.pred == other.pred and self.args == other.args

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


def iter_subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, SkolemTerm):
        for a in t.args:
            yield from iter_subterms(a)


def atom_is_ground(a: Atom) -> bool:
    return all(t.ground for t in a.args)


def term_height(t: Term) -> int:
    """Nesting depth with constants at height 1; read from the term."""
    if not t.ground:
        raise ValueError("height undefined for non-ground term %s" % t)
    return t.height


def has_cyclic_nesting(t: Term) -> bool:
    """True when the same skolem function occurs twice on one nesting path."""

    def walk(term: Term, seen: frozenset) -> bool:
        if not isinstance(term, SkolemTerm):
            return False
        if term.fn in seen:
            return True
        inner = seen | {term.fn}
        return any(walk(a, inner) for a in term.args)

    return walk(t, frozenset())


def apply_term(subst: Mapping[str, Term], t: Term) -> Term:
    """t with its variables replaced; ground subterms are returned as they
    are, not rebuilt."""
    if t.__class__ is Variable:
        return subst.get(t.name, t)
    if t.ground:
        return t
    return SkolemTerm(t.fn, tuple([apply_term(subst, a) for a in t.args]))


def apply_atom(subst: Mapping[str, Term], a: Atom) -> Atom:
    return Atom(a.pred, tuple([apply_term(subst, t) for t in a.args]))


def _ordered_vars(atoms: Iterable[Atom]) -> tuple:
    seen: dict = {}
    for a in atoms:
        for t in a.args:
            for s in iter_subterms(t):
                if isinstance(s, Variable) and s.name not in seen:
                    seen[s.name] = None
    return tuple(seen)


def _ordered_constants(atoms: Iterable[Atom]) -> tuple:
    seen: dict = {}
    for a in atoms:
        for t in a.args:
            for s in iter_subterms(t):
                if isinstance(s, Constant) and s.name not in seen:
                    seen[s.name] = None
    return tuple(seen)


@dataclass(frozen=True)
class Rule:
    """body -> exists(existentials) head, with variables classified lazily.

    Frontier variables are ordered by first occurrence in the head; that
    order fixes the argument list of every skolem function of the rule.
    """

    id: str
    body: tuple
    head: tuple

    def __post_init__(self) -> None:
        if not self.body or not self.head:
            raise ValueError("rule %s needs a non-empty body and head" % self.id)

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
    def skolem_head(self) -> tuple:
        args = tuple(Variable(v) for v in self.frontier)
        subst = {z: SkolemTerm("f_%s" % z, args) for z in sorted(self.existentials)}
        return tuple(apply_atom(subst, a) for a in self.head)

    @cached_property
    def all_atoms(self) -> tuple:
        return self.body + self.head


def skolemize_rule(r: Rule) -> Rule:
    """Functional transformation: existentials replaced by skolem terms over
    the rule's frontier. Deterministic: equal rules yield identical symbols."""
    return Rule(id=r.id, body=r.body, head=r.skolem_head)


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


class _Undo:
    __slots__ = ("atom", "prev_ht")

    def __init__(self, atom: Atom, prev_ht: int):
        self.atom = atom
        self.prev_ht = prev_ht


class Instance:
    """Set of ground atoms with predicate index, derivation-step bookkeeping
    and LIFO rollback. Step 0 marks database atoms.

    Each predicate keeps its atoms in insertion order three ways: all of
    them, the derived ones (step > 0) and the database ones, so the
    derived-first candidate order of `hom` needs no partitioning."""

    def __init__(self, atoms: Iterable[Atom] = (), step: int = 0):
        self._order: list = []
        self._fda: dict = {}  # atom -> first derivation step; also the set
        self._by_pred: dict = {}
        self._derived: dict = {}
        self._database: dict = {}
        self._ht = 1
        for a in atoms:
            self.add(a, step)

    def __contains__(self, a: Atom) -> bool:
        return a in self._fda

    def __len__(self) -> int:
        return len(self._order)

    def atoms(self) -> tuple:
        return tuple(self._order)

    def by_pred(self, pred: str) -> Sequence[Atom]:
        return self._by_pred.get(pred, ())

    def derived_by_pred(self, pred: str) -> Sequence[Atom]:
        return self._derived.get(pred, ())

    def database_by_pred(self, pred: str) -> Sequence[Atom]:
        return self._database.get(pred, ())

    def first_derived_at(self, a: Atom) -> int:
        return self._fda[a]

    def ht(self) -> int:
        return self._ht

    def copy(self) -> "Instance":
        new = Instance.__new__(Instance)
        new._order = list(self._order)
        new._fda = dict(self._fda)
        new._by_pred = {p: list(v) for p, v in self._by_pred.items()}
        new._derived = {p: list(v) for p, v in self._derived.items()}
        new._database = {p: list(v) for p, v in self._database.items()}
        new._ht = self._ht
        return new

    def add(self, a: Atom, step: int) -> Optional[_Undo]:
        """Insert `a` with derivation step `step`; returns an undo record,
        or None when the atom was already present (step unchanged)."""
        if a in self._fda:
            return None
        prev_ht = ht = self._ht
        for t in a.args:
            if not t.ground:
                raise ValueError("instance atoms must be ground: %s" % a)
            if t.height > ht:
                ht = t.height
        self._fda[a] = step
        self._order.append(a)
        self._by_pred.setdefault(a.pred, []).append(a)
        (self._derived if step > 0 else self._database).setdefault(a.pred, []).append(a)
        self._ht = ht
        return _Undo(a, prev_ht)

    def undo(self, rec: _Undo) -> None:
        """Roll back one add(); only valid in reverse insertion order."""
        a = rec.atom
        assert self._order and self._order[-1] == a, "undo out of order"
        self._order.pop()
        step = self._fda.pop(a)
        self._by_pred[a.pred].pop()
        (self._derived if step > 0 else self._database)[a.pred].pop()
        self._ht = rec.prev_ht


def full_relation_atoms(pred: str, arity: int, domain: Sequence[Term]) -> Iterator[Atom]:
    for combo in itertools.product(domain, repeat=arity):
        yield Atom(pred, tuple(combo))
