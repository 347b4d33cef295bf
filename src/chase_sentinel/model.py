"""Core value types: terms, atoms, rules, rule sets, and growing instances.

Terms, atoms and rules are immutable and hashable.  An Instance is the one
mutable structure in the package; it supports cheap LIFO rollback so the
backtracking searches can apply and undo trigger applications without
copying.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence


class Term:
    """Marker base class; concrete terms are the dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SkolemTerm(Term):
    """Function term naming a null.

    Instances only ever hold ground skolem terms; the skolemized rule heads
    cached on Rule contain skolem terms with variable arguments that get
    substituted away on application.
    """

    fn: str
    args: tuple

    def __str__(self) -> str:
        # Iterative: chase nulls nest one level per step, deeper than the
        # recursion limit.  The stack holds terms and literal text.
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


@dataclass(frozen=True)
class IndexedConstant(Term):
    """Fresh constant <var, index> standing for variable `var` of the
    index-th rule of a path."""

    var: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("indexed constant index must be >= 1")

    def __str__(self) -> str:
        return "%s__%d" % (self.var, self.index)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple

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


def term_is_ground(t: Term) -> bool:
    return not any(isinstance(s, Variable) for s in iter_subterms(t))


def atom_is_ground(a: Atom) -> bool:
    return all(term_is_ground(t) for t in a.args)


def term_height(t: Term) -> int:
    """Nesting depth with constants at height 1."""
    if isinstance(t, Variable):
        raise ValueError("height undefined for non-ground term %s" % t)
    if isinstance(t, SkolemTerm):
        return 1 + max((term_height(a) for a in t.args), default=0)
    return 1


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
    if isinstance(t, Variable):
        return subst.get(t.name, t)
    if isinstance(t, SkolemTerm):
        return SkolemTerm(t.fn, tuple(apply_term(subst, a) for a in t.args))
    return t


def apply_atom(subst: Mapping[str, Term], a: Atom) -> Atom:
    return Atom(a.pred, tuple(apply_term(subst, t) for t in a.args))


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
    __slots__ = ("atom", "new_terms", "prev_ht")

    def __init__(self, atom: Atom, new_terms: list, prev_ht: int):
        self.atom = atom
        self.new_terms = new_terms
        self.prev_ht = prev_ht


class Instance:
    """Set of ground atoms with predicate index, derivation-step bookkeeping
    and LIFO rollback. Step 0 marks database atoms."""

    def __init__(self, atoms: Iterable[Atom] = (), step: int = 0):
        self._order: list = []
        self._set: set = set()
        self._by_pred: dict = {}
        self._fda: dict = {}
        self._term_rc: dict = {}
        self._term_order: list = []
        self._ht = 1
        for a in atoms:
            self.add(a, step)

    def __contains__(self, a: Atom) -> bool:
        return a in self._set

    def __len__(self) -> int:
        return len(self._order)

    def atoms(self) -> tuple:
        return tuple(self._order)

    def by_pred(self, pred: str) -> Sequence[Atom]:
        return self._by_pred.get(pred, ())

    def first_derived_at(self, a: Atom) -> int:
        return self._fda[a]

    def terms(self) -> tuple:
        """Top-level argument terms in insertion order."""
        return tuple(self._term_order)

    def ht(self) -> int:
        return self._ht

    def fingerprint(self) -> frozenset:
        return frozenset(self._set)

    def copy(self) -> "Instance":
        new = Instance.__new__(Instance)
        new._order = list(self._order)
        new._set = set(self._set)
        new._by_pred = {p: list(v) for p, v in self._by_pred.items()}
        new._fda = dict(self._fda)
        new._term_rc = dict(self._term_rc)
        new._term_order = list(self._term_order)
        new._ht = self._ht
        return new

    def add(self, a: Atom, step: int) -> Optional[_Undo]:
        """Insert `a` with derivation step `step`; returns an undo record,
        or None when the atom was already present (step unchanged)."""
        if a in self._set:
            return None
        if not atom_is_ground(a):
            raise ValueError("instance atoms must be ground: %s" % a)
        self._order.append(a)
        self._set.add(a)
        self._by_pred.setdefault(a.pred, []).append(a)
        self._fda[a] = step
        new_terms = []
        prev_ht = self._ht
        for t in a.args:
            rc = self._term_rc.get(t, 0)
            self._term_rc[t] = rc + 1
            if rc == 0:
                self._term_order.append(t)
                new_terms.append(t)
                h = term_height(t)
                if h > self._ht:
                    self._ht = h
        return _Undo(a, new_terms, prev_ht)

    def undo(self, rec: _Undo) -> None:
        """Roll back one add(); only valid in reverse insertion order."""
        a = rec.atom
        assert self._order and self._order[-1] == a, "undo out of order"
        self._order.pop()
        self._set.remove(a)
        self._by_pred[a.pred].pop()
        del self._fda[a]
        for t in a.args:
            self._term_rc[t] -= 1
            if self._term_rc[t] == 0:
                del self._term_rc[t]
        for t in reversed(rec.new_terms):
            assert self._term_order and self._term_order[-1] == t
            self._term_order.pop()
        self._ht = rec.prev_ht


def full_relation_atoms(pred: str, arity: int, domain: Sequence[Term]) -> Iterator[Atom]:
    for combo in itertools.product(domain, repeat=arity):
        yield Atom(pred, tuple(combo))
