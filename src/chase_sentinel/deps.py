"""Rule dependencies via piece-unification, and the rule dependency graph.

r2 depends on r1 when an application of r1 can produce an atom that a new
application of r2 uses (Baget, Leclère, Mugnier & Salvat, AIJ 2011).  The
syntactic test is a piece-unifier of body(r2) with head(r1): a unifier u
of a body subset B with a head subset H such that every class holding an
existential variable of r1 holds no other existential, no rigid term, no
frontier variable of r1, and no variable of body(r2) that occurs outside
B.  The dependency holds when some piece-unifier u is atom-erasing
(u(body(r2)) is not contained in u(body(r1))) and productive (u(head(r2))
is not contained in u(body(r1) + head(r1) + body(r2))).

The search yields the most general single-piece unifiers (König, Leclère,
Mugnier & Thomazo, SWJ 2015).  It starts from one body atom and one head
atom with the same predicate and unifies them.  While a class holds an
existential, every body atom with a variable in that class joins the
piece, branching over the head atoms it can map to.  A branch fails as
soon as a class holds two existentials, a rigid term or a frontier
variable of r1, and also when it pulls in a body atom that comes before
the start atom: that piece is grown from its own first atom.  When no
atom is left to pull in, the piece is closed and its unifier is yielded.

This is complete for the dependency test.  Take any piece-unifier u, the
most general unifier of atom pairs P from B x H that cover B and H.
Start from the first atom of B in body order and a head atom it is paired
with in P, and let every body atom pulled in choose a head atom it is
paired with in P.  Along that branch the unified pairs are a subset of P,
so every class is contained in a class of u.  Hence no unification
clashes and no class breaks the existential condition that u meets; and
every atom pulled in has a variable in an existential class of u, so it
lies in B and does not come before the start atom.  The branch therefore
closes on a single-piece unifier v with u = t.v for some substitution t.
Both tests survive generalisation: if v fails one, v(X) is contained in
v(Y), and then t(v(X)) is contained in t(v(Y)), so u fails it too.  So if
any piece-unifier passes both tests, one of the yielded unifiers does.
This covers unifiers of several pieces and body atoms paired with more
than one head atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

# Not used here: bench/test_bench.py checks that the tracer patches
# find_homomorphisms in this namespace too.
from .hom import find_homomorphisms  # noqa: F401
from .model import (
    Atom,
    Rule,
    RuleSet,
    Term,
    Variable,
    apply_atom,
)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def copy(self) -> "_UnionFind":
        uf = _UnionFind()
        uf.parent = dict(self.parent)
        return uf

    def add(self, t: Term) -> None:
        self.parent.setdefault(t, t)

    def find(self, t: Term) -> Term:
        self.add(t)
        root = t
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[t] != root:
            self.parent[t], t = root, self.parent[t]
        return root

    def union(self, a: Term, b: Term) -> bool:
        """Union with rigid-term priority; False when two distinct rigid
        terms would be merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        rigid_a = not isinstance(ra, Variable)
        rigid_b = not isinstance(rb, Variable)
        if rigid_a and rigid_b:
            return False
        if rigid_a:
            self.parent[rb] = ra
        elif rigid_b:
            self.parent[ra] = rb
        else:
            # deterministic representative for variable-variable unions
            lo, hi = sorted((ra, rb), key=lambda v: v.name)
            self.parent[hi] = lo
        return True

    def classes(self) -> dict:
        out: dict = {}
        for t in self.parent:
            out.setdefault(self.find(t), []).append(t)
        return out


def _unify_atom_pair(uf: _UnionFind, a: Atom, b: Atom) -> bool:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return False
    return all(uf.union(x, y) for x, y in zip(a.args, b.args))


@dataclass(frozen=True)
class PieceUnifier:
    body_subset: tuple  # atoms of body(r2)
    head_subset: tuple  # atoms of head(r1)
    subst: tuple  # sorted (var, term) pairs

    def mapping(self) -> dict:
        return dict(self.subst)


def _subst_from_classes(classes: dict) -> dict:
    subst: dict = {}
    for rep, members in classes.items():
        if isinstance(rep, Variable):
            canon = min((m for m in members if isinstance(m, Variable)), key=lambda v: v.name)
            target: Term = canon
        else:
            target = rep
        for m in members:
            if isinstance(m, Variable) and m != target:
                subst[m.name] = target
    return subst


def _rename_apart(r1: Rule, r2: Rule) -> Rule:
    """r1 itself, or a fresh copy whose variables avoid those of r2 (for
    self-dependency)."""
    taken = r2.universals.union(r2.head_vars)
    own = r1.universals.union(r1.head_vars)
    if taken.isdisjoint(own):
        return r1
    mapping = {}
    for v in own:
        name = v
        while name in taken:
            name = name + "~"
        mapping[v] = Variable(name)
    body = tuple(apply_atom(mapping, a) for a in r1.body)
    head = tuple(apply_atom(mapping, a) for a in r1.head)
    return Rule(id=r1.id + "~", body=body, head=head)


def _single_pieces(r1: Rule, r2: Rule) -> Iterator[PieceUnifier]:
    """Most general single-piece unifiers of body(r2) with head(r1), for
    rules that share no variable (see the module docstring)."""
    body, head = r2.body, r1.head
    existentials, frontier = r1.existentials, frozenset(r1.frontier)

    def existential(t: Term) -> bool:
        return isinstance(t, Variable) and t.name in existentials

    def unify(uf: _UnionFind, i: int, j: int) -> Optional[_UnionFind]:
        uf = uf.copy()
        if not _unify_atom_pair(uf, body[i], head[j]):
            return None
        for members in uf.classes().values():
            held = sum(map(existential, members))
            if held and (
                held > 1
                or any(not isinstance(m, Variable) or m.name in frontier for m in members)
            ):
                return None
        return uf

    def grow(uf: _UnionFind, piece: frozenset, heads: frozenset) -> Iterator[PieceUnifier]:
        roots = {uf.find(t) for t in uf.parent if existential(t)}
        pending = next(
            (
                i
                for i, a in enumerate(body)
                if i not in piece and any(t in uf.parent and uf.find(t) in roots for t in a.args)
            ),
            None,
        )
        if pending is None:
            yield PieceUnifier(
                body_subset=tuple(body[i] for i in sorted(piece)),
                head_subset=tuple(head[j] for j in sorted(heads)),
                subst=tuple(sorted(_subst_from_classes(uf.classes()).items())),
            )
        elif pending > min(piece):  # else the search grows it from its first atom
            for j in range(len(head)):
                grown = unify(uf, pending, j)
                if grown is not None:
                    yield from grow(grown, piece | {pending}, heads | {j})

    for i in range(len(body)):
        for j in range(len(head)):
            start = unify(_UnionFind(), i, j)
            if start is not None:
                yield from grow(start, frozenset((i,)), frozenset((j,)))


def piece_unifiers(r1: Rule, r2: Rule) -> Iterator[PieceUnifier]:
    """The most general single-piece unifiers of body(r2) with head(r1),
    generated lazily; r1 is renamed apart from r2 first."""
    return _single_pieces(_rename_apart(r1, r2), r2)


def _atoms_set(atoms: Iterable[Atom], subst: dict) -> frozenset:
    return frozenset(apply_atom(subst, a) for a in atoms)


def depends_on(r2: Rule, r1: Rule) -> Optional[PieceUnifier]:
    """r2 depends on r1 when some piece-unifier of body(r2) with head(r1) is
    atom-erasing and productive; returns the first such unifier or None."""
    r1 = _rename_apart(r1, r2)
    for pu in _single_pieces(r1, r2):
        theta = pu.mapping()
        body2 = _atoms_set(r2.body, theta)
        body1 = _atoms_set(r1.body, theta)
        if body2 <= body1:  # atom-erasing fails
            continue
        head2 = _atoms_set(r2.head, theta)
        head1 = _atoms_set(r1.head, theta)
        if head2 <= (body1 | head1 | body2):  # not productive
            continue
        return pu
    return None


@dataclass(frozen=True)
class DependencyGraph:
    rule_set: RuleSet
    edges: tuple  # (i, j) rule indices: rules[j] depends on rules[i]

    @cached_property
    def _pairs(self) -> frozenset:
        rules = self.rule_set.rules
        return frozenset((rules[j].id, rules[i].id) for i, j in self.edges)

    def depends(self, later: Rule, earlier: Rule) -> bool:
        """Whether `later` depends on `earlier`, by rule id."""
        return (later.id, earlier.id) in self._pairs

    def to_dot(self) -> str:
        rules = self.rule_set.rules
        lines = ["digraph dependencies {"]
        for r in rules:
            lines.append('  "%s";' % r.id)
        for i, j in self.edges:
            lines.append('  "%s" -> "%s";' % (rules[i].id, rules[j].id))
        lines.append("}")
        return "\n".join(lines) + "\n"


def dependency_graph(rs: RuleSet) -> DependencyGraph:
    rules = rs.rules
    edges = tuple(
        (i, j)
        for i, r1 in enumerate(rules)
        for j, r2 in enumerate(rules)
        if depends_on(r2, r1) is not None
    )
    return DependencyGraph(rule_set=rs, edges=edges)
