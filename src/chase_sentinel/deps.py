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

A unifier is one map from every term it has met to the representative of
its class: the constant when the class holds one (two distinct constants
clash), else the variable with the least name.  Each step copies the map,
and each union relabels the members of the class that loses.  The
existential condition is read off the map: every existential of r1 has a
representative of its own, that representative is a variable, and no
frontier variable of r1 shares it.  Those representatives mark the
classes that pull body atoms in, and the substitution of the yielded
unifier maps each variable to its representative.

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

`dependency_graph` runs that test only on the pairs where body(r2) reads
a predicate of head(r1), through an index from body predicate to rule;
every other pair has no unifier.  Every traversal of the graph, in
`acyclicity` and `cycles`, reads the cached `successors` and
`predecessors` lists of `DependencyGraph`; none recurses per rule.
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
    Variable,
    apply_atom,
)


@dataclass(frozen=True)
class PieceUnifier:
    body_subset: tuple  # atoms of body(r2)
    head_subset: tuple  # atoms of head(r1)
    subst: tuple  # sorted (var, term) pairs

    def mapping(self) -> dict:
        return dict(self.subst)


def _unify(rep: dict, a: Atom, b: Atom) -> Optional[dict]:
    """A copy of the representative map `rep` that also unifies the
    arguments of `a` and `b` pairwise, or None when their predicates differ
    or two distinct constants meet."""
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    rep = dict(rep)
    for x, y in zip(a.args, b.args):
        keep, drop = rep.setdefault(x, x), rep.setdefault(y, y)
        if keep == drop:
            continue
        if drop.__class__ is not Variable:
            if keep.__class__ is not Variable:
                return None
            keep, drop = drop, keep
        elif keep.__class__ is Variable and drop.name < keep.name:
            keep, drop = drop, keep
        for t, r in rep.items():
            if r == drop:
                rep[t] = keep
    return rep


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

    def unify(rep: dict, i: int, j: int) -> Optional[tuple]:
        """The map grown by body[i] = head[j] and its existential
        representatives, or None on a clash or a broken existential
        condition."""
        rep = _unify(rep, body[i], head[j])
        if rep is None:
            return None
        roots: set = set()
        for t, r in rep.items():
            if t.__class__ is Variable and t.name in existentials:
                if r.__class__ is not Variable or r in roots:
                    return None
                roots.add(r)
        if any(r in roots and t.name in frontier for t, r in rep.items()):
            return None
        return rep, roots

    def grow(rep: dict, roots: set, piece: frozenset, heads: frozenset) -> Iterator[PieceUnifier]:
        pending = next(
            (
                i
                for i, a in enumerate(body)
                if i not in piece and any(rep.get(t) in roots for t in a.args)
            ),
            None,
        )
        if pending is None:
            yield PieceUnifier(
                body_subset=tuple(body[i] for i in sorted(piece)),
                head_subset=tuple(head[j] for j in sorted(heads)),
                # a constant always represents its own class
                subst=tuple(sorted((t.name, r) for t, r in rep.items() if t != r)),
            )
        elif pending > min(piece):  # else the search grows it from its first atom
            for j in range(len(head)):
                grown = unify(rep, pending, j)
                if grown is not None:
                    yield from grow(*grown, piece | {pending}, heads | {j})

    for i in range(len(body)):
        for j in range(len(head)):
            start = unify({}, i, j)
            if start is not None:
                yield from grow(*start, frozenset((i,)), frozenset((j,)))


def piece_unifiers(r1: Rule, r2: Rule) -> Iterator[PieceUnifier]:
    """The most general single-piece unifiers of body(r2) with head(r1),
    generated lazily; r1 is renamed apart from r2 first."""
    return _single_pieces(_rename_apart(r1, r2), r2)


def _atoms_set(atoms: Iterable[Atom], subst: dict) -> frozenset:
    return frozenset(apply_atom(subst, a) for a in atoms)


def depends_on(r2: Rule, r1: Rule) -> Optional[PieceUnifier]:
    """r2 depends on r1 when some piece-unifier of body(r2) with head(r1) is
    atom-erasing and productive; returns the first such unifier or None."""
    # a unifier pairs atoms of one predicate, so most pairs end here
    if {a.pred for a in r1.head}.isdisjoint(a.pred for a in r2.body):
        return None
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
    """`successors[i]` lists the rules that depend on rule i, and
    `predecessors[j]` the rules that rule j depends on, both ascending."""

    rule_set: RuleSet
    edges: tuple  # (i, j) rule indices: rules[j] depends on rules[i]

    @cached_property
    def successors(self) -> list:
        out: list = [[] for _ in self.rule_set.rules]
        for i, j in sorted(self.edges):
            out[i].append(j)
        return out

    @cached_property
    def predecessors(self) -> list:
        out: list = [[] for _ in self.rule_set.rules]
        for i, j in sorted(self.edges):
            out[j].append(i)
        return out

    @cached_property
    def positions(self) -> dict:  # rule id -> index
        return {r.id: i for i, r in enumerate(self.rule_set.rules)}

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
    """The graph of `depends_on` over every ordered rule pair, edges ordered
    by (i, j).  Only the rules whose body reads a head predicate of rule i
    can depend on it, so each rule i tests just those, found in an index
    from body predicate to rule."""
    rules = rs.rules
    readers: dict = {}  # body predicate -> indices of the rules reading it
    for j, r2 in enumerate(rules):
        for pred in {a.pred for a in r2.body}:
            readers.setdefault(pred, []).append(j)
    edges = []
    for i, r1 in enumerate(rules):
        candidates = sorted({j for a in r1.head for j in readers.get(a.pred, ())})
        edges.extend((i, j) for j in candidates if depends_on(rules[j], r1) is not None)
    return DependencyGraph(rule_set=rs, edges=tuple(edges))
