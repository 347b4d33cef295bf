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
The search is one explicit worklist of tasks "unify body atom i with head
atom j on this partial map", popped depth first in the order above; it
makes a task only for head atoms of the body atom's predicate, so no map
is copied for a pair that cannot unify.

A unifier is one map from every term it has met to the representative of
its class: the constant when the class holds one (two distinct constants
clash), else the variable with the least name.  Each step copies the map,
and each union relabels the members of the class that loses.  The
existential condition is read off the map: every existential of r1 has a
representative of its own, that representative is a variable, and no
frontier variable of r1 shares it (looked for only when the map holds an
existential).  Those representatives mark the classes that pull body
atoms in, and the substitution of a unifier maps each variable to its
representative.

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

`depends_on` tests each unifier on images, under the map, of the atoms of
both rules as (predicate, arguments) tuples, and stops at the first atom
that decides a test; it builds no image atom, and no `PieceUnifier` but
the one it returns.  It needs no search at all when every head atom of r2 occurs
in body(r2): then u(head(r2)) is contained in u(body(r2)) for every u,
so no unifier is productive.

`dependency_graph` runs `depends_on` only on the pairs where body(r2)
reads a predicate of head(r1), through an index from body predicate to
rule; every other pair has no unifier.  Every traversal of the graph, in
`acyclicity` and `cycles`, reads the cached `successors` and
`predecessors` lists of `DependencyGraph`; none recurses per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

# Not used here: bench/test_bench.py checks that the tracer patches
# find_homomorphisms in this namespace too.
from .hom import find_homomorphisms  # noqa: F401
from .model import Atom, Rule, RuleSet, Variable


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
    or two distinct constants meet.  Terms are interned (see `model`), so
    representatives are compared by identity."""
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    rep = dict(rep)
    for x, y in zip(a.args, b.args):
        keep, drop = rep.setdefault(x, x), rep.setdefault(y, y)
        if keep is drop:
            continue
        if drop.__class__ is not Variable:
            if keep.__class__ is not Variable:
                return None
            keep, drop = drop, keep
        elif keep.__class__ is Variable and drop.name < keep.name:
            keep, drop = drop, keep
        for t, r in rep.items():
            if r is drop:
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

    def rename(atoms: tuple) -> tuple:
        return tuple(
            Atom(a.pred, tuple([mapping[t.name] if t.__class__ is Variable else t for t in a.args]))
            for a in atoms
        )

    return Rule(id=r1.id + "~", body=rename(r1.body), head=rename(r1.head))


def _existential_roots(rep: dict, existentials: frozenset, frontier: tuple) -> Optional[set]:
    """The representatives of the existentials of r1 in `rep`, or None when
    the existential condition fails: two existentials share a class, or one
    shares it with a constant or a frontier variable of r1."""
    roots: set = set()
    for t, r in rep.items():
        if t.__class__ is Variable and t.name in existentials:
            if r.__class__ is not Variable or r in roots:
                return None
            roots.add(r)
    if roots and any(t.name in frontier and r in roots for t, r in rep.items()):
        return None
    return roots


def _single_pieces(r1: Rule, r2: Rule) -> Iterator[tuple]:
    """Most general single-piece unifiers of body(r2) with head(r1), for
    rules that share no variable (see the module docstring).  Each is
    yielded as its representative map, the indices of its body atoms (the
    start atom first) and those of the head atoms they were unified with."""
    body, head = r2.body, r1.head
    existentials, frontier = r1.existentials, r1.frontier
    heads_of: dict = {}  # predicate -> indices of the head atoms that have it
    for j, a in enumerate(head):
        heads_of.setdefault(a.pred, []).append(j)
    # A task unifies body[i] with head[j] on the map of the piece it grows;
    # the stack pops them in the order of the depth-first search.
    work = [({}, (), (), i, j) for i, a in enumerate(body) for j in heads_of.get(a.pred, ())]
    work.reverse()
    while work:
        rep, piece, heads, i, j = work.pop()
        rep = _unify(rep, body[i], head[j])
        if rep is None:
            continue
        roots = _existential_roots(rep, existentials, frontier)
        if roots is None:
            continue
        piece, heads = piece + (i,), heads + (j,)
        pending = None
        if roots and len(piece) < len(body):
            pending = next(
                (
                    k
                    for k, a in enumerate(body)
                    if k not in piece and any(rep.get(t) in roots for t in a.args)
                ),
                None,
            )
        if pending is None:  # no atom left to pull in: the piece is closed
            yield rep, piece, heads
        elif pending > piece[0]:  # else the search grows it from its first atom
            work.extend(
                (rep, piece, heads, pending, g) for g in reversed(heads_of.get(body[pending].pred, ()))
            )


def _piece_unifier(r1: Rule, r2: Rule, rep: dict, piece: tuple, heads: tuple) -> PieceUnifier:
    return PieceUnifier(
        body_subset=tuple([r2.body[i] for i in sorted(piece)]),
        head_subset=tuple([r1.head[j] for j in sorted(set(heads))]),
        # a constant always represents its own class
        subst=tuple(sorted([(t.name, r) for t, r in rep.items() if t is not r])),
    )


def piece_unifiers(r1: Rule, r2: Rule) -> Iterator[PieceUnifier]:
    """The most general single-piece unifiers of body(r2) with head(r1),
    generated lazily; r1 is renamed apart from r2 first."""
    r1 = _rename_apart(r1, r2)
    return (_piece_unifier(r1, r2, *found) for found in _single_pieces(r1, r2))


def _images(rep: dict, atoms: tuple) -> list:
    """The atoms under the unifier `rep`, as (predicate, arguments) tuples.
    They are scanned in lists rather than hashed into sets: terms are
    interned, so a tuple comparison compares its terms by identity."""
    get = rep.get
    return [(a.pred, tuple(map(get, a.args, a.args))) for a in atoms]


def depends_on(r2: Rule, r1: Rule) -> Optional[PieceUnifier]:
    """r2 depends on r1 when some piece-unifier of body(r2) with head(r1) is
    atom-erasing and productive; returns the first such unifier or None."""
    # a unifier pairs atoms of one predicate, so most pairs end here
    if {a.pred for a in r1.head}.isdisjoint(a.pred for a in r2.body):
        return None
    if set(r2.head).issubset(r2.body):  # u(head(r2)) lies in u(body(r2)) for every u
        return None
    r1 = _rename_apart(r1, r2)
    for rep, piece, heads in _single_pieces(r1, r2):
        rule1, rule2 = _images(rep, r1.all_atoms), _images(rep, r2.all_atoms)
        body1, body2 = rule1[: len(r1.body)], rule2[: len(r2.body)]
        # atom-erasing: some atom of u(body2) is not in u(body1)
        if any(a not in body1 for a in body2):
            # productive: some atom of u(head2) is new
            seen = rule1 + body2
            if any(a not in seen for a in rule2[len(r2.body) :]):
                return _piece_unifier(r1, r2, rep, piece, heads)
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
