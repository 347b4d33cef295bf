"""Rule dependencies via piece-unification, plus the instance-relative test
and the rule dependency graph.

A piece-unifier of body(r2) with head(r1) is a substitution equating a
body subset B with a head subset H, where existential head variables may
only be merged with body variables that never occur outside B.  A unifier
witnesses a genuine dependency when it is atom-erasing and productive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional

from .hom import apply_trigger, find_homomorphisms
from .model import (
    Atom,
    Instance,
    Rule,
    RuleSet,
    SkolemTerm,
    Term,
    Variable,
    apply_atom,
)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

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


def _unify_terms(uf: _UnionFind, a: Term, b: Term) -> bool:
    ra, rb = uf.find(a), uf.find(b)
    if ra == rb:
        return True
    if isinstance(ra, SkolemTerm) and isinstance(rb, SkolemTerm):
        if ra.fn != rb.fn or len(ra.args) != len(rb.args):
            return False
        if not uf.union(ra, rb):  # both rigid: merge structurally instead
            pass
        return all(_unify_terms(uf, x, y) for x, y in zip(ra.args, rb.args))
    return uf.union(ra, rb)


def _unify_atom_pair(uf: _UnionFind, a: Atom, b: Atom) -> bool:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return False
    return all(_unify_terms(uf, x, y) for x, y in zip(a.args, b.args))


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


def _rename_apart(r: Rule, taken: frozenset) -> Rule:
    """Fresh copy of r whose variables avoid `taken` (for self-dependency)."""
    mapping = {}
    for v in set(r.body_vars) | set(r.head_vars):
        name = v
        while name in taken:
            name = name + "~"
        mapping[v] = Variable(name)
    body = tuple(apply_atom(mapping, a) for a in r.body)
    head = tuple(apply_atom(mapping, a) for a in r.head)
    return Rule(id=r.id + "~", body=body, head=head)


def piece_unifiers(r1: Rule, r2: Rule, max_subset: int = 4) -> List[PieceUnifier]:
    """All piece-unifiers of body(r2) with head(r1).

    Enumerates nonempty subsets B of the body and H of the head together
    with coverings of B x H by predicate-compatible atom pairs; each
    covering's most general unifier is kept when the existential-variable
    side condition holds.  Subset sizes are capped (rules are small in
    practice).
    """
    shared = (set(r1.body_vars) | set(r1.head_vars)) & (set(r2.body_vars) | set(r2.head_vars))
    if shared:
        r1 = _rename_apart(r1, frozenset(set(r2.body_vars) | set(r2.head_vars)))
    body = list(r2.body)
    head = list(r1.head)
    r1_existentials = set(r1.existentials)
    body_all_vars = set(r2.body_vars)
    results: List[PieceUnifier] = []
    seen = set()

    body_idx = range(len(body))
    head_idx = range(len(head))
    for bsize in range(1, min(len(body), max_subset) + 1):
        for B in itertools.combinations(body_idx, bsize):
            for hsize in range(1, min(len(head), max_subset) + 1):
                for H in itertools.combinations(head_idx, hsize):
                    grid = [
                        (b, h)
                        for b in B
                        for h in H
                        if body[b].pred == head[h].pred and body[b].arity == head[h].arity
                    ]
                    if not grid:
                        continue
                    covered_b = {b for b, _ in grid}
                    covered_h = {h for _, h in grid}
                    if covered_b != set(B) or covered_h != set(H):
                        continue
                    max_pairs = len(B) + len(H)
                    for size in range(max(len(B), len(H)), min(len(grid), max_pairs) + 1):
                        for pairs in itertools.combinations(grid, size):
                            if {b for b, _ in pairs} != set(B):
                                continue
                            if {h for _, h in pairs} != set(H):
                                continue
                            uf = _UnionFind()
                            ok = all(
                                _unify_atom_pair(uf, body[b], head[h]) for b, h in pairs
                            )
                            if not ok:
                                continue
                            classes = uf.classes()
                            if not _existential_condition(
                                classes, r1_existentials, body, B, body_all_vars
                            ):
                                continue
                            subst = _subst_from_classes(classes)
                            pu = PieceUnifier(
                                body_subset=tuple(body[b] for b in sorted(set(B))),
                                head_subset=tuple(head[h] for h in sorted(set(H))),
                                subst=tuple(sorted(subst.items(), key=lambda kv: kv[0])),
                            )
                            key = (pu.body_subset, pu.head_subset, pu.subst)
                            if key not in seen:
                                seen.add(key)
                                results.append(pu)
    return results


def _existential_condition(
    classes: dict,
    r1_existentials: set,
    body: list,
    B: tuple,
    body_all_vars: set,
) -> bool:
    """Existential head variables unify only with body variables of B that
    do not occur in the rest of the body."""
    b_vars: set = set()
    for i in B:
        for t in body[i].args:
            if isinstance(t, Variable):
                b_vars.add(t.name)
    rest_vars: set = set()
    rest = [body[i] for i in range(len(body)) if i not in set(B)]
    for a in rest:
        for t in a.args:
            if isinstance(t, Variable):
                rest_vars.add(t.name)
    for rep, members in classes.items():
        ex = [m for m in members if isinstance(m, Variable) and m.name in r1_existentials]
        if not ex:
            continue
        if len(ex) > 1:
            return False
        for m in members:
            if m in ex:
                continue
            if not isinstance(m, Variable):
                return False
            if m.name not in b_vars or m.name in rest_vars:
                return False
            if m.name not in body_all_vars:
                return False
    return True


def _atoms_set(atoms: Iterable[Atom], subst: dict) -> frozenset:
    return frozenset(apply_atom(subst, a) for a in atoms)


def depends_on(r2: Rule, r1: Rule) -> Optional[PieceUnifier]:
    """r2 depends on r1 when some piece-unifier of body(r2) with head(r1) is
    atom-erasing and productive; returns the witness or None."""
    shared = (set(r1.body_vars) | set(r1.head_vars)) & (set(r2.body_vars) | set(r2.head_vars))
    r1_eff = _rename_apart(r1, frozenset(set(r2.body_vars) | set(r2.head_vars))) if shared else r1
    for pu in piece_unifiers(r1_eff, r2):
        theta = pu.mapping()
        body2 = _atoms_set(r2.body, theta)
        body1 = _atoms_set(r1_eff.body, theta)
        if body2 <= body1:  # atom-erasing fails
            continue
        head2 = _atoms_set(r2.head, theta)
        head1 = _atoms_set(r1_eff.head, theta)
        if head2 <= (body1 | head1 | body2):  # not productive
            continue
        return pu
    return None


def depends_on_wrt(r2: Rule, r1: Rule, inst: Instance) -> bool:
    """Instance-relative dependency: some application of r1 on `inst` derives
    an atom that a fresh body match of r2 actually uses."""
    for h in find_homomorphisms(r1.body, inst):
        scratch = inst.copy()
        _, _undos = apply_trigger(r1, h, scratch, step=1)
        for g in find_homomorphisms(r2.body, scratch):
            image = [apply_atom(g, a) for a in r2.body]
            if any(a not in inst for a in image):
                return True
    return False


@dataclass(frozen=True)
class DependencyGraph:
    rule_set: RuleSet
    edges: tuple  # (i, j) rule indices: rules[j] depends on rules[i]
    witnesses: tuple  # PieceUnifier per edge, aligned with edges

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
    edges = []
    witnesses = []
    rules = rs.rules
    for i, r1 in enumerate(rules):
        for j, r2 in enumerate(rules):
            pu = depends_on(r2, r1)
            if pu is not None:
                edges.append((i, j))
                witnesses.append(pu)
    return DependencyGraph(rule_set=rs, edges=tuple(edges), witnesses=tuple(witnesses))
