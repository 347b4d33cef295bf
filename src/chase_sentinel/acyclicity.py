"""Skolem-chase acyclicity tests (WA, JA, aGRD, MFA), strongly connected
components of the dependency graph, and the cycle function of a test.

MFA is three-valued: a budget-truncated chase yields `unknown`, which cycle
functions treat as a failed condition (the sound direction).

WA, JA and aGRD report the first cycle `_first_cycle` finds; aGRD and the
components read the `successors` and `predecessors` lists of
`deps.DependencyGraph`.  No traversal recurses per node.  WA holds at once,
with no position graph built, for a rule set none of whose predicates
occurs both in a head and in a body: such a graph cannot cycle (see
`is_wa`).  The other conditions take no such exit.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import critdb
from .chase import DEFAULT_BUDGET, Budget, BudgetExceeded, CyclicTermFound, Saturated, skolem_chase
from .deps import DependencyGraph, dependency_graph
from .model import Atom, Position, Rule, RuleSet, Variable


class Condition(enum.Enum):
    WA = "wa"
    JA = "ja"
    AGRD = "agrd"
    MFA = "mfa"


@dataclass(frozen=True)
class CheckResult:
    condition: Condition
    value: Optional[bool]  # None = unknown (budget)
    witness: object = None  # cycle of positions / variables / rules, or term


def _var_positions(atoms: Sequence[Atom], var: str) -> List[Position]:
    out = []
    for a in atoms:
        for slot, t in enumerate(a.args, start=1):
            if isinstance(t, Variable) and t.name == var:
                out.append(Position(a.pred, slot))
    return out


@dataclass(frozen=True)
class PositionGraph:
    normal_edges: tuple
    special_edges: tuple


def position_graph(rs: RuleSet) -> PositionGraph:
    normal: set = set()
    special: set = set()
    for r in rs:
        frontier_positions: list = []
        for x in r.frontier:
            bpos = _var_positions(r.body, x)
            hpos = _var_positions(r.head, x)
            frontier_positions.extend(bpos)
            for b in bpos:
                for h in hpos:
                    normal.add((b, h))
        for z in sorted(r.existentials):
            zpos = _var_positions(r.head, z)
            for b in frontier_positions:
                for h in zpos:
                    special.add((b, h))
    return PositionGraph(tuple(sorted(normal, key=str)), tuple(sorted(special, key=str)))


def _find_path(adjacency, start, goal) -> Optional[list]:
    """Deterministic DFS path start -> goal (possibly empty when equal);
    `adjacency[node]` lists the successors of every node."""
    stack = [(start, [start])]
    seen = set()
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        if node in seen:
            continue
        seen.add(node)
        for nxt in reversed(adjacency[node]):
            if nxt not in seen or nxt == goal:
                stack.append((nxt, path + [nxt]))
    return None


def _first_cycle(adjacency, edges) -> Optional[tuple]:
    """The closed walk u, v, ..., u through the first edge (u, v), in the
    order given, whose head v reaches its tail u, or None."""
    for u, v in edges:
        path = _find_path(adjacency, v, u)
        if path is not None:
            return tuple([u] + path)
    return None


def is_wa(rs: RuleSet) -> CheckResult:
    """Weak acyclicity: no cycle of the position graph uses a special edge.

    Every edge of the position graph, normal or special, runs from a
    position of a body atom of some rule to a position of a head atom of
    the same rule.  A node on a cycle is the head of one edge and the tail
    of the next, so its predicate occurs in some head and in some body.
    When no predicate of `rs` is both read and written, the graph has no
    cycle, and WA holds without building it."""
    read = {a.pred for r in rs for a in r.body}
    if read.isdisjoint([a.pred for r in rs for a in r.head]):
        return CheckResult(Condition.WA, True)
    g = position_graph(rs)
    adjacency: Dict = defaultdict(list)
    for u, v in g.normal_edges + g.special_edges:
        adjacency[u].append(v)
    for u in adjacency:
        adjacency[u].sort(key=str)
    cycle = _first_cycle(adjacency, g.special_edges)
    return CheckResult(Condition.WA, cycle is None, witness=cycle)


def joint_move_sets(rs: RuleSet) -> Dict[str, frozenset]:
    """Move(y) per existential variable: least fixpoint of head-position
    seeding plus frontier propagation over all rules."""
    moves: Dict[str, set] = {}
    for r in rs:
        for z in sorted(r.existentials):
            moves[z] = set(_var_positions(r.head, z))
    changed = True
    while changed:
        changed = False
        for move in moves.values():
            for r in rs:
                for x in r.frontier:
                    bpos = set(_var_positions(r.body, x))
                    if bpos and bpos <= move:
                        hpos = set(_var_positions(r.head, x))
                        if not hpos <= move:
                            move |= hpos
                            changed = True
    return {y: frozenset(m) for y, m in moves.items()}


def is_ja(rs: RuleSet) -> CheckResult:
    """Joint acyclicity: the existential-variable dependency graph built from
    the Move sets has no cycle."""
    moves = joint_move_sets(rs)
    owner: Dict[str, Rule] = {}
    for r in rs:
        for z in r.existentials:
            owner[z] = r
    adjacency: Dict[str, list] = {y: [] for y in moves}
    for y1 in moves:
        for y2, r2 in owner.items():
            for x in r2.frontier:
                bpos = set(_var_positions(r2.body, x))
                if _var_positions(r2.head, x) and bpos and bpos <= moves[y1]:
                    adjacency[y1].append(y2)
                    break
    for y in adjacency:
        adjacency[y] = sorted(set(adjacency[y]))
    cycle = _first_cycle(adjacency, ((y, nxt) for y in sorted(moves) for nxt in adjacency[y]))
    return CheckResult(Condition.JA, cycle is None, witness=cycle)


def is_agrd(rs: RuleSet) -> CheckResult:
    """Acyclic graph of rule dependencies; self-loops count as cycles."""
    g = dependency_graph(rs)
    cycle = _first_cycle(g.successors, g.edges)  # edges come ordered by (i, j)
    if cycle is None:
        return CheckResult(Condition.AGRD, True)
    return CheckResult(Condition.AGRD, False, witness=tuple(rs.rules[i].id for i in cycle))


def is_mfa(rs: RuleSet, budget: Optional[Budget] = None) -> CheckResult:
    """Model-faithful acyclicity: the skolem chase of the critical database
    must saturate without producing a cyclic skolem term."""
    budget = budget or DEFAULT_BUDGET
    try:
        db = critdb.skolem_critical_db(rs, budget.max_atoms)
    except BudgetExceeded as e:
        return CheckResult(Condition.MFA, None, witness=e.reason)
    trace = skolem_chase(db, rs, budget=budget, detect_cyclic_terms=True)
    if isinstance(trace.outcome, Saturated):
        return CheckResult(Condition.MFA, True)
    if isinstance(trace.outcome, CyclicTermFound):
        return CheckResult(Condition.MFA, False, witness=trace.outcome.term)
    return CheckResult(Condition.MFA, None, witness=trace.outcome.reason)


def check_condition(
    condition: Condition, rs: RuleSet, budget: Optional[Budget] = None
) -> CheckResult:
    if condition is Condition.WA:
        return is_wa(rs)
    if condition is Condition.JA:
        return is_ja(rs)
    if condition is Condition.AGRD:
        return is_agrd(rs)
    if condition is Condition.MFA:
        return is_mfa(rs, budget=budget)
    raise ValueError("unknown condition %r" % condition)


def connected_components(graph: DependencyGraph) -> List[tuple]:
    """Strongly connected components of the dependency graph (the mutual
    reachability reading of connectivity), ordered by smallest rule index.

    Two passes on explicit stacks (Sharir 1981): a DFS over
    `graph.successors` records the finishing order; then, latest finish
    first, each unplaced rule collects the unplaced rules that reach it
    over `graph.predecessors`."""
    successors, predecessors = graph.successors, graph.predecessors
    finished: List[int] = []
    seen = [False] * len(successors)
    for root in range(len(successors)):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(successors[root]))]  # a node and its unread successors
        while work:
            nxt = next((j for j in work[-1][1] if not seen[j]), None)
            if nxt is None:
                finished.append(work.pop()[0])
            else:
                seen[nxt] = True
                work.append((nxt, iter(successors[nxt])))
    placed = [False] * len(successors)
    components: List[list] = []
    for root in reversed(finished):
        if placed[root]:
            continue
        placed[root] = True
        comp = [root]
        for node in comp:  # grows while it is read
            for i in predecessors[node]:
                if not placed[i]:
                    placed[i] = True
                    comp.append(i)
        components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    rules = graph.rule_set.rules
    return [tuple(rules[i] for i in comp) for comp in components]


class CycleFunction:
    """The condition on a cycle's distinct rules: `check_rules` gives True,
    False, or None when the check ran out of budget (only MFA can), which
    callers count as False; memoized per distinct rule subset.  The rules
    passed in must come from one rule set, as components and cycles do."""

    def __init__(self, condition: Condition, budget: Optional[Budget] = None):
        self.condition = condition
        self.budget = budget
        self._memo: Dict[frozenset, Optional[bool]] = {}

    def check_rules(self, rules: Sequence[Rule]) -> Optional[bool]:
        key = frozenset(r.id for r in rules)
        if key not in self._memo:
            # Distinct ids, one arity per predicate and rules standardized
            # apart hold for every subset of a rule set that has them, so
            # the subset skips `RuleSet.__post_init__`.
            subset = object.__new__(RuleSet)
            object.__setattr__(subset, "rules", tuple(dict.fromkeys(rules)))
            self._memo[key] = check_condition(self.condition, subset, self.budget).value
        return self._memo[key]
