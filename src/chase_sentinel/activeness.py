"""Chained restricted-chase search over restricted critical databases, the
renaming-driven path activeness test, and the k-safe decision driver.

A path is active w.r.t. a database when some sequence of active triggers
applies its rules in order and the steps form a chain from the first to the
last: each chained step consumes at least one atom first derived by the
previous chained step (intermediate steps may be skipped, endpoints may
not).  Safety of a path is decided against its restricted critical
database under the index-lowering renamings proposed from homomorphism
near misses (see `critdb` for what they cover).
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .acyclicity import Condition, check_condition, connected_components, cycle_function
from .chase import Budget, DEFAULT_BUDGET, Meter, TraceStep, datalog_first_filter
from .critdb import (
    Conflict,
    RenamingFunction,
    apply_renaming,
    propose_merges,
    restricted_critical_db,
)
from .cycles import enumerate_k_cycles
from .deps import dependency_graph
from .hom import (
    BudgetExceeded,
    apply_trigger,
    body_image,
    find_homomorphisms,
    freeze_bindings,
    is_active_trigger,
)
from .model import Atom, IndexedConstant, Instance, Rule, RuleSet, Variable, apply_term


class Status(enum.Enum):
    SAFE = "safe"
    ACTIVE = "active"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ChainWitness:
    """Replayable evidence that a path is active w.r.t. a database."""

    rule_ids: tuple
    initial: tuple  # database atoms (after renaming, if any)
    steps: tuple  # TraceStep per path position
    chain: tuple  # step indices 1 = i_1 < ... < i_m = n
    renaming: RenamingFunction

    def rule_sequence(self) -> tuple:
        return tuple(s.rule_id for s in self.steps)


@dataclass(frozen=True)
class SafetyVerdict:
    status: Status
    witness: Optional[ChainWitness] = None
    reason: Optional[str] = None


def _chain_through(used_steps: List[frozenset]) -> Optional[tuple]:
    """A strictly increasing sequence 1 = i_1 < ... < i_m = n where step
    i_{a+1} consumed an atom first derived at step i_a; None when absent."""
    n = len(used_steps)
    if n == 0:
        return None
    if n == 1:
        return (1,)
    # parent[j] = some i < j that j consumes from, reachable from step 1
    reachable = {1}
    parent: Dict[int, int] = {}
    for j in range(2, n + 1):
        for i in sorted(used_steps[j - 1], reverse=True):
            if i >= 1 and i in reachable:
                reachable.add(j)
                parent[j] = i
                break
    if n not in reachable:
        return None
    chain = [n]
    while chain[-1] != 1:
        chain.append(parent[chain[-1]])
    return tuple(reversed(chain))


class _Search:
    """Backtracking search for a chained sequence of active triggers along a
    fixed path.  Collects indexed-constant near misses for the renaming
    machinery as it goes."""

    def __init__(
        self,
        path: Sequence[Rule],
        inst: Instance,
        meter: Meter,
        datalog_rules: Sequence[Rule] = (),
        min_height: int = 0,
    ):
        self.path = list(path)
        self.inst = inst
        self.meter = meter
        self.datalog_rules = list(datalog_rules)
        self.min_height = min_height
        self.steps: List[TraceStep] = []
        self.used_steps: List[frozenset] = []
        self.conflicts: Dict[frozenset, Conflict] = {}
        self.witness_steps: Optional[List[TraceStep]] = None
        self.witness_chain: Optional[tuple] = None

    def _on_miss(self, step_index: int, rule: Rule):
        def handler(pattern: Atom, binding: dict, candidate: Atom) -> None:
            # Substitutes one argument at a time and stops at the first
            # difference that is not between two indexed constants.
            pairs = []
            for p, c in zip(pattern.args, candidate.args):
                if p.__class__ is Variable:
                    p = binding.get(p.name)
                    if p is None:
                        continue  # unbound: agrees with anything
                elif not p.ground:
                    p = apply_term(binding, p)
                if p.__class__ is IndexedConstant and c.__class__ is IndexedConstant:
                    if p != c:
                        pairs.append((p, c))
                elif p != c:
                    return
            if pairs:
                key = frozenset(pairs)
                self.conflicts.setdefault(
                    key, Conflict(step=step_index, rule_id=rule.id, pairs=key)
                )

        return handler

    def _datalog_blocked(self) -> bool:
        """Under the Datalog-first strategy a generating rule may not fire
        while any of `datalog_rules` has an active trigger; with none given,
        nothing blocks."""
        for d in self.datalog_rules:
            for h in find_homomorphisms(d.body, self.inst, probe=self.meter.charge_probe):
                if is_active_trigger(d, h, self.inst, probe=self.meter.charge_probe):
                    return True
        return False

    def run(self) -> bool:
        return self._step(0)

    def _step(self, i: int) -> bool:
        if i == len(self.path):
            if self.inst.ht() < self.min_height:
                return False
            chain = _chain_through(self.used_steps)
            if chain is not None:
                self.witness_steps = list(self.steps)
                self.witness_chain = chain
                return True
            return False
        rule = self.path[i]
        step_no = i + 1
        if not rule.is_datalog and self._datalog_blocked():
            return False
        on_miss = self._on_miss(step_no, rule)
        for h in find_homomorphisms(
            rule.body,
            self.inst,
            derived_first=True,
            probe=self.meter.charge_probe,
            on_miss=on_miss,
        ):
            if not is_active_trigger(rule, h, self.inst, probe=self.meter.charge_probe):
                continue
            used = frozenset(
                self.inst.first_derived_at(a) for a in body_image(rule, h)
            )
            added, undos = apply_trigger(rule, h, self.inst, step_no)
            self.steps.append(TraceStep(rule.id, freeze_bindings(h), tuple(added)))
            self.used_steps.append(used)
            if self._step(i + 1):
                return True
            self.used_steps.pop()
            self.steps.pop()
            for rec in reversed(undos):
                self.inst.undo(rec)
        return False


def is_active_wrt(
    path: Sequence[Rule],
    database: Instance,
    budget: Optional[Budget] = None,
    datalog_rules: Sequence[Rule] = (),
    min_height: int = 0,
    meter: Optional[Meter] = None,
    _collect: Optional[list] = None,
) -> SafetyVerdict:
    """Activeness of a path w.r.t. one fixed database (no renaming).

    A non-empty `datalog_rules` makes the search Datalog-first: a generating
    step may not fire while one of them has an active trigger.  `min_height`
    restricts acceptance to chained sequences whose instance reaches at
    least that term height (used by the bounded-membership test, which only
    cares about height-breaching chains).  Passing a `meter` shares one
    budget across several calls."""
    if meter is None:
        meter = Meter(budget)
    inst = database.copy()
    search = _Search(path, inst, meter, datalog_rules, min_height)
    try:
        found = search.run()
    except BudgetExceeded as e:
        return SafetyVerdict(Status.INCONCLUSIVE, reason=e.reason)
    if _collect is not None:
        _collect.extend(search.conflicts.values())
    if found:
        witness = ChainWitness(
            rule_ids=tuple(r.id for r in path),
            initial=database.atoms(),
            steps=tuple(search.witness_steps),
            chain=search.witness_chain,
            renaming=RenamingFunction.identity(),
        )
        return SafetyVerdict(Status.ACTIVE, witness=witness)
    return SafetyVerdict(Status.SAFE)


def is_path_active(
    path: Sequence[Rule],
    budget: Optional[Budget] = None,
    datalog_rules: Sequence[Rule] = (),
    min_height: int = 0,
) -> SafetyVerdict:
    """Activeness of a path w.r.t. its restricted critical database under
    index-lowering renamings.

    One worklist decides: the identity first, then the renamings proposed
    from the homomorphism near misses of each search (a pattern that needed
    one indexed constant where the instance offered another, see `critdb`),
    composed up to |path| deep.  The path is safe when the worklist drains;
    it is inconclusive when the budget runs out, or when `max_renamings`
    cut proposals off.  `datalog_rules` and `min_height` are passed to
    every `is_active_wrt` search.
    """
    db = restricted_critical_db(path)
    meter = Meter(budget)
    identity = RenamingFunction.identity()
    queue: Deque[Tuple[RenamingFunction, int]] = deque([(identity, 0)])
    seen = {identity.mapping}
    inconclusive_reason: Optional[str] = None
    max_renamings = meter.budget.max_renamings

    while queue:
        rn, depth = queue.popleft()
        conflicts: list = []
        verdict = is_active_wrt(
            path,
            apply_renaming(rn, db),
            datalog_rules=datalog_rules,
            min_height=min_height,
            meter=meter,
            _collect=conflicts,
        )
        if verdict.status is Status.ACTIVE:
            return SafetyVerdict(Status.ACTIVE, witness=replace(verdict.witness, renaming=rn))
        if verdict.status is Status.INCONCLUSIVE:
            return verdict
        if depth == len(path):
            continue
        for proposal in propose_merges(conflicts):
            composed = proposal.compose_after(rn)
            if composed.mapping in seen:
                continue
            if max_renamings is not None and len(seen) > max_renamings:
                inconclusive_reason = inconclusive_reason or "renamings"
                break
            seen.add(composed.mapping)
            queue.append((composed, depth + 1))

    if inconclusive_reason is not None:
        return SafetyVerdict(Status.INCONCLUSIVE, reason=inconclusive_reason)
    return SafetyVerdict(Status.SAFE)


def replay_witness(witness: ChainWitness, rs: RuleSet) -> Instance:
    """Re-run a witness end to end, re-verifying trigger activeness and the
    chain edges; raises AssertionError on any mismatch."""
    inst = Instance(witness.initial, step=0)
    used_steps: List[frozenset] = []
    for i, step in enumerate(witness.steps, start=1):
        rule = rs.by_id[step.rule_id]
        h = dict(step.bindings)
        image = body_image(rule, h)
        for a in image:
            if a not in inst:
                raise AssertionError("witness: body atom %s missing at step %d" % (a, i))
        if not is_active_trigger(rule, h, inst):
            raise AssertionError("witness: trigger at step %d is not active" % i)
        used_steps.append(frozenset(inst.first_derived_at(a) for a in image))
        added, _ = apply_trigger(rule, h, inst, i)
        if tuple(added) != step.added:
            raise AssertionError("witness: step %d derived %s, recorded %s" % (i, added, step.added))
    chain = witness.chain
    if len(witness.steps) >= 2:
        if not chain or chain[0] != 1 or chain[-1] != len(witness.steps):
            raise AssertionError("witness: chain does not span the path")
        for a, b in zip(chain, chain[1:]):
            if a not in used_steps[b - 1]:
                raise AssertionError("witness: step %d does not consume step %d output" % (b, a))
    return inst


class Verdict(enum.Enum):
    TERMINATING = "Terminating"
    NOT_PROVEN = "NotProven"
    RESOURCE_EXHAUSTED = "ResourceExhausted"


@dataclass
class KSafeStats:
    components: int = 0
    components_skipped: int = 0
    cycles_enumerated: int = 0
    cycles_condition_true: int = 0
    cycles_datalog_pruned: int = 0
    cycles_checked: int = 0
    truncated: bool = False
    elapsed_s: float = 0.0


@dataclass
class KSafeReport:
    verdict: Verdict
    k: int
    condition: Condition
    datalog_first: bool
    witness: Optional[ChainWitness] = None
    condition_witness: object = None
    stats: KSafeStats = field(default_factory=KSafeStats)
    reason: Optional[str] = None  # the budget that ran out (ResourceExhausted only)


def k_safe(
    rs: RuleSet,
    k: int,
    condition: Condition,
    datalog_first: bool = False,
    budget: Optional[Budget] = None,
    jobs: int = 1,
) -> KSafeReport:
    """Decide membership in the k-safe hierarchy for one acyclicity test.

    k = 0 is the bare acyclicity check.  For k >= 1, every k-cycle of a
    component failing the condition is tested, in enumeration order, for
    activeness w.r.t. its restricted critical database under renamings; one
    active cycle refutes the proof attempt (NotProven), exhausted budgets
    yield ResourceExhausted, and a clean pass proves all-instance
    termination of the restricted chase (Terminating).

    A ResourceExhausted report names the budget that ran out first in
    `reason`: the first inconclusive cycle's reason (`probes`, `wall_clock`,
    `renamings`), `cycles` when `max_cycles` truncated the enumeration,
    `deadline` when `total_wall_clock_s` passed, or at k = 0 the reason of
    the condition check (MFA's chase budget).

    `jobs` must be 1: cycles are checked one at a time.  The keyword stays
    only because the benchmark runner passes `jobs=1`; it goes with the next
    benchmark change (ROADMAP item 4).
    """
    start = time.monotonic()
    if jobs != 1:
        raise ValueError("jobs must be 1: cycles are checked one at a time")
    if k < 0:
        raise ValueError("k must be >= 0")
    stats = KSafeStats()
    budget = budget or DEFAULT_BUDGET

    def report(verdict: Verdict, witness=None, condition_witness=None, reason=None) -> KSafeReport:
        stats.elapsed_s = time.monotonic() - start
        return KSafeReport(
            verdict=verdict,
            k=k,
            condition=condition,
            datalog_first=datalog_first,
            witness=witness,
            condition_witness=condition_witness,
            stats=stats,
            reason=reason,
        )

    if k == 0:
        res = check_condition(condition, rs, budget)
        if res.value is None:  # only MFA runs out; its witness names the budget
            return report(
                Verdict.RESOURCE_EXHAUSTED, condition_witness=res.witness, reason=res.witness
            )
        verdict = Verdict.TERMINATING if res.value else Verdict.NOT_PROVEN
        return report(verdict, condition_witness=res.witness)

    graph = dependency_graph(rs)
    phi = cycle_function(condition, budget)
    comps = connected_components(graph)
    stats.components = len(comps)
    failing: list = []
    for comp in comps:
        if phi.check_rules(comp) is True:
            stats.components_skipped += 1
        else:
            failing.append(comp)

    datalog_rules = rs.datalog_rules if datalog_first else ()
    stream = enumerate_k_cycles(rs, k, graph, limit=budget.max_cycles, components=failing)
    deadline = (
        start + budget.total_wall_clock_s if budget.total_wall_clock_s is not None else None
    )
    reason: Optional[str] = None
    for cycle in stream:
        if deadline is not None and time.monotonic() > deadline:
            reason = reason or "deadline"
            break
        stats.cycles_enumerated += 1
        if datalog_first and not datalog_first_filter(cycle.path, rs):
            stats.cycles_datalog_pruned += 1
            continue
        if phi(rs, cycle):
            stats.cycles_condition_true += 1
            continue
        stats.cycles_checked += 1
        safety = is_path_active(cycle.path, budget=budget, datalog_rules=datalog_rules)
        if safety.status is Status.ACTIVE:
            return report(Verdict.NOT_PROVEN, witness=safety.witness)
        if safety.status is Status.INCONCLUSIVE:
            reason = reason or safety.reason

    stats.truncated = stream.truncated
    if stream.truncated:
        reason = reason or "cycles"
    if reason is not None:
        return report(Verdict.RESOURCE_EXHAUSTED, reason=reason)
    return report(Verdict.TERMINATING)
