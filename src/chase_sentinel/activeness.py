"""Chained restricted-chase search over restricted critical databases, the
renaming-driven path activeness test, and the k-safe decision driver.

A path is active w.r.t. a database when some sequence of active triggers
applies its rules in order and the steps form a chain from the first to the
last: each chained step consumes at least one atom first derived by the
previous chained step (intermediate steps may be skipped, endpoints may
not).  Safety of a path is decided against its restricted critical
database under every reachable index-lowering renaming.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .acyclicity import Condition, check_condition, connected_components, cycle_function
from .chase import Budget, DEFAULT_BUDGET, Meter, TraceStep, datalog_first_filter
from .critdb import (
    Conflict,
    RenamingFunction,
    all_renamings,
    apply_renaming,
    propose_merges,
    restricted_critical_db,
)
from .cycles import KCycle, enumerate_k_cycles
from .deps import dependency_graph
from .hom import (
    BudgetExceeded,
    apply_trigger,
    body_image,
    find_homomorphisms,
    freeze_bindings,
    is_active_trigger,
)
from .model import Atom, IndexedConstant, Instance, Rule, RuleSet, Variable


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
        datalog_first: bool = False,
        min_height: int = 0,
    ):
        self.path = list(path)
        self.inst = inst
        self.meter = meter
        self.datalog_rules = list(datalog_rules)
        self.datalog_first = datalog_first
        self.min_height = min_height
        self.steps: List[TraceStep] = []
        self.used_steps: List[frozenset] = []
        self.conflicts: Dict[frozenset, Conflict] = {}
        self.witness_steps: Optional[List[TraceStep]] = None
        self.witness_chain: Optional[tuple] = None

    def _on_miss(self, step_index: int, rule: Rule):
        def handler(pattern: Atom, candidate: Atom) -> None:
            pairs = []
            ok = True
            for p, c in zip(pattern.args, candidate.args):
                if isinstance(p, IndexedConstant) and isinstance(c, IndexedConstant):
                    if p != c:
                        pairs.append((p, c))
                elif p != c and not isinstance(p, Variable):
                    ok = False
                    break
            if ok and pairs:
                key = frozenset(pairs)
                self.conflicts.setdefault(
                    key, Conflict(step=step_index, rule_id=rule.id, pairs=key)
                )

        return handler

    def _datalog_blocked(self) -> bool:
        """Under the Datalog-first strategy a generating rule may not fire
        while any Datalog rule of the set has an active trigger."""
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
        if self.datalog_first and not rule.is_datalog and self._datalog_blocked():
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
    datalog_first: bool = False,
    min_height: int = 0,
    meter: Optional[Meter] = None,
    _collect: Optional[list] = None,
) -> SafetyVerdict:
    """Activeness of a path w.r.t. one fixed database (no renaming).

    `min_height` restricts acceptance to chained sequences whose instance
    reaches at least that term height (used by the bounded-membership
    test, which only cares about height-breaching chains).  Passing a
    `meter` shares one budget across several calls."""
    if meter is None:
        meter = Meter(budget)
    inst = database.copy()
    search = _Search(path, inst, meter, datalog_rules, datalog_first, min_height)
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
    enable_renaming: bool = True,
    exhaustive_limit: int = 8,
    datalog_rules: Sequence[Rule] = (),
    datalog_first: bool = False,
    min_height: int = 0,
) -> SafetyVerdict:
    """Activeness of a path w.r.t. its restricted critical database under
    index-lowering renamings.

    Renamings are proposed on demand from homomorphism near misses (a
    variable that had to reach two distinct indexed constants) and composed
    up to |path| times; when the database has at most `exhaustive_limit`
    indexed constants, the full renaming space is swept as a fallback
    before declaring the path safe.
    """
    db = restricted_critical_db(path)
    meter = Meter(budget)

    def check(rn: RenamingFunction, conflicts: Optional[list] = None) -> Optional[SafetyVerdict]:
        """The verdict that ends the search under renaming `rn`, or None."""
        verdict = is_active_wrt(
            path,
            apply_renaming(rn, db),
            datalog_rules=datalog_rules,
            datalog_first=datalog_first,
            min_height=min_height,
            meter=meter,
            _collect=conflicts,
        )
        if verdict.status is Status.ACTIVE:
            return SafetyVerdict(Status.ACTIVE, witness=replace(verdict.witness, renaming=rn))
        if verdict.status is Status.INCONCLUSIVE:
            return verdict
        return None

    identity = RenamingFunction.identity()
    queue: List[Tuple[RenamingFunction, int]] = [(identity, 0)]
    seen = {identity.mapping}
    inconclusive_reason: Optional[str] = None
    max_renamings = meter.budget.max_renamings

    while queue:
        rn, depth = queue.pop(0)
        conflicts: list = []
        verdict = check(rn, conflicts)
        if verdict is not None:
            return verdict
        if not enable_renaming or depth >= len(path):
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

    if enable_renaming and len(db.indexed_constants) <= exhaustive_limit:
        try:
            fallback = all_renamings(db.indexed_constants)
        except ValueError:
            fallback = iter(())
        for rn in fallback:
            if rn.mapping in seen:
                continue
            seen.add(rn.mapping)
            verdict = check(rn)
            if verdict is not None:
                return verdict

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
    renamings_seen: int = 0
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


def k_safe(
    rs: RuleSet,
    k: int,
    condition: Condition,
    datalog_first: bool = False,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    enable_renaming: bool = True,
    exhaustive_limit: int = 6,
) -> KSafeReport:
    """Decide membership in the k-safe hierarchy for one acyclicity test.

    k = 0 is the bare acyclicity check.  For k >= 1, every k-cycle of a
    component failing the condition is tested for activeness w.r.t. its
    restricted critical database under renamings; one active cycle refutes
    the proof attempt (NotProven), exhausted budgets yield
    ResourceExhausted, and a clean sweep proves all-instance termination of
    the restricted chase (Terminating).
    """
    start = time.monotonic()
    stats = KSafeStats()
    budget = budget or DEFAULT_BUDGET
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        res = check_condition(condition, rs, budget)
        verdict = (
            Verdict.TERMINATING
            if res.value
            else (Verdict.NOT_PROVEN if res.value is False else Verdict.RESOURCE_EXHAUSTED)
        )
        stats.elapsed_s = time.monotonic() - start
        return KSafeReport(
            verdict=verdict,
            k=0,
            condition=condition,
            datalog_first=datalog_first,
            condition_witness=res.witness,
            stats=stats,
        )

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
    inconclusive = False

    def check_cycle(cycle: KCycle) -> SafetyVerdict:
        return is_path_active(
            cycle.path,
            budget=budget,
            enable_renaming=enable_renaming,
            exhaustive_limit=exhaustive_limit,
            datalog_rules=datalog_rules,
            datalog_first=datalog_first,
        )

    pending: List[KCycle] = []

    def drain(batch: List[KCycle]) -> Optional[KSafeReport]:
        nonlocal inconclusive
        if not batch:
            return None
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                verdicts = list(pool.map(check_cycle, batch))
        else:
            verdicts = [check_cycle(c) for c in batch]
        for cycle, verdict in zip(batch, verdicts):
            stats.cycles_checked += 1
            if verdict.status is Status.ACTIVE:
                stats.elapsed_s = time.monotonic() - start
                return KSafeReport(
                    verdict=Verdict.NOT_PROVEN,
                    k=k,
                    condition=condition,
                    datalog_first=datalog_first,
                    witness=verdict.witness,
                    stats=stats,
                )
            if verdict.status is Status.INCONCLUSIVE:
                inconclusive = True
        return None

    batch_size = max(1, jobs)
    deadline = (
        start + budget.total_wall_clock_s if budget.total_wall_clock_s is not None else None
    )
    for cycle in stream:
        if deadline is not None and time.monotonic() > deadline:
            inconclusive = True
            break
        stats.cycles_enumerated += 1
        if datalog_first and not datalog_first_filter(cycle.path, rs):
            stats.cycles_datalog_pruned += 1
            continue
        if phi(rs, cycle):
            stats.cycles_condition_true += 1
            continue
        pending.append(cycle)
        if len(pending) >= batch_size:
            report = drain(pending)
            pending = []
            if report is not None:
                return report
    report = drain(pending)
    if report is not None:
        return report

    stats.truncated = stream.truncated
    stats.elapsed_s = time.monotonic() - start
    verdict = Verdict.TERMINATING
    if inconclusive or stream.truncated:
        verdict = Verdict.RESOURCE_EXHAUSTED
    return KSafeReport(
        verdict=verdict,
        k=k,
        condition=condition,
        datalog_first=datalog_first,
        stats=stats,
    )
