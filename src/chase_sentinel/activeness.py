"""Chained restricted-chase search over restricted critical databases, the
renaming-driven path activeness test, and the k-safe decision driver.

A path is active w.r.t. a database when some sequence of active triggers
applies its rules in order and the steps form a chain from the first to the
last: each chained step consumes at least one atom first derived by the
previous chained step (intermediate steps may be skipped, endpoints may
not).  Safety of a path is decided against its restricted critical
database under the index-lowering renamings proposed from homomorphism
near misses (see `critdb` for what they cover).

The search decides once whether a step chains: step 1 does, and so does
a step whose body image holds a reached atom, one first derived by a
chained step.  The trail keeps that flag, and the witness's chain is read
back from the last step, which always chains: each chained step's
predecessor is the latest chained step it consumed from.

`replay_witness` replays a witness's steps as a restricted chase trace
(`ChaseTrace.replay`), then checks its chain through `hom.consumed_steps`,
the helper the search reads the chain back with.

The search matches each path rule's body in derived-first order: the
atoms the path derived, then the database atoms, each in insertion order,
with the body atoms in `hom.order_atoms` order.  Only a step that consumes
a derived atom extends the chain, so trying those first pays.  Measured
over one gated benchmark pass at seed 1 on a 2-vCPU VM, against the same
search in insertion order (`fixtures` was not timed):

    workload    order            time      probes   decided
    generated   insertion        318.7 s   51.9 M   198 of 200
    generated   derived first      5.19 s   0.71 M   199 of 200
    fixtures    insertion                   1.80 M    93 of 100
    fixtures    derived first               1.69 M    95 of 100

Each candidate tested is charged one probe, and each candidate that fails
to match is a near miss, which `critdb.near_miss_recorder` turns into the
merge it proposes, for `propose_merges`.

The search remembers the states whose subtree failed, and does not search
them again.  A state at depth i is keyed by i, the atoms steps 1..i derived,
and those derived by chain-reachable steps (step 1, and any step whose
body image holds such an atom).  The key is exact, since the database is
fixed for one search: the atom set fixes which triggers are active,
whether a Datalog-first step is blocked, the height `min_height` tests,
the body matches in derived-first order and their near misses, and the
reached atoms fix whether a later step chains.  Search order is kept and
only failing subtrees are skipped, so the first witness and the recorded
merges are those of a search without the memo, with at most its probes
and steps.  Likewise the last step skips a body match whose image holds
no reached atom before testing its activeness: it cannot end a chain.

Three more answers are cached.
- Trigger heads: the ground head atoms of a trigger depend only on its
  rule and frontier values (`hom.head_image`), not on the database, the
  renaming or the search.  So they outlive the search: they are kept on
  the rule (`Rule.trigger_heads`), built once for all searches of a rule
  set, and re-added whenever the trigger fires again.  Atoms and skolem
  terms are immutable values, so sharing them changes no instance.  A
  Datalog path rule is active iff one of these atoms is missing.
- Body images: the matcher yields each match with the instance atoms it
  matched, which are the trigger's body image, so the chain tests read
  them instead of instantiating the body.
- Database matches: whether a database atom matches a body atom, and the
  near miss it is if not, depend only on the body atom and the values
  bound to its variables, and the database atoms do not change during one
  search.  So the database part of a scan is memoized per search, per
  (body atom, bound values), and the memo dies with the search: a
  repeat re-binds the recorded hits and skips the rest.  It still charges
  one probe per database atom, in scan order, so probe counts and the
  point where a probe budget runs out are those of a full scan.  Its near
  misses were recorded by the first scan, and recording one again changes
  nothing.  Derived atoms come and go with rollbacks; they are scanned
  every time.
So the search tests, applies and records exactly what it would without
the caches, and only builds and matches less.

The search runs on an explicit stack, one frame per path position, so a
long path needs no deep recursion.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from .acyclicity import Condition, CycleFunction, check_condition, connected_components
from .chase import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    ChaseTrace,
    Meter,
    Saturated,
    TraceStep,
    datalog_first_filter,
)
from .critdb import (
    RenamingFunction,
    apply_renaming,
    near_miss_recorder,
    propose_merges,
    restricted_critical_db,
)
from .cycles import enumerate_k_cycles
from .deps import dependency_graph
from .hom import (
    consumed_steps,
    find_homomorphisms,
    freeze_bindings,
    head_image,
    is_active_trigger,
    match_args,
    order_atoms,
)
from .model import Atom, Instance, Rule, RuleSet


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


@dataclass(frozen=True)
class SafetyVerdict:
    status: Status
    witness: Optional[ChainWitness] = None
    reason: Optional[str] = None


class _Search:
    """Backtracking search for a chained sequence of active triggers along a
    fixed path.  Each trigger is retracted by rolling the instance back to
    its length before the trigger fired.  Each applied trigger is charged
    to the meter as a step and the instance checked against the atom and
    height limits, as in the chase loop.  As it goes, the search records
    in `merges` the merge that each indexed-constant near miss of a body
    match proposes (`critdb.near_miss_recorder`), for `propose_merges`.
    `failed` holds the keys of the states whose subtree failed, and
    `database_matches` the memo of database matches; trigger heads are
    memoized on the rules (see the module docstring).  `trail` holds a
    (rule, bindings, added atoms, chained) record per applied trigger, from
    which a witness and its chain are built once, on success."""

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
        self.trail: List[tuple] = []
        self.failed: set = set()
        self.merges: Dict[frozenset, None] = {}
        self.on_miss = near_miss_recorder(self.merges)
        self.database_matches: Dict[tuple, list] = {}
        self.witness_steps: Optional[List[TraceStep]] = None
        self.witness_chain: Optional[tuple] = None

    def _datalog_blocked(self) -> bool:
        """Under the Datalog-first strategy a generating rule may not fire
        while any of `datalog_rules` has an active trigger; with none given,
        nothing blocks."""
        probe = self.meter.charge_probe
        for d in self.datalog_rules:
            for h in find_homomorphisms(d.body, self.inst, probe=probe):
                if is_active_trigger(d, h, self.inst, probe=probe):
                    return True
        return False

    def matches(self, conj: Sequence[Atom]) -> Iterator[Tuple[dict, tuple]]:
        """(h, image) for each homomorphism h of `conj` into the instance,
        in derived-first order, where `image` holds the instance atoms
        matched, in `conj` order.  One probe is charged per candidate and
        each failed candidate's near miss recorded, as the module docstring
        says, with database matches memoized.  The instance may change
        while the matches are read if it is rolled back before the next."""
        inst, memo, on_miss = self.inst, self.database_matches, self.on_miss
        probe = self.meter.charge_probe
        order = [0] if len(conj) == 1 else order_atoms(conj, inst)
        last = len(order) - 1
        binding: dict = {}
        image: list = [None] * len(conj)

        def search(depth: int) -> Iterator[Tuple[dict, tuple]]:
            at = order[depth]
            pattern = conj[at]
            plan = pattern.plan
            arity = len(pattern.args)
            derived = inst.derived_by_pred(pattern.pred)
            database = inst.database_by_pred(pattern.pred)
            hits: Optional[list] = []  # no database atoms: nothing to memoize
            if database:
                key = (pattern, tuple(map(binding.get, plan.names)))
                hits = memo.get(key)
            # the derived atoms, numbered from -len(derived), then the
            # database atoms from 0 unless the memo holds their hits; a first
            # scan records each database hit with the pairs it bound
            found = []
            candidates = derived if hits is not None else chain(derived, database)
            for pos, cand in enumerate(candidates, -len(derived)):
                probe()
                trail: list = []
                if len(cand.args) == arity and match_args(plan, cand.args, binding, trail):
                    if pos >= 0:
                        found.append((pos, tuple([(name, binding[name]) for name in trail])))
                    image[at] = cand
                    if depth == last:
                        yield dict(binding), tuple(image)
                    else:
                        yield from search(depth + 1)
                    for name in trail:
                        del binding[name]
                    continue
                for name in trail:
                    del binding[name]
                on_miss(pattern, binding, cand)
            if hits is None:
                memo[key] = found
                return
            # a repeat: one probe per database atom, the hits re-bound
            scanned = 0
            for pos, pairs in hits:
                for _ in range(pos - scanned):
                    probe()
                probe()
                scanned = pos + 1
                for name, value in pairs:
                    binding[name] = value
                image[at] = database[pos]
                if depth == last:
                    yield dict(binding), tuple(image)
                else:
                    yield from search(depth + 1)
                for name, _ in pairs:
                    del binding[name]
            for _ in range(len(database) - scanned):
                probe()

        return search(0)

    def _found(self) -> None:
        """The witness of the trail, its chain read back from the last step."""
        trail, inst = self.trail, self.inst
        self.witness_steps = [
            TraceStep(rule.id, freeze_bindings(h), tuple(added)) for rule, h, added, _ in trail
        ]
        chain = [len(trail)]
        while chain[-1] != 1:
            rule, h, _, _ = trail[chain[-1] - 1]
            chain.append(max(i for i in consumed_steps(rule, h, inst) if i and trail[i - 1][3]))
        self.witness_chain = tuple(reversed(chain))

    def run(self) -> bool:
        """Depth-first over the path positions.  A frame holds a state's
        key (i, derived, reached), its body matches, and the instance
        length before the trigger its child state was entered with."""
        path, inst, meter, trail, failed = self.path, self.inst, self.meter, self.trail, self.failed
        probe = meter.charge_probe
        last = len(path) - 1
        frames: List[list] = []
        key: Optional[tuple] = (0, frozenset(), frozenset())
        while True:
            if key is not None:  # enter a state
                rule = path[key[0]]
                if key in failed or (not rule.is_datalog and self._datalog_blocked()):
                    failed.add(key)
                else:
                    frames.append([key, self.matches(rule.body), None])
                key = None
            if not frames:
                return False
            frame = frames[-1]
            (i, derived, reached), matches, size = frame
            if size is not None:  # its child state failed: retract that trigger
                trail.pop()
                inst.rollback(size)
            rule = path[i]
            heads = rule.trigger_heads
            for h, image in matches:
                if i and i == last and reached.isdisjoint(image):
                    continue
                if not rule.is_datalog and not is_active_trigger(rule, h, inst, probe=probe):
                    continue
                frontier = tuple(map(h.__getitem__, rule.frontier))
                head = heads.get(frontier)
                if head is None:
                    head = heads[frontier] = head_image(rule, h)
                if rule.is_datalog and all(a in inst for a in head):
                    continue  # a Datalog trigger is active iff a head atom is missing
                size = len(inst)
                added = [a for a in head if inst.add(a, i + 1)]
                meter.charge_step()
                meter.check_instance(inst)
                # step 1 starts every chain
                chained = not i or not reached.isdisjoint(image)
                trail.append((rule, h, added, chained))
                if i == last:
                    if inst.ht() >= self.min_height:
                        self._found()
                        return True
                    trail.pop()
                    inst.rollback(size)
                    continue
                frame[2] = size
                key = (i + 1, derived.union(added), reached.union(added) if chained else reached)
                break
            else:
                failed.add(frame[0])
                frames.pop()


def is_active_wrt(
    path: Sequence[Rule],
    database: Instance,
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
    budget across several calls; without one, the search gets
    DEFAULT_BUDGET.

    The search runs on `database` itself and rolls it back to its starting
    length on every exit, so the caller sees it unchanged."""
    if meter is None:
        meter = Meter(None)
    size = len(database)
    search = _Search(path, database, meter, datalog_rules, min_height)
    try:
        found = search.run()
    except BudgetExceeded as e:
        return SafetyVerdict(Status.INCONCLUSIVE, reason=e.reason)
    finally:
        database.rollback(size)
    if _collect is not None:
        _collect.extend(search.merges)
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
        merges: list = []
        verdict = is_active_wrt(
            path,
            apply_renaming(rn, db),
            datalog_rules=datalog_rules,
            min_height=min_height,
            meter=meter,
            _collect=merges,
        )
        if verdict.status is Status.ACTIVE:
            return SafetyVerdict(Status.ACTIVE, witness=replace(verdict.witness, renaming=rn))
        if verdict.status is Status.INCONCLUSIVE:
            return verdict
        if depth == len(path):
            continue
        for proposal in propose_merges(merges):
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
    """Re-run a witness as a restricted chase trace (`ChaseTrace.replay`),
    then check its chain edges; raises AssertionError on any mismatch, and,
    before replaying, when the steps do not apply the rules of
    `witness.rule_ids`, the cycle it names."""
    applied = tuple(s.rule_id for s in witness.steps)
    if applied != witness.rule_ids:
        raise AssertionError(
            "witness: steps apply %s, not the cycle %s" % (applied, witness.rule_ids)
        )
    inst = ChaseTrace(witness.initial, list(witness.steps), Saturated(), restricted=True).replay(rs)
    chain = witness.chain
    if len(witness.steps) >= 2:
        if not chain or chain[0] != 1 or chain[-1] != len(witness.steps):
            raise AssertionError("witness: chain does not span the path")
        for a, b in zip(chain, chain[1:]):
            step = witness.steps[b - 1]
            if a not in consumed_steps(rs.by_id[step.rule_id], dict(step.bindings), inst):
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
    benchmark change (ROADMAP item 7).
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
    phi = CycleFunction(condition, budget)
    comps = connected_components(graph)
    stats.components = len(comps)
    failing: list = []
    for comp in comps:
        if phi.check_rules(comp) is True:
            stats.components_skipped += 1
        else:
            failing.append(comp)

    datalog_rules = rs.datalog_rules if datalog_first else ()
    stream = enumerate_k_cycles(k, graph, limit=budget.max_cycles, components=failing)
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
        if phi.check_rules(cycle.path):  # unknown counts as F
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
