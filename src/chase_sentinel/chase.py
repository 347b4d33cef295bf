"""Chase execution: the breadth-first skolem chase and one greedy restricted
chase sequence, both selection policies over one budgeted trigger loop,
plus the Datalog-first admissibility filter for cycle paths.

All runs are budgeted: a run called without a budget gets DEFAULT_BUDGET,
so a possibly-infinite chase comes back with an explicit BudgetExhausted
outcome naming the limit it reached, never runs on.

Both policies are incremental, since the loop never removes an atom: the
skolem chase runs semi-naive rounds that search only the rules reading a
predicate the last round grew, and match only homomorphisms using an atom
of that round.  The restricted chase keeps per rule a frontier below which
every trigger is known to be inactive, so a step enumerates only the
triggers past it, and its activeness tests match head atoms through an
argument index.  A probe is one candidate atom tested, in a body or a head
match; a restricted step costs probes in proportion to the triggers and
head candidates the steps before it added, not to the whole instance (the
restricted walk charges one probe a step).  The traces are those of a full
rescan (`tests/oracles.py` keeps the rescanning policies to check it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Union

from .hom import (
    ArgIndex,
    apply_trigger,
    body_image,
    find_homomorphisms,
    freeze_bindings,
    instantiate,
    is_active_trigger,
)
from .model import Atom, Instance, Rule, RuleSet, has_cyclic_nesting


@dataclass(frozen=True)
class Budget:
    """Resource limits; a field set to None means that limit is unlimited.

    Passing `budget=None` to a run is different: it means DEFAULT_BUDGET.
    max_height halts a run as soon as a term of that height appears, which
    is how callers probe "does the chase reach depth H".
    """

    max_steps: Optional[int] = None
    max_height: Optional[int] = None
    max_atoms: Optional[int] = None
    wall_clock_s: Optional[float] = None  # per run / per cycle check
    max_probes: Optional[int] = None
    max_renamings: Optional[int] = 200
    max_cycles: Optional[int] = 20000
    total_wall_clock_s: Optional[float] = None  # whole-analysis deadline


# The height limit bounds what a diverging chase can print: writing out a
# trace of deep terms takes space quadratic in their height.
DEFAULT_BUDGET = Budget(
    max_steps=None,
    max_height=1_000,
    max_atoms=100_000,
    wall_clock_s=60.0,
    max_probes=1_000_000,
)


class BudgetExceeded(Exception):
    """A Meter found a limit reached; `reason` names the Budget limit."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Meter:
    """Mutable counters enforcing a Budget (DEFAULT_BUDGET when None).

    The meter alone decides that a run is over: every charge or check that
    finds a limit reached raises BudgetExceeded with the limit's name."""

    def __init__(self, budget: Optional[Budget]):
        self.budget = budget or DEFAULT_BUDGET
        self.steps = 0
        self.probes = 0
        self._deadline = (
            time.monotonic() + self.budget.wall_clock_s
            if self.budget.wall_clock_s is not None
            else None
        )

    def charge_probe(self) -> None:
        self.probes += 1
        b = self.budget
        if b.max_probes is not None and self.probes > b.max_probes:
            raise BudgetExceeded("probes")
        if self._deadline is not None and self.probes % 256 == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("wall_clock")

    def charge_step(self) -> None:
        self.steps += 1
        b = self.budget
        if b.max_steps is not None and self.steps > b.max_steps:
            raise BudgetExceeded("steps")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded("wall_clock")

    def check_instance(self, inst: Instance) -> None:
        b = self.budget
        if b.max_atoms is not None and len(inst) > b.max_atoms:
            raise BudgetExceeded("atoms")
        if b.max_height is not None and inst.ht() >= b.max_height:
            raise BudgetExceeded("height")


@dataclass(frozen=True)
class Saturated:
    pass


@dataclass(frozen=True)
class BudgetExhausted:
    reason: str


@dataclass(frozen=True)
class CyclicTermFound:
    term: object


Outcome = Union[Saturated, BudgetExhausted, CyclicTermFound]


@dataclass(frozen=True)
class TraceStep:
    rule_id: str
    bindings: tuple  # sorted (var, term) pairs
    added: tuple  # atoms newly derived by this application

    def to_json(self) -> dict:
        """The JSON object of a step in a chase trace or a witness."""
        return {
            "rule": self.rule_id,
            "bindings": {v: str(t) for v, t in self.bindings},
            "added": [str(a) for a in self.added],
        }


@dataclass
class ChaseTrace:
    initial: tuple  # database atoms
    steps: List[TraceStep]
    outcome: Outcome
    final: Optional[Instance] = None
    restricted: bool = False  # replay checks that each trigger was active

    def __repr__(self) -> str:
        # the steps of a long run hold deep terms; printing them all can
        # take longer than the run did
        return "ChaseTrace(outcome=%r, steps=%d)" % (self.outcome, len(self.steps))

    def replay(self, rules: RuleSet) -> Instance:
        """Re-execute the trace, verifying every application, and for a
        restricted trace that every trigger was active when it fired;
        returns the reconstructed instance.  This is the one replay of
        recorded steps: `activeness.replay_witness` replays a chain witness
        as a restricted trace and then checks only its chain."""
        inst = Instance(self.initial)
        index = ArgIndex(inst) if self.restricted else None
        for i, step in enumerate(self.steps, start=1):
            rule = rules.by_id[step.rule_id]
            h = dict(step.bindings)
            for a in body_image(rule, h):
                if a not in inst:
                    raise AssertionError("replay: body atom %s missing at step %d" % (a, i))
            if index is not None and not is_active_trigger(rule, h, inst, index=index):
                raise AssertionError("replay: the trigger of step %d is not active" % i)
            added = apply_trigger(rule, h, inst, i)
            if tuple(added) != step.added:
                raise AssertionError(
                    "replay: step %d added %s, trace says %s" % (i, added, step.added)
                )
        return inst

    def to_json_lines(self) -> str:
        import json

        lines = [
            json.dumps({"step": i, **s.to_json()}, sort_keys=True)
            for i, s in enumerate(self.steps, start=1)
        ]
        tail = {"outcome": type(self.outcome).__name__}
        if isinstance(self.outcome, BudgetExhausted):
            tail["reason"] = self.outcome.reason
        if isinstance(self.outcome, CyclicTermFound):
            tail["term"] = str(self.outcome.term)
        lines.append(json.dumps(tail, sort_keys=True))
        return "".join(line + "\n" for line in lines)


def _cyclic_term_in(atoms: Iterable[Atom]):
    for a in atoms:
        for t in a.args:
            if has_cyclic_nesting(t):
                return t
    return None


def _run(
    database: Union[Instance, Iterable[Atom]],
    budget: Optional[Budget],
    select: Callable[[Instance, Callable[[], None]], list],
    detect_cyclic_terms: bool = False,
) -> ChaseTrace:
    """The one whole-instance chase loop.  `select(inst, probe)` is the
    policy: it returns the (rule, homomorphism) triggers to fire next, in
    order, charging `probe` per candidate test; an empty list saturates.
    The run works on a new instance that holds the database's atoms at
    step 0, so a given Instance is left as it was.  The loop owns the
    trace; its meter ends the run by raising BudgetExceeded, which becomes
    the BudgetExhausted outcome."""
    inst = Instance(database.atoms() if isinstance(database, Instance) else database)
    meter = Meter(budget)
    trace = ChaseTrace(initial=inst.atoms(), steps=[], outcome=Saturated(), final=inst)
    try:
        meter.check_instance(inst)
        while True:
            batch = select(inst, meter.charge_probe)
            if not batch:
                return trace
            for rule, h in batch:
                meter.charge_step()
                added = apply_trigger(rule, h, inst, meter.steps)
                trace.steps.append(TraceStep(rule.id, freeze_bindings(h), tuple(added)))
                if detect_cyclic_terms:
                    t = _cyclic_term_in(added)
                    if t is not None:
                        trace.outcome = CyclicTermFound(t)
                        return trace
                meter.check_instance(inst)
    except BudgetExceeded as e:
        trace.outcome = BudgetExhausted(e.reason)
    return trace


def skolem_chase(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    budget: Optional[Budget] = None,
    detect_cyclic_terms: bool = False,
) -> ChaseTrace:
    """Breadth-first fixpoint: each round applies every trigger found
    against the previous round's instance that no earlier round applied.

    Rounds are semi-naive.  A round notes, per body predicate, how many
    atoms the instance holds, and the next round asks `find_homomorphisms`
    only for the homomorphisms that use an atom added since.  That drops
    exactly the triggers applied before: the instance only grows, so every
    homomorphism into an earlier round's instance was enumerated, and
    scheduled, in that round; and one whose image uses a newer atom was no
    homomorphism into any earlier instance, so no round enumerated it.
    As the filtered enumeration keeps the full one's order, every round,
    and so the trace, is the same as with a full rescan.  A rule none of
    whose body predicates grew has no new homomorphism, so a round does
    not search it at all.  Only the head predicates of the rules that
    fired last round can have grown, and an index from each body predicate
    to the rules that read it names the rules to search, so a round costs
    what the last one added, not the size of the rule set."""
    rule_list = list(rules)
    readers: dict = {}  # body predicate -> positions of the rules reading it
    for i, rule in enumerate(rule_list):
        for p in {a.pred for a in rule.body}:
            readers.setdefault(p, []).append(i)
    writes = [{a.pred for a in r.head if a.pred in readers} for r in rule_list]
    sizes: dict = {}  # body predicate -> its size when the previous round ran, if not 0
    written: Optional[set] = None  # head predicates of the rules the last round fired

    def round_of_triggers(inst: Instance, probe: Callable[[], None]) -> list:
        nonlocal written
        since = None if written is None else sizes
        grown = {}
        for p in readers if written is None else written:
            n = len(inst.by_pred(p))
            if n > sizes.get(p, 0):
                grown[p] = n
        batch: list = []
        written = set()
        for i in sorted({i for p in grown for i in readers[p]}):
            rule = rule_list[i]
            before = len(batch)
            for h in find_homomorphisms(rule.body, inst, probe=probe, since=since):
                batch.append((rule, h))
            if len(batch) > before:
                written |= writes[i]
        sizes.update(grown)
        return batch

    return _run(database, budget, round_of_triggers, detect_cyclic_terms)


def greedy_restricted(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    budget: Optional[Budget] = None,
    datalog_first: bool = False,
) -> ChaseTrace:
    """One restricted chase sequence, always firing the first active trigger
    in (rule order, homomorphism order); Datalog rules first when asked.
    The trace is marked restricted, so its replay also checks that every
    step's trigger was active.

    The loop only adds atoms, so a trigger found inactive stays inactive,
    and a step searches only what the steps before it added:

    - each rule keeps a frontier, per body predicate the number of atoms
      below which every trigger of the rule is known to be inactive.  A
      rule none of whose body predicates grew past it is skipped; else
      `find_homomorphisms(..., since=frontier)` yields, in the full
      enumeration's order, only the triggers that use an atom past it.  A
      rule whose enumeration ends without an active trigger moves its
      frontier to the current sizes, and a rule with a one-atom body that
      fires moves it past the atom it fired on (the triggers before it
      were inactive, and the fired one is no longer active).  A rule with
      a longer body that fires keeps its frontier, so its next step may
      test again a trigger it found inactive past the frontier;
    - the head match of an activeness test reads an `ArgIndex` of the run's
      instance, so a head atom with a bound argument or a constant tests
      only the atoms that share it.

    A probe is one candidate tested, in a body or a head match, so the
    restricted walk charges one probe a step."""
    order = list(rules)
    if datalog_first:
        order = [r for r in order if r.is_datalog] + [r for r in order if not r.is_datalog]
    bodies = [(rule, list(dict.fromkeys(a.pred for a in rule.body))) for rule in order]
    frontiers: list = [{} for _ in order]
    index: Optional[ArgIndex] = None

    def first_active(inst: Instance, probe: Callable[[], None]) -> list:
        nonlocal index
        if index is None:
            index = ArgIndex(inst)
        for (rule, preds), frontier in zip(bodies, frontiers):
            sizes = [len(inst.by_pred(p)) for p in preds]
            if all(n <= frontier.get(p, 0) for p, n in zip(preds, sizes)):
                continue
            for h in find_homomorphisms(rule.body, inst, probe=probe, since=frontier):
                if is_active_trigger(rule, h, inst, probe=probe, index=index):
                    if len(rule.body) == 1:
                        (pred,) = preds
                        fired = instantiate(rule.body[0], h)
                        frontier[pred] = inst.by_pred(pred).index(fired, frontier.get(pred, 0)) + 1
                    return [(rule, h)]
            frontier.update(zip(preds, sizes))
        return []

    trace = _run(database, budget, first_active)
    trace.restricted = True
    return trace


def datalog_first_filter(path: Sequence[Rule], rule_set: RuleSet) -> bool:
    """Admissibility of a path under the Datalog-first strategy.

    Every non-final generating occurrence must come after all Datalog rules
    of `rule_set` have been scheduled at least once; the final element of
    the path (the closing occurrence of a cycle) is exempt.
    """
    datalog = {r.id for r in rule_set.datalog_rules}
    if not datalog:
        return True
    seen: set = set()
    for i, r in enumerate(path):
        is_final = i == len(path) - 1
        if not r.is_datalog and not is_final and not datalog <= seen:
            return False
        if r.is_datalog:
            seen.add(r.id)
    return True
