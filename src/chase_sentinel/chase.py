"""Chase execution: the breadth-first skolem chase and one greedy restricted
chase sequence, both selection policies over one budgeted trigger loop,
plus the Datalog-first admissibility filter for cycle paths.

All runs are budgeted: a run called without a budget gets DEFAULT_BUDGET,
so a possibly-infinite chase comes back with an explicit BudgetExhausted
outcome naming the limit it reached, never runs on.

Both policies are incremental, since the loop never removes an atom: the
skolem chase runs semi-naive rounds that match only homomorphisms using an
atom of the last round, and the restricted chase never tests a trigger
again once it found it inactive.  Each step then costs probes in proportion
to what changed, not to the whole instance, and the traces are those of a
full rescan (`tests/oracles.py` keeps the rescanning policies to check it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Union

from .hom import (
    apply_trigger,
    body_image,
    find_homomorphisms,
    freeze_bindings,
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


@dataclass
class ChaseTrace:
    initial: tuple  # database atoms
    steps: List[TraceStep]
    outcome: Outcome
    final: Optional[Instance] = None

    def __repr__(self) -> str:
        # the steps of a long run hold deep terms; printing them all can
        # take longer than the run did
        return "ChaseTrace(outcome=%r, steps=%d)" % (self.outcome, len(self.steps))

    def rule_sequence(self) -> tuple:
        return tuple(s.rule_id for s in self.steps)

    def replay(self, rules: RuleSet) -> Instance:
        """Re-execute the trace, verifying every application; returns the
        reconstructed instance."""
        inst = Instance(self.initial, step=0)
        for i, step in enumerate(self.steps, start=1):
            rule = rules.by_id[step.rule_id]
            h = dict(step.bindings)
            for a in body_image(rule, h):
                if a not in inst:
                    raise AssertionError("replay: body atom %s missing at step %d" % (a, i))
            added = apply_trigger(rule, h, inst, i)
            if tuple(added) != step.added:
                raise AssertionError(
                    "replay: step %d added %s, trace says %s" % (i, added, step.added)
                )
        return inst

    def to_json_lines(self) -> str:
        import json

        lines = []
        for i, s in enumerate(self.steps, start=1):
            lines.append(
                json.dumps(
                    {
                        "step": i,
                        "rule": s.rule_id,
                        "bindings": {v: str(t) for v, t in s.bindings},
                        "added": [str(a) for a in s.added],
                    },
                    sort_keys=True,
                )
            )
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
    The loop owns the trace; its meter ends the run by raising
    BudgetExceeded, which becomes the BudgetExhausted outcome."""
    inst = database.copy() if isinstance(database, Instance) else Instance(database, step=0)
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
    and so the trace, is the same as with a full rescan."""
    preds = {a.pred for rule in rules for a in rule.body}
    sizes: Optional[dict] = None  # predicate sizes at the previous round

    def round_of_triggers(inst: Instance, probe: Callable[[], None]) -> list:
        nonlocal sizes
        since, sizes = sizes, {p: len(inst.by_pred(p)) for p in preds}
        return [
            (rule, h)
            for rule in rules
            for h in find_homomorphisms(rule.body, inst, probe=probe, since=since)
        ]

    return _run(database, budget, round_of_triggers, detect_cyclic_terms)


def greedy_restricted(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    budget: Optional[Budget] = None,
    datalog_first: bool = False,
) -> ChaseTrace:
    """One restricted chase sequence, always firing the first active trigger
    in (rule order, homomorphism order); Datalog rules first when asked.

    A trigger found inactive is remembered by its rule and body bindings
    and never tested again: the loop only adds atoms, so the head match (or,
    for a Datalog rule, the head atoms) that made it inactive stays."""
    order = list(rules)
    if datalog_first:
        order = [r for r in order if r.is_datalog] + [r for r in order if not r.is_datalog]
    dead: set = set()

    def first_active(inst: Instance, probe: Callable[[], None]) -> list:
        for rule in order:
            for h in find_homomorphisms(rule.body, inst, probe=probe):
                key = (rule.id, tuple(h[v] for v in rule.body_vars))
                if key in dead:
                    continue
                if is_active_trigger(rule, h, inst, probe=probe):
                    return [(rule, h)]
                dead.add(key)
        return []

    return _run(database, budget, first_active)


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
