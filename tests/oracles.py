"""Reference oracles for the tests, by brute-force enumeration: every
restricted chase sequence, the length of the longest one, and the
activeness of a path under every renaming of its critical database.

They are slow and meant for small inputs only; the library's own chase runs
live in `chase_sentinel.chase`, and its demand-driven renaming search in
`chase_sentinel.activeness`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from chase_sentinel.activeness import Status, is_active_wrt
from chase_sentinel.chase import (
    Budget,
    BudgetExhausted,
    ChaseTrace,
    Meter,
    Outcome,
    Saturated,
    TraceStep,
)
from chase_sentinel.critdb import all_renamings, apply_renaming, restricted_critical_db
from chase_sentinel.hom import (
    BudgetExceeded,
    apply_trigger,
    find_homomorphisms,
    freeze_bindings,
    is_active_trigger,
)
from chase_sentinel.model import Atom, Instance, Rule, RuleSet


def _admissible(options: list, datalog_first: bool) -> list:
    """Under the Datalog-first strategy only Datalog triggers may fire while
    any is active."""
    if datalog_first and any(r.is_datalog for r, _ in options):
        return [(r, h) for r, h in options if r.is_datalog]
    return options


def active_triggers(
    rules: Iterable[Rule], inst: Instance, probe: Optional[Callable[[], None]] = None
) -> list:
    out = []
    for rule in rules:
        for h in find_homomorphisms(rule.body, inst, probe=probe):
            if is_active_trigger(rule, h, inst, probe=probe):
                out.append((rule, h))
    return out


def restricted_chase_exhaustive(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    budget: Optional[Budget] = None,
    max_traces: int = 10_000,
    datalog_first: bool = False,
) -> list:
    """Every restricted chase sequence (every active-trigger choice at every
    step) up to the step budget. Intended for small inputs only (documented
    guidance: <= 4 rules, <= 30 reachable atoms)."""
    base = database.copy() if isinstance(database, Instance) else Instance(database, step=0)
    initial_atoms = base.atoms()
    meter = Meter(budget)
    cap = meter.budget.max_steps
    traces: list = []
    steps: list = []

    def snapshot(outcome: Outcome) -> None:
        traces.append(
            ChaseTrace(initial=initial_atoms, steps=list(steps), outcome=outcome, final=None)
        )

    def explore(inst: Instance, depth: int) -> None:
        if len(traces) >= max_traces:
            return
        try:
            options = active_triggers(rules, inst, probe=meter.charge_probe)
            options = _admissible(options, datalog_first)
        except BudgetExceeded as e:
            snapshot(BudgetExhausted(e.reason))
            return
        if not options:
            snapshot(Saturated())
            return
        if cap is not None and depth >= cap:
            snapshot(BudgetExhausted("steps"))
            return
        for rule, h in options:
            if len(traces) >= max_traces:
                return
            added, undos = apply_trigger(rule, h, inst, depth + 1)
            steps.append(TraceStep(rule.id, freeze_bindings(h), tuple(added)))
            explore(inst, depth + 1)
            steps.pop()
            for rec in reversed(undos):
                inst.undo(rec)

    explore(base, 0)
    return traces


def longest_restricted_run(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    cap: int,
    datalog_first: bool = False,
) -> Optional[int]:
    """Length of the longest restricted chase sequence, exploring the state
    DAG with memoization; None when some sequence exceeds `cap` steps."""
    base = database.copy() if isinstance(database, Instance) else Instance(database, step=0)
    memo: dict = {}

    def longest(inst: Instance, depth: int) -> Optional[int]:
        key = inst.fingerprint()
        if key in memo:
            return memo[key]
        if depth > cap:
            return None
        options = _admissible(active_triggers(rules, inst), datalog_first)
        best = 0
        for rule, h in options:
            _, undos = apply_trigger(rule, h, inst, depth + 1)
            sub = longest(inst, depth + 1)
            for rec in reversed(undos):
                inst.undo(rec)
            if sub is None:
                return None
            best = max(best, 1 + sub)
            if depth + best > cap:
                return None
        memo[key] = best
        return best

    result = longest(base, 0)
    return result


def renaming_sweep(path: Sequence[Rule], budget: Optional[Budget] = None) -> Status:
    """Activeness of `path` w.r.t. its restricted critical database under
    every index-lowering renaming, tried one at a time with `budget` each:
    ACTIVE when some renaming makes the path active, else INCONCLUSIVE when
    some search ran out of budget, else SAFE."""
    db = restricted_critical_db(path)
    status = Status.SAFE
    for rn in all_renamings(db.indexed_constants):
        verdict = is_active_wrt(path, apply_renaming(rn, db), budget=budget)
        if verdict.status is Status.ACTIVE:
            return Status.ACTIVE
        if verdict.status is Status.INCONCLUSIVE:
            status = Status.INCONCLUSIVE
    return status
