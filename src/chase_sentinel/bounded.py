"""Bounded-depth membership: decide whether every restricted chase sequence
keeps skolem-term nesting within delta(||R||).

Phase 1 runs the skolem chase on the skolem critical database, halting as
soon as a term of height delta(||R||)+1 appears; saturation without such a
term already proves the bound.  Phase 2 extracts the support chain of
trigger applications that fed the one step that breached the bound, and
tests the corresponding rule path for activeness w.r.t. its restricted
critical databases; only an active path refutes the bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Optional

from .activeness import Status, is_path_active
from .chase import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    BudgetExhausted,
    ChaseTrace,
    Saturated,
    skolem_chase,
)
from .critdb import skolem_critical_db
from .hom import consumed_steps
from .model import RuleSet, rule_set_size


@dataclass(frozen=True)
class BoundFunction:
    """Total, monotone map from positive integers to positive integers."""

    kind: str  # 'const' | 'linear' | 'exptower'
    params: tuple

    def __call__(self, n: int) -> int:
        if self.kind == "const":
            return self.params[0]
        if self.kind == "linear":
            a, b = self.params
            return a * n + b
        if self.kind == "exptower":
            (kappa,) = self.params
            value = n
            for _ in range(kappa):
                value = 2**value
            return value
        raise ValueError("unknown bound function kind %r" % self.kind)

    def at_most(self, n: int, cap: int) -> Optional[int]:
        """delta(n) when it is at most `cap`, else None.  A tower stops
        growing as soon as it passes `cap`, so it is never built in full."""
        if self.kind == "exptower":
            (kappa,) = self.params
            value = n
            for _ in range(kappa):
                if value >= cap.bit_length():  # then 2**value > cap
                    return None
                value = 2**value
        else:
            value = self(n)
        return value if value <= cap else None

    def __str__(self) -> str:
        return "%s:%s" % (self.kind, ",".join(str(p) for p in self.params))


def constant_bound(c: int) -> BoundFunction:
    return BoundFunction("const", (c,))


def linear_bound(a: int, b: int) -> BoundFunction:
    return BoundFunction("linear", (a, b))


def exp_tower_bound(kappa: int) -> BoundFunction:
    return BoundFunction("exptower", (kappa,))


def parse_bound(spec: str) -> BoundFunction:
    """Parse 'const:c' (c >= 1), 'linear:a,b' (a >= 0, a + b >= 1) or
    'exptower:k' (k >= 0): exactly the specs whose function maps every
    positive integer to a positive integer."""
    kind, _, rest = spec.partition(":")
    try:
        params = tuple(int(p) for p in rest.split(",")) if rest else ()
        if kind == "const" and len(params) == 1 and params[0] >= 1:
            return constant_bound(params[0])
        if kind == "linear" and len(params) == 2 and params[0] >= 0 and sum(params) >= 1:
            return linear_bound(*params)
        if kind == "exptower" and len(params) == 1 and params[0] >= 0:
            return exp_tower_bound(params[0])
    except ValueError:
        pass
    raise ValueError("bad bound function spec %r" % spec)


@dataclass
class MembCheckResult:
    value: Optional[bool]  # True / False / None (budget)
    bound: int  # delta(||R||), or the reachable height when clamped
    phase: int  # 1 or 2
    breach_paths: tuple = ()  # (rule ids of the breaching step's support,) in phase 2
    witness: Optional[object] = None  # ChainWitness for F verdicts
    reason: Optional[str] = None
    bound_clamped: bool = False  # delta(||R||) exceeded the reachable height


def _support_path(trace: ChaseTrace, rules: RuleSet) -> tuple:
    """The rule path of the last step's derivation support: the steps it
    consumed from, transitively, in step order."""
    inst = trace.final
    support = set()
    frontier = [len(trace.steps)]
    while frontier:
        s = frontier.pop()
        if s in support or s == 0:
            continue
        support.add(s)
        step = trace.steps[s - 1]
        frontier.extend(consumed_steps(rules.by_id[step.rule_id], dict(step.bindings), inst))
    return tuple(trace.steps[s - 1].rule_id for s in sorted(support))


def memb_check(
    rs: RuleSet,
    delta: BoundFunction,
    budget: Optional[Budget] = None,
) -> MembCheckResult:
    """Three-valued bounded-membership test for the restricted chase.

    T is sound for arbitrary rule sets; for multi-head rule sets an F
    verdict may be spurious for unfair-only sequences (the report surfaces
    this caveat).

    The bound is clamped to the height phase 1 can reach.  Each step nests
    terms at most one level deeper, and only by adding an atom, so no run
    within the step and atom budgets gets above 1 + min(max_steps,
    max_atoms); an instance never holds more than sys.maxsize atoms.  A
    bound at or above that height cannot be breached, so phase 2 is never
    reached and the clamp changes no verdict; `bound_clamped` reports it.

    An unknown answer names the first budget that ran out; in phase 2 it
    also gives the breach paths.  Without a budget the run gets
    DEFAULT_BUDGET.  Raises ValueError when delta(||R||) < 1: a bound
    function maps positive integers to positive integers."""
    budget = budget or DEFAULT_BUDGET
    limits = (budget.max_steps, budget.max_atoms, sys.maxsize)
    reach = 1 + min(b for b in limits if b is not None)
    size = rule_set_size(rs)
    bound = delta.at_most(size, reach)
    clamped = bound is None
    if clamped:
        bound = reach
    elif bound < 1:
        raise ValueError("delta(%d) = %d is not a positive integer" % (size, bound))
    try:
        db = skolem_critical_db(rs, budget.max_atoms)
    except BudgetExceeded as e:
        return MembCheckResult(
            value=None, bound=bound, phase=1, reason=e.reason, bound_clamped=clamped
        )
    trace = skolem_chase(db, rs, budget=replace(budget, max_height=bound + 1))
    if isinstance(trace.outcome, Saturated):
        return MembCheckResult(value=True, bound=bound, phase=1, bound_clamped=clamped)
    if isinstance(trace.outcome, BudgetExhausted) and trace.outcome.reason != "height":
        return MembCheckResult(
            value=None, bound=bound, phase=1, reason=trace.outcome.reason, bound_clamped=clamped
        )

    # The critical database has height 1, below bound + 1, and the meter
    # checks the height after every step, so a height stop comes right after
    # the one step that added a term above the bound: the last step, whose
    # support path is the path to test.  Here `min_height` is the height
    # test, and a path is finite, so no height limit applies.
    path_ids = _support_path(trace, rs)
    path = tuple(rs.by_id[rid] for rid in path_ids)
    verdict = is_path_active(path, budget=replace(budget, max_height=None), min_height=bound + 1)
    if verdict.status is Status.ACTIVE:
        return MembCheckResult(
            value=False, bound=bound, phase=2, breach_paths=(path_ids,), witness=verdict.witness
        )
    if verdict.status is Status.INCONCLUSIVE:
        return MembCheckResult(
            value=None, bound=bound, phase=2, breach_paths=(path_ids,), reason=verdict.reason
        )
    return MembCheckResult(value=True, bound=bound, phase=2, breach_paths=(path_ids,))


def multi_head_caveat(rs: RuleSet) -> Optional[str]:
    """Completeness caveat for F verdicts on multi-head rule sets."""
    if any(len(r.head) > 1 for r in rs.rules):
        return (
            "rule set has multi-atom heads: the bounded-membership test is "
            "sound but not complete (an F verdict may rest on sequences no "
            "fair strategy realizes)"
        )
    return None
