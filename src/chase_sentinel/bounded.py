"""Bounded-depth membership: decide whether every restricted chase sequence
keeps skolem-term nesting within delta(||R||).

Phase 1 runs the skolem chase on the skolem critical database, halting as
soon as a term of height delta(||R||)+1 appears; saturation without such a
term already proves the bound.  Phase 2 extracts, for each atom that first
breached the bound, the support chain of trigger applications that fed it,
and tests the corresponding rule path for activeness w.r.t. its restricted
critical databases; only an active path refutes the bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from .activeness import Status, is_path_active
from .chase import Budget, BudgetExhausted, ChaseTrace, Saturated, skolem_chase
from .critdb import skolem_critical_db
from .hom import body_image
from .model import RuleSet, rule_set_size, term_height


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
    """Parse 'const:3', 'linear:a,b' or 'exptower:k'."""
    kind, _, rest = spec.partition(":")
    try:
        params = tuple(int(p) for p in rest.split(",")) if rest else ()
        if kind == "const" and len(params) == 1:
            return constant_bound(params[0])
        if kind == "linear" and len(params) == 2:
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
    breach_paths: tuple = ()  # rule-id tuples whose chains reached bound+1
    witness: Optional[object] = None  # ChainWitness for F verdicts
    reason: Optional[str] = None
    bound_clamped: bool = False  # delta(||R||) exceeded the reachable height


def _support_paths(trace: ChaseTrace, rules: RuleSet, bound: int) -> List[tuple]:
    """Rule paths reconstructed from derivation support chains of the atoms
    whose terms first reached bound+1."""
    inst = trace.final
    if inst is None:
        inst = trace.replay(rules)
    step_of: Dict[int, int] = {}
    breach_steps = []
    for i, step in enumerate(trace.steps, start=1):
        for a in step.added:
            if any(term_height(t) > bound for t in a.args):
                breach_steps.append(i)
                break
    paths: List[tuple] = []
    seen = set()
    for breach in breach_steps:
        support = set()
        frontier = [breach]
        while frontier:
            s = frontier.pop()
            if s in support or s == 0:
                continue
            support.add(s)
            step = trace.steps[s - 1]
            rule = rules.by_id[step.rule_id]
            h = dict(step.bindings)
            for a in body_image(rule, h):
                origin = inst.first_derived_at(a)
                if origin > 0 and origin not in support:
                    frontier.append(origin)
        path = tuple(trace.steps[s - 1].rule_id for s in sorted(support))
        if path and path not in seen:
            seen.add(path)
            paths.append(path)
    return paths


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
    reached and the clamp changes no verdict; `bound_clamped` reports it."""
    base_budget = budget or Budget(max_steps=20_000, max_atoms=50_000, wall_clock_s=60.0)
    limits = (base_budget.max_steps, base_budget.max_atoms, sys.maxsize)
    reach = 1 + min(b for b in limits if b is not None)
    bound = delta.at_most(rule_set_size(rs), reach)
    clamped = bound is None
    if clamped:
        bound = reach
    phase1_budget = Budget(
        max_steps=base_budget.max_steps,
        max_height=bound + 1,
        max_atoms=base_budget.max_atoms,
        wall_clock_s=base_budget.wall_clock_s,
        max_probes=base_budget.max_probes,
    )
    db = skolem_critical_db(rs)
    trace = skolem_chase(db, rs, budget=phase1_budget)
    if isinstance(trace.outcome, Saturated):
        return MembCheckResult(value=True, bound=bound, phase=1, bound_clamped=clamped)
    if isinstance(trace.outcome, BudgetExhausted) and trace.outcome.reason != "height":
        return MembCheckResult(
            value=None, bound=bound, phase=1, reason=trace.outcome.reason, bound_clamped=clamped
        )

    paths = _support_paths(trace, rs, bound)
    if not paths:
        return MembCheckResult(value=None, bound=bound, phase=2, reason="no support path")
    inconclusive = None
    for path_ids in paths:
        path = tuple(rs.by_id[rid] for rid in path_ids)
        verdict = is_path_active(path, budget=base_budget, min_height=bound + 1)
        if verdict.status is Status.ACTIVE:
            return MembCheckResult(
                value=False,
                bound=bound,
                phase=2,
                breach_paths=tuple(paths),
                witness=verdict.witness,
            )
        if verdict.status is Status.INCONCLUSIVE:
            inconclusive = verdict.reason
    if inconclusive is not None:
        return MembCheckResult(value=None, bound=bound, phase=2, reason=inconclusive)
    return MembCheckResult(value=True, bound=bound, phase=2, breach_paths=tuple(paths))


def multi_head_caveat(rs: RuleSet) -> Optional[str]:
    """Completeness caveat for F verdicts on multi-head rule sets."""
    if any(len(r.head) > 1 for r in rs.rules):
        return (
            "rule set has multi-atom heads: the bounded-membership test is "
            "sound but not complete (an F verdict may rest on sequences no "
            "fair strategy realizes)"
        )
    return None
