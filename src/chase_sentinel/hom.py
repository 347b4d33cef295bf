"""Homomorphism search from conjunctions into instances, plus triggers.

The search backtracks over instance atoms per body atom, most-constrained
atom first, candidates in instance insertion order (derived atoms first
when asked).  Enumeration order is deterministic, so analyses are
reproducible run to run.

Each pattern atom is matched through its `ArgPlan` (see `model`), built
once per atom and kept on it: ground arguments are compared by cached
hash and then equality, variables bind or compare, and only non-ground
skolem terms are walked.  A rule's atoms are therefore compiled once per
rule, not once per candidate; `order_atoms` reads the plans' variable sets.
`is_active_trigger` matches the rule head itself under the trigger's
bindings, so heads are compiled once per rule too.  Terms are not interned
(see `model`), so equal terms may be distinct objects: a comparison tries
identity, then the cached hashes, then equality.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence

from .model import (
    ArgPlan,
    Atom,
    Instance,
    Rule,
    SkolemTerm,
    apply_atom,
)


class BudgetExceeded(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def match_args(plan: ArgPlan, args: tuple, binding: dict, trail: list) -> bool:
    """Extend `binding` so that the pattern of `plan` maps onto the ground
    `args`; newly bound variable names go on `trail`, which the caller
    unwinds on failure as well as on backtracking."""
    for i, t in plan.consts:
        v = args[i]
        if v is not t and (v._hash != t._hash or not v == t):
            return False
    for i, name in plan.slots:
        v = args[i]
        bound = binding.get(name)
        if bound is None:
            binding[name] = v
            trail.append(name)
        elif bound is not v and (bound._hash != v._hash or not bound == v):
            return False
    for i, fn, arity, sub in plan.nested:
        v = args[i]
        if (
            v.__class__ is not SkolemTerm
            or v.fn != fn
            or len(v.args) != arity
            or not match_args(sub, v.args, binding, trail)
        ):
            return False
    return True


def order_atoms(conj: Sequence[Atom], inst: Instance, bound: Collection[str] = ()) -> list:
    """Most-constrained-first: fewest candidate atoms, preferring atoms that
    share variables with ones already placed.  Variables in `bound` are
    already fixed and count as constants."""
    free = [a.plan.vars.difference(bound) if bound else a.plan.vars for a in conj]
    remaining = list(range(len(conj)))
    placed_vars: set = set()
    order = []
    while remaining:
        best = None
        best_key = None
        for idx in remaining:
            key = (-len(free[idx] & placed_vars), len(inst.by_pred(conj[idx].pred)), idx)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        order.append(best)
        placed_vars |= free[best]
        remaining.remove(best)
    return order


def find_homomorphisms(
    conj: Sequence[Atom],
    inst: Instance,
    derived_first: bool = False,
    probe: Optional[Callable[[], None]] = None,
    on_miss: Optional[Callable[[Atom, dict, Atom], None]] = None,
    binding: Optional[Mapping] = None,
) -> Iterator[dict]:
    """All extensions h of `binding` (default empty) over vars(conj) with
    h(conj) contained in inst, each exactly once, in deterministic order.

    `probe` is charged once per candidate test.  `on_miss(pattern, binding,
    candidate)` sees every candidate that failed to match, with the
    bindings made before that pattern; the dict is live, so read it during
    the call only.
    """
    binding = dict(binding) if binding else {}
    if not conj:
        yield dict(binding)
        return
    order = order_atoms(conj, inst, binding.keys())
    patterns = [conj[i] for i in order]
    last = len(patterns) - 1

    def search(depth: int) -> Iterator[dict]:
        pattern = patterns[depth]
        plan = pattern.plan
        arity = len(pattern.args)
        if derived_first:
            candidates = chain(
                inst.derived_by_pred(pattern.pred), inst.database_by_pred(pattern.pred)
            )
        else:
            candidates = inst.by_pred(pattern.pred)
        for cand in candidates:
            if probe is not None:
                probe()
            trail: list = []
            if len(cand.args) == arity and match_args(plan, cand.args, binding, trail):
                if depth == last:
                    yield dict(binding)
                else:
                    yield from search(depth + 1)
                for name in trail:
                    del binding[name]
                continue
            for name in trail:
                del binding[name]
            if on_miss is not None:
                on_miss(pattern, binding, cand)

    yield from search(0)


def freeze_bindings(h: dict) -> tuple:
    return tuple(sorted(h.items()))


def is_active_trigger(
    rule: Rule,
    h: dict,
    inst: Instance,
    probe: Optional[Callable[[], None]] = None,
) -> bool:
    """True iff no extension of h over the existentials maps the head into
    the instance. Datalog rules: active iff some head atom is missing."""
    if rule.is_datalog:
        return any(apply_atom(h, a) not in inst for a in rule.head)
    for _ext in find_homomorphisms(rule.head, inst, probe=probe, binding=h):
        return False
    return True


def apply_trigger(rule: Rule, h: dict, inst: Instance, step: int) -> list:
    """Add h(sk(head)) at `step`; returns (added atoms, undo records)."""
    undos = []
    added = []
    for a in rule.skolem_head:
        ground = apply_atom(h, a)
        rec = inst.add(ground, step)
        if rec is not None:
            undos.append(rec)
            added.append(ground)
    return [added, undos]


def body_image(rule: Rule, h: dict) -> list:
    return [apply_atom(h, a) for a in rule.body]
