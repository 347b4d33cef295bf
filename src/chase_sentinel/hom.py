"""Homomorphism search from conjunctions into instances, plus triggers.

The search backtracks over instance atoms per body atom, most-constrained
atom first, candidates in instance insertion order (derived atoms first
when asked).  Enumeration order is deterministic, so analyses are
reproducible run to run.  Given per-predicate counts of old atoms, the same
search is semi-naive: it yields, in that order, only the homomorphisms that
use a newer atom, which is how the skolem chase finds each round's triggers.

Each pattern atom is matched through its `ArgPlan` (see `model`), built
once per atom and kept on it: ground arguments are compared by cached
hash and then equality, and variables bind or compare.  Patterns are
function-free (a rule's atoms, or ground atoms), so no term is walked; a
pattern with a skolem term over variables fails to compile.  A rule's
atoms are therefore compiled once per rule, not once per candidate;
`order_atoms` reads the plans' variable sets.
`is_active_trigger` matches the rule head itself under the trigger's
bindings, so heads are compiled once per rule too.  `apply_trigger` returns
only the atoms it added; a backtracking search retracts them by rolling
the instance back to its earlier length.  Terms are not interned
(see `model`), so equal terms may be distinct objects: a comparison tries
identity, then the cached hashes, then equality.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence

from .model import (
    ArgPlan,
    Atom,
    Instance,
    Rule,
    apply_atom,
)


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
    since: Optional[Mapping[str, int]] = None,
) -> Iterator[dict]:
    """All extensions h of `binding` (default empty) over vars(conj) with
    h(conj) contained in inst, each exactly once, in deterministic order.

    `probe` is charged once per candidate test.  `on_miss(pattern, binding,
    candidate)` sees every candidate that failed to match, with the
    bindings made before that pattern; the dict is live, so read it during
    the call only.

    `since` makes the search semi-naive.  It maps a predicate to the number
    of its atoms that are old (a predicate it does not name has none); as
    `Instance.by_pred` lists are in insertion order, the new atoms are the
    suffix after that many.  The search then yields exactly the extensions
    whose image uses at least one new atom, in the order the full
    enumeration yields them, and skips what cannot lead to one: while no
    earlier depth has matched a new atom, a depth whose later patterns have
    no new atoms scans only its new suffix.  Once a new atom is matched,
    the deeper depths run the full search and every leaf reached is
    yielded.  It relies on insertion order, so it does not combine with
    `derived_first`, and the instance must not change while it runs.
    """
    binding = dict(binding) if binding else {}
    if not conj:
        if since is None:
            yield dict(binding)
        return
    order = order_atoms(conj, inst, binding.keys())
    patterns = [conj[i] for i in order]
    last = len(patterns) - 1

    if since is not None:
        # new_after[d]: some pattern after depth d has a new candidate atom
        new_after = [False] * len(patterns)
        for d in range(last, 0, -1):
            pred = patterns[d].pred
            new_after[d - 1] = new_after[d] or len(inst.by_pred(pred)) > since.get(pred, 0)

    # `fresh`: an earlier depth matched a new atom (always, without `since`);
    # `candidates`: the part of this depth's candidates to scan, if not all
    def search(depth: int, fresh: bool, candidates=None) -> Iterator[dict]:
        pattern = patterns[depth]
        if candidates is None:
            if derived_first:
                candidates = chain(
                    inst.derived_by_pred(pattern.pred), inst.database_by_pred(pattern.pred)
                )
            else:
                candidates = inst.by_pred(pattern.pred)
            if not fresh:
                # semi-naive, no new atom matched yet: old candidates lead
                # to a yield only through a later new atom
                old = since.get(pattern.pred, 0)
                if new_after[depth]:
                    yield from search(depth, False, islice(candidates, old))
                yield from search(depth, True, candidates[old:])
                return
        plan = pattern.plan
        arity = len(pattern.args)
        for cand in candidates:
            if probe is not None:
                probe()
            trail: list = []
            if len(cand.args) == arity and match_args(plan, cand.args, binding, trail):
                if depth == last:
                    yield dict(binding)
                else:
                    yield from search(depth + 1, fresh)
                for name in trail:
                    del binding[name]
                continue
            for name in trail:
                del binding[name]
            if on_miss is not None:
                on_miss(pattern, binding, cand)

    yield from search(0, since is None)


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
    """Add h(sk(head)) at `step`; returns the atoms that were new.  To undo
    it, roll `inst` back to its length before the call."""
    added = []
    for a in rule.skolem_head:
        ground = apply_atom(h, a)
        if inst.add(ground, step):
            added.append(ground)
    return added


def body_image(rule: Rule, h: dict) -> list:
    return [apply_atom(h, a) for a in rule.body]
