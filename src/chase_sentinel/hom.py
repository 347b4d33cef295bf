"""Homomorphism search from conjunctions into instances, plus triggers.

The search backtracks over instance atoms per body atom, most-constrained
atom first, candidates in instance insertion order.  Enumeration order is
deterministic, so analyses are reproducible run to run.  Given
per-predicate counts of old atoms, the same search is semi-naive: it
yields, in that order, only the homomorphisms that use a newer atom, which
is how the skolem chase finds each round's triggers.  The chained search of
`activeness` has its own matcher over the same parts (`order_atoms`,
`match_args`): derived atoms first, near misses recorded, database matches
memoized.

Each pattern atom is matched through its `ArgPlan` (see `model`), built
once per atom and kept on it: ground arguments are compared by cached
hash and then equality, and variables bind or compare.  Patterns are
function-free (a rule's atoms, or ground atoms), so no term is walked; a
pattern with a skolem term over variables fails to compile.  A rule's
atoms are therefore compiled once per rule, not once per candidate;
`order_atoms` reads the plans' variable sets, and needs none for one or
two atoms.  Terms are not interned (see `model`), so equal terms may be
distinct objects: a comparison tries identity, then the cached hashes,
then equality.

The chase and the chained search test and apply a trigger per step, so
triggers take a short path.  `is_active_trigger` is a direct boolean
backtrack over the rule head under the trigger's bindings: the head
atoms in `order_atoms` order, candidates in insertion order, one probe
per candidate tested, and it returns at the first extension.  That is the
work `find_homomorphisms` does on the head with h substituted up to its
first yield, probe for probe, without a generator per call or a copied
binding per answer.  A Datalog rule is active iff one of its instantiated
head atoms is missing.  The restricted chase hands it an `ArgIndex` of
its growing instance, and a head atom with a constant or a bound argument
then tests only the atoms that share it.  The chained search keeps the
scan: it rolls its instance back all the time, and an index kept in step
with the rollbacks cost more than it saved when measured (ROADMAP item
10).  `instantiate` fills the variable slots of a function-free atom's
plan, with no term walk.
`head_image` builds each existential's skolem term once per trigger and
fills every head atom from it, so the atoms of one trigger share one null
object per existential.  `apply_trigger` adds them and returns only the
atoms it added, and a backtracking search retracts them by rolling the
instance back to its earlier length.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence

from .model import (
    ArgPlan,
    Atom,
    Instance,
    Rule,
    SkolemTerm,
    Term,
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
    already fixed and count as constants.  The first pick has no placed
    variables to share, so it goes by size alone: two atoms need no
    variable sets."""
    sizes = [len(inst.by_pred(a.pred)) for a in conj]
    if len(conj) == 2:
        return [0, 1] if sizes[0] <= sizes[1] else [1, 0]
    free = [a.plan.vars.difference(bound) if bound else a.plan.vars for a in conj]
    remaining = list(range(len(conj)))
    placed_vars: set = set()
    order = []
    while remaining:
        best = None
        best_key = None
        for idx in remaining:
            key = (-len(free[idx] & placed_vars), sizes[idx], idx)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        order.append(best)
        placed_vars |= free[best]
        remaining.remove(best)
    return order


def find_homomorphisms(
    conj: Sequence[Atom],
    inst: Instance,
    probe: Optional[Callable[[], None]] = None,
    since: Optional[Mapping[str, int]] = None,
) -> Iterator[dict]:
    """All h over vars(conj) with h(conj) contained in inst, each exactly
    once, in deterministic order.  `probe` is charged once per candidate
    test.

    `since` makes the search semi-naive.  It maps a predicate to the number
    of its atoms that are old (a predicate it does not name has none); as
    `Instance.by_pred` lists are in insertion order, the new atoms are the
    suffix after that many.  The search then yields exactly the extensions
    whose image uses at least one new atom, in the order the full
    enumeration yields them, and skips what cannot lead to one: while no
    earlier depth has matched a new atom, a depth whose later patterns have
    no new atoms scans only its new suffix.  Once a new atom is matched,
    the deeper depths run the full search and every leaf reached is
    yielded.  The instance must not change while it runs.
    """
    binding: dict = {}
    if not conj:
        if since is None:
            yield {}
        return
    if len(conj) == 1:
        patterns = conj
    else:
        patterns = [conj[i] for i in order_atoms(conj, inst)]
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

    yield from search(0, since is None)


def freeze_bindings(h: dict) -> tuple:
    return tuple(sorted(h.items()))


class ArgIndex:
    """The atoms of a growing instance by (predicate, argument position,
    term), each list in insertion order.

    A predicate's atoms are indexed when it is first asked for, and then
    fed from the tail of its `Instance.by_pred` list on each later ask, so
    the index follows an instance that only grows; a rollback would leave
    it stale.  `candidates` gives the atoms that share a pattern's rarest
    bound argument, a subsequence of the predicate's atoms."""

    __slots__ = ("inst", "_fed", "_positions")

    def __init__(self, inst: Instance):
        self.inst = inst
        self._fed: dict = {}  # predicate -> how many of its atoms are indexed
        self._positions: dict = {}  # predicate -> per position, term -> atoms

    def candidates(self, pattern: Atom, binding: Mapping[str, Term]) -> Sequence[Atom]:
        """The instance atoms of the pattern's predicate that hold, at one
        position, the pattern's constant or bound variable there: those of
        the position with the fewest, or all of them if nothing is bound."""
        pred = pattern.pred
        atoms = self.inst.by_pred(pred)
        positions = self._positions.setdefault(pred, [])
        fed = self._fed.get(pred, 0)
        if fed < len(atoms):
            for a in atoms[fed:]:
                args = a.args
                while len(positions) < len(args):
                    positions.append({})
                for i, t in enumerate(args):
                    positions[i].setdefault(t, []).append(a)
            self._fed[pred] = len(atoms)
        best = atoms
        plan = pattern.plan
        for i, t in plan.consts:
            found = positions[i].get(t, ()) if i < len(positions) else ()
            if len(found) < len(best):
                best = found
        for i, name in plan.slots:
            v = binding.get(name)
            if v is not None:
                found = positions[i].get(v, ()) if i < len(positions) else ()
                if len(found) < len(best):
                    best = found
        return best


def is_active_trigger(
    rule: Rule,
    h: dict,
    inst: Instance,
    probe: Optional[Callable[[], None]] = None,
    index: Optional[ArgIndex] = None,
) -> bool:
    """True iff no extension of h over the existentials maps the head into
    the instance. Datalog rules: active iff some head atom is missing.

    The head atoms are tried in `order_atoms` order under h, candidates in
    insertion order, charging `probe` once per candidate tested, and the
    test stops at the first extension: the candidates and probes are those
    of `find_homomorphisms` on the head atoms with h substituted, up to its
    first yield.  Given an `ArgIndex` of `inst`, each head atom tests only
    the atoms its `candidates` gives, still one probe per candidate, and
    the answer is the same."""
    head = rule.head
    if rule.is_datalog:
        for a in head:
            if instantiate(a, h) not in inst:
                return True
        return False
    if len(head) > 1:
        head = [head[i] for i in order_atoms(head, inst, h)]
    return not _extends(head, 0, dict(h), inst, probe, index)


def _extends(
    patterns: Sequence[Atom],
    depth: int,
    binding: dict,
    inst: Instance,
    probe: Optional[Callable[[], None]],
    index: Optional[ArgIndex],
) -> bool:
    """Some extension of `binding` maps patterns[depth:] into the
    instance.  Bindings made on the way to a True answer are left in
    `binding`."""
    pattern = patterns[depth]
    plan = pattern.plan
    arity = len(pattern.args)
    deeper = depth + 1 < len(patterns)
    trail: list = []
    if index is None:
        candidates = inst.by_pred(pattern.pred)
    else:
        candidates = index.candidates(pattern, binding)
    for cand in candidates:
        if probe is not None:
            probe()
        if len(cand.args) == arity and match_args(plan, cand.args, binding, trail):
            if not deeper or _extends(patterns, depth + 1, binding, inst, probe, index):
                return True
        if trail:
            for name in trail:
                del binding[name]
            trail.clear()
    return False


def instantiate(a: Atom, binding: Mapping[str, Term]) -> Atom:
    """The function-free atom `a` with each variable replaced by its value
    in `binding`, which must bind them all."""
    args = list(a.args)
    for i, name in a.plan.slots:
        args[i] = binding[name]
    return Atom(a.pred, tuple(args))


def head_image(rule: Rule, h: Mapping[str, Term]) -> list:
    """h(sk(head)), the ground head atoms of a trigger.  Each existential's
    skolem term is built once, so the atoms share one null object per
    existential.  They depend on h only through the frontier."""
    env = h
    if rule.skolem_functions:
        env = dict(h)
        frontier = tuple([h[v] for v in rule.frontier])
        for z, fn in rule.skolem_functions:
            env[z] = SkolemTerm(fn, frontier)
    return [instantiate(a, env) for a in rule.head]


def apply_trigger(rule: Rule, h: dict, inst: Instance, step: int) -> list:
    """Add h(sk(head)) at `step`; returns the atoms that were new.  To undo
    it, roll `inst` back to its length before the call."""
    return [a for a in head_image(rule, h) if inst.add(a, step)]


def body_image(rule: Rule, h: Mapping[str, Term]) -> list:
    return [instantiate(a, h) for a in rule.body]


def consumed_steps(rule: Rule, h: Mapping[str, Term], inst: Instance) -> frozenset:
    """The steps that first derived the atoms of the trigger's body image
    (0 for a database atom).  An atom's first step never changes once it
    is in `inst`, so the set is the same before and after later steps."""
    return frozenset(map(inst.first_derived_at, body_image(rule, h)))
