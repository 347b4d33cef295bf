"""Homomorphism search from conjunctions into instances, plus triggers.

The search backtracks over instance atoms per body atom, most-constrained
atom first, candidates in instance insertion order.  Enumeration order is
deterministic, so analyses are reproducible run to run.  Given
per-predicate counts of old atoms, the same search is semi-naive: it
yields, in that order, only the homomorphisms that use a newer atom, which
is how the skolem chase finds each round's triggers.  The chained search of
`activeness` has its own matcher, over the join steps below: derived atoms
first (`Instance.derived_first`), near misses recorded.

Each pattern atom is matched through its `ArgPlan` (see `model`), built
once per atom and kept on it: ground arguments are compared by identity,
and variables bind or compare by identity.  Patterns are
function-free (a rule's atoms, or ground atoms), so no term is walked; a
pattern with a skolem term over variables fails to compile.  A rule's
atoms are therefore compiled once per rule, not once per candidate;
`order_atoms` reads the plans' variable sets, and needs none for one or
two atoms.  Terms are interned (see `model`): equal terms are one
object, so a comparison is one `is` test.

A conjunction is also compiled whole, once per atom order, into *join
steps* (`join_steps`): each atom's constant slots, its bound slots (a
variable an earlier atom, or a trigger's frontier, binds), its free slots
(a variable's first occurrence) and its repeat slots (a later one).  A
step reads all its compared slots off a candidate with one
`operator.itemgetter` call and compares them with what it expects in one
comparison, so a candidate costs no Python-level call but its probe.  The
steps of a rule's body and head are kept on the rule per order
(`Rule.body_steps`, `Rule.head_steps`): a prototype that built them on
every call read the `generated` benchmark's `wall_s` 14 % higher.

The chase and the chained search test and apply a trigger per step, so
triggers take a short path.  `is_active_trigger` is a direct boolean
backtrack over the rule head under the trigger's bindings: the head
atoms in `order_atoms` order, candidates in insertion order, one probe
per candidate tested, and it returns at the first extension.  That is the
work `find_homomorphisms` does on the head with h substituted up to its
first yield, probe for probe, without a generator per call or a copied
binding per answer.  It runs the join steps of the ordered head, the
frontier bound, on one frame stack, and scans the last head atom in place
under each match of the one before, with no frame to enter and leave: on
the restricted chase's head tests that frame cost about 9 % when
measured.  It copies the trigger's bindings only once a head atom
matches and a later one must read what it bound.  A two-atom
head is put in order by comparing its two candidate counts, as
`order_atoms` would, so only a head of three or more calls it.  A Datalog
rule is active iff one of its instantiated head atoms is missing.  The
restricted chase hands it an `ArgIndex` of its growing instance, and a
head atom with a constant or a bound argument then tests only the atoms
that share it.  The chained search keeps the scan: it rolls its instance
back all the time, and an index kept in step with the rollbacks cost
more than it saved when measured (ROADMAP item 10).  `instantiate` fills
the variable slots of a function-free atom's plan, with no term walk.
`head_image` builds each existential's skolem term once per trigger and
fills every head atom from it.  `apply_trigger` adds them and returns only the
atoms it added, and a backtracking search retracts them by rolling the
instance back to its earlier length.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence

from .model import (
    ArgPlan,
    Atom,
    IndexedConstant,
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
        if args[i] is not t:
            return False
    for i, name in plan.slots:
        v = args[i]
        bound = binding.get(name)
        if bound is None:
            binding[name] = v
            trail.append(name)
        elif bound is not v:
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


class JoinStep:
    """One pattern atom of a conjunction, compiled for one atom order.

    Its slots split four ways.  A *constant* slot holds a ground term.  A
    *bound* slot holds a variable that an earlier atom of the order (or,
    in a head, the trigger's frontier) binds.  A *free* slot is the first
    occurrence of a new variable, and a *repeat* slot a later occurrence
    of one.  `positions` lists the constant slots, then the bound ones,
    each in position order, and `get` reads them off a candidate's
    arguments in one call; `expect` gives the values they must hold under
    a binding.  `free` holds the (position, name) of each free slot, and
    `repeats` a pair of getters whose results agree iff every repeat slot
    holds what its first occurrence holds.  A `flat` atom is all free
    slots, so its binding is `dict(zip(names, args))`.  `proposes` says
    whether a failed candidate can be a near miss (see `critdb`): only a
    bound slot or an indexed constant can differ by an indexed constant."""

    __slots__ = ("at", "pred", "arity", "positions", "get", "free", "names", "flat", "repeats",
                 "proposes", "lookup", "want")

    def __init__(self, pattern: Atom, at: int, known: Collection[str]):
        plan = pattern.plan
        self.at, self.pred, self.arity = at, pattern.pred, len(pattern.args)
        positions, consts, bound, free, repeats, firsts = [], [], [], [], [], []
        proposes = False  # a failed candidate can be a near miss
        for i, t in plan.consts:
            positions.append(i)
            consts.append(t)
            proposes = proposes or t.__class__ is IndexedConstant
        first: dict = {}
        for i, name in plan.slots:
            if name in known:
                positions.append(i)
                bound.append(name)
            elif name in first:
                repeats.append(i)
                firsts.append(first[name])
            else:
                first[name] = i
                free.append((i, name))
        consts = tuple(consts)
        self.positions, self.free, self.names = tuple(positions), tuple(free), tuple(first)
        self.get = itemgetter(*positions) if positions else None
        self.flat = len(free) == self.arity
        self.repeats = (itemgetter(*repeats), itemgetter(*firsts)) if repeats else None
        self.proposes = proposes or bool(bound)
        self.want = consts[0] if len(consts) == 1 else consts
        if not bound:
            self.lookup = None
        elif not consts:
            self.lookup = itemgetter(*bound)
        else:
            self.lookup = partial(_after_consts, consts, itemgetter(*bound), len(bound) == 1)

    def expect(self, binding: Mapping[str, Term]):
        """What `get` must return for a candidate to match under `binding`:
        the term its one compared slot must hold, or the tuple of those of
        its compared slots, in `positions` order.  `want` is that answer
        for a step with no bound slot, and otherwise `lookup` reads it off
        the binding, in one `itemgetter` call when the step has no
        constant slot."""
        return self.want if self.lookup is None else self.lookup(binding)


def _after_consts(
    consts: tuple, lookup: Callable, single: bool, binding: Mapping[str, Term]
) -> tuple:
    """What a step with constant and bound slots expects: its constants,
    then the values `lookup` reads off the binding (one value if `single`)."""
    found = lookup(binding)
    return consts + ((found,) if single else found)


def join_steps(conj: Sequence[Atom], order: Sequence[int], bound: Collection[str] = ()) -> tuple:
    """The atoms of `conj` in `order`, each compiled as a `JoinStep`; the
    variables in `bound` are bound before the first."""
    known = set(bound)
    steps = []
    for at in order:
        step = JoinStep(conj[at], at, known)
        known.update(step.names)
        steps.append(step)
    return tuple(steps)


class ArgIndex:
    """The atoms of a growing instance by (predicate, argument position,
    term), each list in insertion order.

    A predicate's atoms are indexed when it is first asked for, and then
    fed from the tail of its `Instance.by_pred` list on each later ask, so
    the index follows an instance that only grows; a rollback would leave
    it stale.  `candidates` gives the atoms that share a step's rarest
    compared argument, a subsequence of the predicate's atoms."""

    __slots__ = ("inst", "_fed", "_positions")

    def __init__(self, inst: Instance):
        self.inst = inst
        self._fed: dict = {}  # predicate -> how many of its atoms are indexed
        self._positions: dict = {}  # predicate -> per position, term -> atoms

    def candidates(self, step: JoinStep, want) -> Sequence[Atom]:
        """The instance atoms of the step's predicate that hold, at one of
        its compared positions (constant or bound), the value `vals` gives
        there: those of the position with the fewest, the first such on a
        tie, or all of them if the step compares nothing."""
        pred = step.pred
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
        for i, t in zip(step.positions, want if len(step.positions) > 1 else (want,)):
            found = positions[i].get(t, ()) if i < len(positions) else ()
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
    first yield.  A two-atom head takes the size comparison `order_atoms`
    makes for two atoms, so only a head of three or more calls it.  The
    ordered head runs as the rule's join steps for that order
    (`Rule.head_steps`), the frontier bound.  Given an `ArgIndex` of
    `inst`, each head atom tests only the atoms its `candidates` gives,
    still one probe per candidate, and the answer is the same."""
    head = rule.head
    if rule.is_datalog:
        for a in head:
            if instantiate(a, h) not in inst:
                return True
        return False
    if len(head) == 1:
        order: tuple = (0,)
    elif len(head) == 2:
        first, second = head
        order = (1, 0) if len(inst.by_pred(first.pred)) > len(inst.by_pred(second.pred)) else (0, 1)
    else:
        order = tuple(order_atoms(head, inst, h))
    steps = rule.head_steps.get(order)
    if steps is None:
        steps = rule.head_steps[order] = join_steps(head, order, rule.frontier)
    last = len(steps) - 1
    binding = h  # copied before the first atom matched binds its variables
    step = steps[0]
    want = step.expect(h)
    scan = iter(index.candidates(step, want) if index else inst.by_pred(step.pred))
    stack: list = []  # (step, want, scan) of each depth above this one
    while True:
        get, arity, repeats = step.get, step.arity, step.repeats
        for cand in scan:
            if probe is not None:
                probe()
            args = cand.args
            if not (
                len(args) == arity
                and (get is None or get(args) == want)
                and (repeats is None or repeats[0](args) == repeats[1](args))
            ):
                continue
            depth = len(stack)
            if depth == last:
                return False
            if binding is h:
                binding = dict(h)
            for i, name in step.free:
                binding[name] = args[i]
            below = steps[depth + 1]
            below_want = below.expect(binding)
            below_scan = index.candidates(below, below_want) if index else inst.by_pred(below.pred)
            if depth + 1 < last:
                stack.append((step, want, scan))
                step, want, scan = below, below_want, iter(below_scan)
                break
            # the last atom is scanned in place: no frame to enter and leave
            get_, arity_, repeats_ = below.get, below.arity, below.repeats
            for other in below_scan:
                if probe is not None:
                    probe()
                args = other.args
                if (
                    len(args) == arity_
                    and (get_ is None or get_(args) == below_want)
                    and (repeats_ is None or repeats_[0](args) == repeats_[1](args))
                ):
                    return False
        else:
            if not stack:
                return True
            step, want, scan = stack.pop()


def instantiate(a: Atom, binding: Mapping[str, Term]) -> Atom:
    """The function-free atom `a` with each variable replaced by its value
    in `binding`, which must bind them all."""
    args = list(a.args)
    for i, name in a.plan.slots:
        args[i] = binding[name]
    return Atom(a.pred, tuple(args))


def head_image(rule: Rule, h: Mapping[str, Term]) -> list:
    """h(sk(head)), the ground head atoms of a trigger.  Each existential's
    skolem term is built once.  They depend on h only through the
    frontier."""
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
