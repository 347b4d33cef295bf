"""Reference oracles for the tests, by brute-force enumeration: every
restricted chase sequence, the length of the longest one, the activeness
of a path under every renaming of its critical database, every
piece-unifier of a rule pair, and the dependency of two rules with respect
to one instance.  Also the term-walking homomorphism search that the
compiled match path of `chase_sentinel.hom` replaced, and the rescanning
chase policies that the semi-naive skolem rounds and the dead-trigger memo
of `chase_sentinel.chase` replaced, as differential references.

They are slow and meant for small inputs only; the library's own chase runs
live in `chase_sentinel.chase`, its demand-driven renaming search in
`chase_sentinel.activeness`, and its lazy single-piece unifier search in
`chase_sentinel.deps`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from chase_sentinel.activeness import Status, is_active_wrt
from chase_sentinel.chase import (
    Budget,
    BudgetExceeded,
    BudgetExhausted,
    ChaseTrace,
    Meter,
    Outcome,
    Saturated,
    TraceStep,
    _run,
)
from chase_sentinel.critdb import all_renamings, apply_renaming, restricted_critical_db
from chase_sentinel.hom import (
    apply_trigger,
    find_homomorphisms,
    freeze_bindings,
    is_active_trigger,
)
from chase_sentinel.deps import (
    PieceUnifier,
    _rename_apart,
    _subst_from_classes,
    _unify_atom_pair,
    _UnionFind,
)
from chase_sentinel.model import (
    Atom,
    IndexedConstant,
    Instance,
    Rule,
    RuleSet,
    SkolemTerm,
    Term,
    Variable,
    apply_atom,
)


def instance_terms(inst: Instance) -> list:
    """Top-level argument terms of an instance, in first-occurrence order."""
    return list(dict.fromkeys(t for a in inst.atoms() for t in a.args))


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
            size = len(inst)
            added = apply_trigger(rule, h, inst, depth + 1)
            steps.append(TraceStep(rule.id, freeze_bindings(h), tuple(added)))
            explore(inst, depth + 1)
            steps.pop()
            inst.rollback(size)

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
        key = frozenset(inst.atoms())
        if key in memo:
            return memo[key]
        if depth > cap:
            return None
        options = _admissible(active_triggers(rules, inst), datalog_first)
        best = 0
        for rule, h in options:
            size = len(inst)
            apply_trigger(rule, h, inst, depth + 1)
            sub = longest(inst, depth + 1)
            inst.rollback(size)
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


def piece_unifiers_brute_force(r1: Rule, r2: Rule) -> Iterator[PieceUnifier]:
    """Every piece-unifier of body(r2) with head(r1), uncapped: each nonempty
    body subset B and head subset H, each covering of B x H by atom pairs
    of one predicate, kept when its most general unifier meets the
    existential condition.  Exponential in the rule sizes."""
    r1 = _rename_apart(r1, r2)
    body, head = r2.body, r1.head
    for bsize in range(1, len(body) + 1):
        for B in itertools.combinations(range(len(body)), bsize):
            for hsize in range(1, len(head) + 1):
                for H in itertools.combinations(range(len(head)), hsize):
                    grid = [(b, h) for b in B for h in H if body[b].pred == head[h].pred]
                    if {b for b, _ in grid} != set(B) or {h for _, h in grid} != set(H):
                        continue
                    # more pairs than |B| + |H| only specialise a smaller covering
                    for size in range(max(len(B), len(H)), min(len(grid), len(B) + len(H)) + 1):
                        for pairs in itertools.combinations(grid, size):
                            if {b for b, _ in pairs} != set(B) or {h for _, h in pairs} != set(H):
                                continue
                            uf = _UnionFind()
                            if not all(_unify_atom_pair(uf, body[b], head[h]) for b, h in pairs):
                                continue
                            classes = uf.classes()
                            if not _existential_condition(classes, r1, body, B):
                                continue
                            yield PieceUnifier(
                                body_subset=tuple(body[b] for b in B),
                                head_subset=tuple(head[h] for h in H),
                                subst=tuple(sorted(_subst_from_classes(classes).items())),
                            )


def _existential_condition(classes: dict, r1: Rule, body: tuple, B: tuple) -> bool:
    """Existential head variables unify only with body variables of B that
    do not occur in the rest of the body."""

    def variables(atoms) -> set:
        return {t.name for a in atoms for t in a.args if isinstance(t, Variable)}

    b_vars = variables(body[i] for i in B)
    rest_vars = variables(body[i] for i in range(len(body)) if i not in B)
    for members in classes.values():
        ex = [m for m in members if isinstance(m, Variable) and m.name in r1.existentials]
        if not ex:
            continue
        if len(ex) > 1:
            return False
        for m in members:
            if m in ex:
                continue
            if not isinstance(m, Variable) or m.name not in b_vars or m.name in rest_vars:
                return False
    return True


def depends_on_brute_force(r2: Rule, r1: Rule) -> bool:
    """Whether some brute-force piece-unifier of body(r2) with head(r1) is
    atom-erasing and productive."""
    r1 = _rename_apart(r1, r2)
    for pu in piece_unifiers_brute_force(r1, r2):
        theta = pu.mapping()

        def image(atoms) -> frozenset:
            return frozenset(apply_atom(theta, a) for a in atoms)

        body1, body2 = image(r1.body), image(r2.body)
        if not body2 <= body1 and not image(r2.head) <= body1 | image(r1.head) | body2:
            return True
    return False


def depends_on_wrt(r2: Rule, r1: Rule, inst: Instance) -> bool:
    """Instance-relative dependency: some application of r1 on `inst` derives
    an atom that a fresh body match of r2 actually uses."""
    for h in find_homomorphisms(r1.body, inst):
        scratch = inst.copy()
        apply_trigger(r1, h, scratch, step=1)
        for g in find_homomorphisms(r2.body, scratch):
            if any(apply_atom(g, a) not in inst for a in r2.body):
                return True
    return False


# ---------------------------------------------------------------------------
# The homomorphism search as it was before argument plans: it walks pattern
# terms per candidate, recomputes the atom order from the terms on every
# call, and partitions candidates by first_derived_at for derived_first.


def match_term(pattern: Term, value: Term, binding: dict, trail: list) -> bool:
    if isinstance(pattern, Variable):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = value
            trail.append(pattern.name)
            return True
        return bound == value
    if isinstance(pattern, SkolemTerm):
        return (
            isinstance(value, SkolemTerm)
            and value.fn == pattern.fn
            and len(value.args) == len(pattern.args)
            and all(match_term(p, v, binding, trail) for p, v in zip(pattern.args, value.args))
        )
    return pattern == value


def match_atom(pattern: Atom, value: Atom, binding: dict) -> Optional[list]:
    if pattern.pred != value.pred or len(pattern.args) != len(value.args):
        return None
    trail: list = []
    for p, v in zip(pattern.args, value.args):
        if not match_term(p, v, binding, trail):
            for name in trail:
                del binding[name]
            return None
    return trail


def _atom_vars(a: Atom) -> frozenset:
    out = set()

    def walk(t: Term) -> None:
        if isinstance(t, Variable):
            out.add(t.name)
        elif isinstance(t, SkolemTerm):
            for s in t.args:
                walk(s)

    for t in a.args:
        walk(t)
    return frozenset(out)


def order_atoms_reference(conj: Sequence[Atom], inst: Instance) -> list:
    remaining = list(range(len(conj)))
    placed_vars: set = set()
    order = []
    while remaining:
        best = None
        best_key = None
        for idx in remaining:
            a = conj[idx]
            overlap = len(_atom_vars(a) & placed_vars)
            key = (-overlap, len(inst.by_pred(a.pred)), idx)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        order.append(best)
        placed_vars |= _atom_vars(conj[best])
        remaining.remove(best)
    return order


def _candidates_reference(inst: Instance, pred: str, derived_first: bool) -> Sequence[Atom]:
    atoms = inst.by_pred(pred)
    if not derived_first:
        return atoms
    derived = [a for a in atoms if inst.first_derived_at(a) > 0]
    database = [a for a in atoms if inst.first_derived_at(a) == 0]
    return derived + database


def find_homomorphisms_reference(
    conj: Sequence[Atom],
    inst: Instance,
    derived_first: bool = False,
    probe: Optional[Callable[[], None]] = None,
    on_miss: Optional[Callable[[Atom, Atom], None]] = None,
) -> Iterator[dict]:
    """`on_miss` sees (substituted pattern, candidate) per failed test."""
    if not conj:
        yield {}
        return
    order = order_atoms_reference(conj, inst)
    binding: dict = {}

    def search(depth: int) -> Iterator[dict]:
        if depth == len(order):
            yield dict(binding)
            return
        pattern = conj[order[depth]]
        for cand in _candidates_reference(inst, pattern.pred, derived_first):
            if probe is not None:
                probe()
            trail = match_atom(pattern, cand, binding)
            if trail is None:
                if on_miss is not None:
                    on_miss(apply_atom(binding, pattern), cand)
                continue
            yield from search(depth + 1)
            for name in trail:
                del binding[name]

    yield from search(0)


def near_miss_pairs_reference(pattern: Atom, candidate: Atom) -> Optional[frozenset]:
    """The (required, found) indexed-constant pairs of a near miss, given
    the substituted pattern; None when another difference rules it out."""
    pairs = []
    for p, c in zip(pattern.args, candidate.args):
        if isinstance(p, IndexedConstant) and isinstance(c, IndexedConstant):
            if p != c:
                pairs.append((p, c))
        elif p != c and not isinstance(p, Variable):
            return None
    return frozenset(pairs) if pairs else None


def is_active_trigger_reference(
    rule: Rule, h: dict, inst: Instance, probe: Optional[Callable[[], None]] = None
) -> bool:
    partial = [apply_atom(h, a) for a in rule.head]
    if rule.is_datalog:
        return any(a not in inst for a in partial)
    for _ext in find_homomorphisms_reference(partial, inst, probe=probe):
        return False
    return True


def skolem_chase_rescanning(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    budget: Optional[Budget] = None,
    detect_cyclic_terms: bool = False,
) -> ChaseTrace:
    """`skolem_chase` by full rescans: every round matches every body
    against the whole instance and drops the triggers applied before."""
    applied: set = set()

    def round_of_triggers(inst: Instance, probe: Callable[[], None]) -> list:
        pending = []
        for rule in rules:
            for h in find_homomorphisms(rule.body, inst, probe=probe):
                key = (rule.id, freeze_bindings(h))
                if key not in applied:
                    applied.add(key)
                    pending.append((rule, h))
        return pending

    return _run(database, budget, round_of_triggers, detect_cyclic_terms)


def greedy_restricted_rescanning(
    database: Union[Instance, Iterable[Atom]],
    rules: RuleSet,
    budget: Optional[Budget] = None,
    datalog_first: bool = False,
) -> ChaseTrace:
    """`greedy_restricted` without its memo: every step tests the
    activeness of every trigger again, from the first rule on."""
    order = list(rules)
    if datalog_first:
        order = [r for r in order if r.is_datalog] + [r for r in order if not r.is_datalog]

    def first_active(inst: Instance, probe: Callable[[], None]) -> list:
        for rule in order:
            for h in find_homomorphisms(rule.body, inst, probe=probe):
                if is_active_trigger(rule, h, inst, probe=probe):
                    return [(rule, h)]
        return []

    return _run(database, budget, first_active)
