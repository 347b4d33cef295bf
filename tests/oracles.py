"""Reference oracles for the tests, by brute-force enumeration: every
restricted chase sequence, the length of the longest one, the activeness
of a path under every renaming of its critical database, every
piece-unifier of a rule pair, the relevance of a cycle, and the dependency
of two rules with respect to one instance.  Also the term-walking
homomorphism search that the compiled match path of `chase_sentinel.hom`
replaced, with the orientation of its near misses into merges
(`orient_reference`); the rescanning chase policies that the semi-naive
skolem rounds and the trigger frontiers of `chase_sentinel.chase`
replaced; and the generator-based activeness test
and skolem-head instantiation that the direct trigger path of
`chase_sentinel.hom` replaced; and the chained search without its memo of
failed states and its chain test before activeness at the last step, which
`chase_sentinel.activeness` replaced; and the single-piece unifier search
on a union-find that the representative map of `chase_sentinel.deps`
replaced; and the hand-iterated Tarjan components that the two-pass
components of `chase_sentinel.acyclicity` replaced; and the whole-term
walk of the cyclic-nesting test that the cached function sets of
`chase_sentinel.model` replaced; and the step-by-step witness replay that
replaying a witness as a restricted `ChaseTrace` replaced; and the
derived-first matcher with a near-miss hook, its candidates partitioned
by `Instance.first_derived_at`, and the chained search over it, which
the cached trigger heads and body images of `chase_sentinel.activeness`
replaced, with `near_miss_recorder`, the near-miss hook that the join
steps of `chase_sentinel.activeness._Search.matches` replaced; and
`_chain_through`, the forward chain rule over the steps each trigger
consumed from, which the chained flag that `chase_sentinel.activeness`
keeps per trail step replaced (both references build their witness chains
with it); and the match-per-token tokenizer that the one-pass tokenizer of
`chase_sentinel.dlgp` replaced, and the weak-acyclicity test that builds
the position graph of every rule subset, which the read-and-written
predicate exit of `chase_sentinel.acyclicity.is_wa` replaced; as
differential references.  Also the rule-id dependency test
of a built graph, which only the tests read, and a tampering shared by the
replay tests.

They are slow and meant for small inputs only; the library's own chase runs
live in `chase_sentinel.chase`, its demand-driven renaming search in
`chase_sentinel.activeness`, and its lazy single-piece unifier search in
`chase_sentinel.deps`.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import replace
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from chase_sentinel.acyclicity import CheckResult, Condition, _first_cycle, position_graph
from chase_sentinel.activeness import (
    ChainWitness,
    SafetyVerdict,
    Status,
    is_active_wrt,
)
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
from chase_sentinel.critdb import (
    RenamingFunction,
    all_renamings,
    apply_renaming,
    restricted_critical_db,
)
from chase_sentinel.hom import (
    apply_trigger,
    body_image,
    consumed_steps,
    find_homomorphisms,
    freeze_bindings,
    is_active_trigger,
    match_args,
    order_atoms,
)
from chase_sentinel.deps import DependencyGraph, PieceUnifier, _rename_apart
from chase_sentinel.dlgp import ParseError
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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<impl>:-)
  | (?P<punct>[()\[\],.])
  | (?P<word>[A-Za-z0-9_]+)
""",
    re.VERBOSE,
)


def tokenize_reference(text: str) -> list:
    """The dlgp token stream as (kind, text, line) triples, one regex match
    per token or run of whitespace; raises the first bad character's
    `ParseError`."""
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line)
        pos = m.end()
        line += m.group(0).count("\n")
        if m.lastgroup in ("ws", "comment"):
            continue
        if m.lastgroup == "impl":
            tokens.append(("impl", ":-", line))
        elif m.lastgroup == "punct":
            tokens.append((m.group(0), m.group(0), line))
        else:
            tokens.append(("word", m.group(0), line))
    return tokens


def is_wa_reference(rs: RuleSet) -> CheckResult:
    """Weak acyclicity from the position graph of every rule set, with no
    early exit."""
    g = position_graph(rs)
    adjacency: Dict = defaultdict(list)
    for u, v in g.normal_edges + g.special_edges:
        adjacency[u].append(v)
    for u in adjacency:
        adjacency[u].sort(key=str)
    cycle = _first_cycle(adjacency, g.special_edges)
    return CheckResult(Condition.WA, cycle is None, witness=cycle)


def has_cyclic_nesting_reference(t: Term) -> bool:
    """The same skolem function twice on one nesting path, by a walk of
    the whole term: the stack holds the terms still to visit and, below
    each term's arguments, its function name, popped when the walk leaves
    the term; a set holds the functions on the path."""
    if t.__class__ is not SkolemTerm:
        return False
    path: set = set()
    stack: list = [t]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            path.remove(item)
            continue
        if item.fn in path:
            return True
        path.add(item.fn)
        stack.append(item.fn)
        stack.extend([a for a in item.args if a.__class__ is SkolemTerm])
    return False


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
    base = Instance(database.atoms() if isinstance(database, Instance) else database)
    initial_atoms = base.atoms()
    meter = Meter(budget)
    cap = meter.budget.max_steps
    traces: list = []
    steps: list = []

    def snapshot(outcome: Outcome) -> None:
        traces.append(
            ChaseTrace(
                initial=initial_atoms,
                steps=list(steps),
                outcome=outcome,
                final=None,
                restricted=True,
            )
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
    base = Instance(database.atoms() if isinstance(database, Instance) else database)
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


def indexed_constants(db: Instance) -> tuple:
    """The indexed constants of the atoms of `db`, each once, in order of
    first occurrence."""
    return tuple(
        dict.fromkeys(t for a in db.atoms() for t in a.args if t.__class__ is IndexedConstant)
    )


def renaming_sweep(path: Sequence[Rule], budget: Optional[Budget] = None) -> Status:
    """Activeness of `path` w.r.t. its restricted critical database under
    every index-lowering renaming, tried one at a time with `budget` each:
    ACTIVE when some renaming makes the path active, else INCONCLUSIVE when
    some search ran out of budget, else SAFE."""
    db = restricted_critical_db(path)
    status = Status.SAFE
    for rn in all_renamings(indexed_constants(db)):
        verdict = is_active_wrt(path, apply_renaming(rn, db), meter=Meter(budget))
        if verdict.status is Status.ACTIVE:
            return Status.ACTIVE
        if verdict.status is Status.INCONCLUSIVE:
            status = Status.INCONCLUSIVE
    return status


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def copy(self) -> "_UnionFind":
        uf = _UnionFind()
        uf.parent = dict(self.parent)
        return uf

    def add(self, t: Term) -> None:
        self.parent.setdefault(t, t)

    def find(self, t: Term) -> Term:
        self.add(t)
        root = t
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[t] != root:
            self.parent[t], t = root, self.parent[t]
        return root

    def union(self, a: Term, b: Term) -> bool:
        """Union with rigid-term priority; False when two distinct rigid
        terms would be merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        rigid_a = not isinstance(ra, Variable)
        rigid_b = not isinstance(rb, Variable)
        if rigid_a and rigid_b:
            return False
        if rigid_a:
            self.parent[rb] = ra
        elif rigid_b:
            self.parent[ra] = rb
        else:
            # deterministic representative for variable-variable unions
            lo, hi = sorted((ra, rb), key=lambda v: v.name)
            self.parent[hi] = lo
        return True

    def classes(self) -> dict:
        out: dict = {}
        for t in self.parent:
            out.setdefault(self.find(t), []).append(t)
        return out


def _unify_atom_pair(uf: _UnionFind, a: Atom, b: Atom) -> bool:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return False
    return all(uf.union(x, y) for x, y in zip(a.args, b.args))


def _subst_from_classes(classes: dict) -> dict:
    subst: dict = {}
    for rep, members in classes.items():
        if isinstance(rep, Variable):
            canon = min((m for m in members if isinstance(m, Variable)), key=lambda v: v.name)
            target: Term = canon
        else:
            target = rep
        for m in members:
            if isinstance(m, Variable) and m != target:
                subst[m.name] = target
    return subst


def piece_unifiers_reference(r1: Rule, r2: Rule) -> Iterator[PieceUnifier]:
    """The single-piece search of `chase_sentinel.deps.piece_unifiers` on a
    path-compressing union-find that is copied at each step, with the
    existential condition checked on every class and the substitution
    worked out from the classes; the same unifiers in the same order."""
    r1 = _rename_apart(r1, r2)
    body, head = r2.body, r1.head
    existentials, frontier = r1.existentials, frozenset(r1.frontier)

    def existential(t: Term) -> bool:
        return isinstance(t, Variable) and t.name in existentials

    def unify(uf: _UnionFind, i: int, j: int) -> Optional[_UnionFind]:
        uf = uf.copy()
        if not _unify_atom_pair(uf, body[i], head[j]):
            return None
        for members in uf.classes().values():
            held = sum(map(existential, members))
            if held and (
                held > 1
                or any(not isinstance(m, Variable) or m.name in frontier for m in members)
            ):
                return None
        return uf

    def grow(uf: _UnionFind, piece: frozenset, heads: frozenset) -> Iterator[PieceUnifier]:
        roots = {uf.find(t) for t in uf.parent if existential(t)}
        pending = next(
            (
                i
                for i, a in enumerate(body)
                if i not in piece and any(t in uf.parent and uf.find(t) in roots for t in a.args)
            ),
            None,
        )
        if pending is None:
            yield PieceUnifier(
                body_subset=tuple(body[i] for i in sorted(piece)),
                head_subset=tuple(head[j] for j in sorted(heads)),
                subst=tuple(sorted(_subst_from_classes(uf.classes()).items())),
            )
        elif pending > min(piece):  # else the search grows it from its first atom
            for j in range(len(head)):
                grown = unify(uf, pending, j)
                if grown is not None:
                    yield from grow(grown, piece | {pending}, heads | {j})

    for i in range(len(body)):
        for j in range(len(head)):
            start = unify(_UnionFind(), i, j)
            if start is not None:
                yield from grow(start, frozenset((i,)), frozenset((j,)))


def _erasing_and_productive(pu: PieceUnifier, r1: Rule, r2: Rule) -> bool:
    """Whether a piece-unifier of body(r2) with head(r1), r1 renamed apart,
    is atom-erasing and productive."""
    theta = pu.mapping()

    def image(atoms) -> frozenset:
        return frozenset(apply_atom(theta, a) for a in atoms)

    body1, body2 = image(r1.body), image(r2.body)
    return not body2 <= body1 and not image(r2.head) <= body1 | image(r1.head) | body2


def depends_on_reference(r2: Rule, r1: Rule) -> Optional[PieceUnifier]:
    """The first unifier of `piece_unifiers_reference` that is atom-erasing
    and productive, or None."""
    renamed = _rename_apart(r1, r2)
    return next(
        (pu for pu in piece_unifiers_reference(r1, r2) if _erasing_and_productive(pu, renamed, r2)),
        None,
    )


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
    return any(_erasing_and_productive(pu, r1, r2) for pu in piece_unifiers_brute_force(r1, r2))


def is_relevant(cycle_path: Sequence[Rule]) -> bool:
    """A cycle is relevant when every element after the first depends on
    some earlier element (by the brute-force dependency test);
    `enumerate_k_cycles` yields only relevant cycles."""
    return all(
        any(depends_on_brute_force(later, earlier) for earlier in cycle_path[:i])
        for i, later in enumerate(cycle_path)
        if i
    )


def graph_depends(graph: DependencyGraph, later: Rule, earlier: Rule) -> bool:
    """Whether `later` depends on `earlier` in `graph`, by rule id."""
    return graph.positions[earlier.id] in graph.predecessors[graph.positions[later.id]]


def connected_components_reference(graph: DependencyGraph) -> List[tuple]:
    """`acyclicity.connected_components` by Tarjan's algorithm on a
    resumable work stack, ordered by smallest rule index."""
    n = len(graph.rule_set.rules)
    adjacency: Dict[int, list] = {i: [] for i in range(n)}
    for i, j in graph.edges:
        adjacency[i].append(j)
    index_counter = [0]
    stack: list = []
    lowlink = [0] * n
    index = [-1] * n
    on_stack = [False] * n
    components: List[list] = []

    def strongconnect(v: int) -> None:
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for k in range(pi, len(adjacency[node])):
                w = adjacency[node][k]
                if index[w] == -1:
                    work[-1] = (node, k + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[node] = min(lowlink[node], index[w])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for v in range(n):
        if index[v] == -1:
            strongconnect(v)
    components.sort(key=lambda c: c[0])
    rules = graph.rule_set.rules
    return [tuple(rules[i] for i in comp) for comp in components]


def depends_on_wrt(r2: Rule, r1: Rule, inst: Instance) -> bool:
    """Instance-relative dependency: some application of r1 on `inst` derives
    an atom that a fresh body match of r2 actually uses."""
    for h in find_homomorphisms(r1.body, inst):
        scratch = Instance(inst.atoms())
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


def orient_reference(pairs: Iterable[tuple]) -> Optional[frozenset]:
    """The merge a near miss proposes, as the frozenset of its (higher,
    lower) pairs: each (required, found) pair renames its higher index to
    the lower.  None when a pair has equal indices (index-lowering cannot
    resolve it) or one constant would go two ways."""
    out: dict = {}
    for a, b in pairs:
        if a == b:
            continue
        if a.index == b.index:
            return None
        hi, lo = (a, b) if a.index > b.index else (b, a)
        prev = out.get(hi)
        if prev is not None and prev != lo:
            return None  # contradictory requirements in one near miss
        out[hi] = lo
    return frozenset(out.items()) or None


def is_active_trigger_reference(
    rule: Rule, h: dict, inst: Instance, probe: Optional[Callable[[], None]] = None
) -> bool:
    partial = [apply_atom(h, a) for a in rule.head]
    if rule.is_datalog:
        return any(a not in inst for a in partial)
    for _ext in find_homomorphisms_reference(partial, inst, probe=probe):
        return False
    return True


# ---------------------------------------------------------------------------
# The trigger path as it was before the direct activeness test: the head is
# matched through the `find_homomorphisms` generator with the trigger's
# bindings substituted, and triggers are applied by instantiating the
# skolemized head.


def is_active_trigger_by_search(
    rule: Rule, h: dict, inst: Instance, probe: Optional[Callable[[], None]] = None
) -> bool:
    partial = [apply_atom(h, a) for a in rule.head]
    if rule.is_datalog:
        return any(a not in inst for a in partial)
    for _ext in find_homomorphisms(partial, inst, probe=probe):
        return False
    return True


def apply_term_reference(subst: Mapping[str, Term], t: Term) -> Term:
    """t with its variables replaced, inside skolem terms too; ground
    subterms are returned as they are, not rebuilt."""
    if t.__class__ is Variable:
        return subst.get(t.name, t)
    if t.ground:
        return t
    return SkolemTerm(t.fn, tuple([apply_term_reference(subst, a) for a in t.args]))


def apply_atom_reference(subst: Mapping[str, Term], a: Atom) -> Atom:
    return Atom(a.pred, tuple([apply_term_reference(subst, t) for t in a.args]))


def skolem_head(rule: Rule) -> tuple:
    """The head atoms with each existential replaced by its skolem term
    over the frontier variables."""
    args = tuple(Variable(v) for v in rule.frontier)
    subst = {z: SkolemTerm(fn, args) for z, fn in rule.skolem_functions}
    return tuple(apply_atom_reference(subst, a) for a in rule.head)


def apply_trigger_reference(rule: Rule, h: dict, inst: Instance, step: int) -> list:
    added = []
    for a in skolem_head(rule):
        ground = apply_atom_reference(h, a)
        if inst.add(ground, step):
            added.append(ground)
    return added


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
    """`greedy_restricted` without its frontiers or head index: every
    step tests the activeness of every trigger again, from the first rule
    on, scanning each head predicate's atoms."""
    order = list(rules)
    if datalog_first:
        order = [r for r in order if r.is_datalog] + [r for r in order if not r.is_datalog]

    def first_active(inst: Instance, probe: Callable[[], None]) -> list:
        for rule in order:
            for h in find_homomorphisms(rule.body, inst, probe=probe):
                if is_active_trigger(rule, h, inst, probe=probe):
                    return [(rule, h)]
        return []

    trace = _run(database, budget, first_active)
    trace.restricted = True
    return trace


# ---------------------------------------------------------------------------
# The chained search as it was before its memo of failed states: every state
# is searched, every body match of the last step is tested for activeness
# and applied, the chain is checked at the leaf, and a `TraceStep` is built
# for every applied trigger.  `_chain_through` is the chain rule both
# reference searches share: it rebuilds the chain forward from the steps
# each trigger consumed from, apart from the flag the library's search keeps.


def _chain_through(used_steps: List[frozenset]) -> Optional[tuple]:
    """A strictly increasing sequence 1 = i_1 < ... < i_m = n where step
    i_{a+1} consumed an atom first derived at step i_a; None when absent.
    Forward over the steps: a step is reachable from step 1 when it
    consumed from a reachable step, and its parent is the latest such."""
    n = len(used_steps)
    if n == 0:
        return None
    if n == 1:
        return (1,)
    reachable = {1}
    parent: Dict[int, int] = {}
    for j in range(2, n + 1):
        for i in sorted(used_steps[j - 1], reverse=True):
            if i >= 1 and i in reachable:
                reachable.add(j)
                parent[j] = i
                break
    if n not in reachable:
        return None
    chain = [n]
    while chain[-1] != 1:
        chain.append(parent[chain[-1]])
    return tuple(reversed(chain))


class ChainedSearchReference:
    """Backtracking search for a chained sequence of active triggers along
    a fixed path, with no memo; it records near-miss merges in `merges`
    as `activeness._Search` does."""

    def __init__(
        self,
        path: Sequence[Rule],
        inst: Instance,
        meter: Meter,
        datalog_rules: Sequence[Rule] = (),
        min_height: int = 0,
    ):
        self.path = list(path)
        self.inst = inst
        self.meter = meter
        self.datalog_rules = list(datalog_rules)
        self.min_height = min_height
        self.steps: List[TraceStep] = []
        self.used_steps: List[frozenset] = []
        self.merges: Dict[frozenset, None] = {}
        self.on_miss = near_miss_recorder(self.merges)
        self.witness_steps: Optional[List[TraceStep]] = None
        self.witness_chain: Optional[tuple] = None

    def _datalog_blocked(self) -> bool:
        probe = self.meter.charge_probe
        for d in self.datalog_rules:
            for h in find_homomorphisms(d.body, self.inst, probe=probe):
                if is_active_trigger(d, h, self.inst, probe=probe):
                    return True
        return False

    def run(self) -> bool:
        return self._step(0)

    def _step(self, i: int) -> bool:
        if i == len(self.path):
            if self.inst.ht() < self.min_height:
                return False
            chain = _chain_through(self.used_steps)
            if chain is not None:
                self.witness_steps = list(self.steps)
                self.witness_chain = chain
                return True
            return False
        rule = self.path[i]
        if not rule.is_datalog and self._datalog_blocked():
            return False
        inst, meter = self.inst, self.meter
        probe = meter.charge_probe
        for h in find_homomorphisms_derived_first(rule.body, inst, probe, self.on_miss):
            if not is_active_trigger(rule, h, inst, probe=probe):
                continue
            used = frozenset(map(inst.first_derived_at, body_image(rule, h)))
            size = len(inst)
            added = apply_trigger(rule, h, inst, i + 1)
            meter.charge_step()
            meter.check_instance(inst)
            self.steps.append(TraceStep(rule.id, freeze_bindings(h), tuple(added)))
            self.used_steps.append(used)
            if self._step(i + 1):
                return True
            self.used_steps.pop()
            self.steps.pop()
            inst.rollback(size)
        return False


def _search_verdict(search, path: Sequence[Rule], database: Instance) -> tuple:
    """Run a chained search object as `activeness.is_active_wrt` runs
    `_Search`: the verdict and the near-miss merges, in the order first
    recorded."""
    size = len(database)
    try:
        found = search.run()
    except BudgetExceeded as e:
        return SafetyVerdict(Status.INCONCLUSIVE, reason=e.reason), list(search.merges)
    finally:
        database.rollback(size)
    if not found:
        return SafetyVerdict(Status.SAFE), list(search.merges)
    witness = ChainWitness(
        rule_ids=tuple(r.id for r in path),
        initial=database.atoms(),
        steps=tuple(search.witness_steps),
        chain=search.witness_chain,
        renaming=RenamingFunction.identity(),
    )
    return SafetyVerdict(Status.ACTIVE, witness=witness), list(search.merges)


def is_active_wrt_reference(
    path: Sequence[Rule],
    database: Instance,
    meter: Meter,
    datalog_rules: Sequence[Rule] = (),
    min_height: int = 0,
) -> tuple:
    """`activeness.is_active_wrt` over `ChainedSearchReference`: the
    verdict and the near-miss merges, in the order first recorded."""
    search = ChainedSearchReference(path, database, meter, datalog_rules, min_height)
    return _search_verdict(search, path, database)


# ---------------------------------------------------------------------------
# The chained search as it was before its caches: the compiled matcher in
# derived-first order with a near-miss hook, which `find_homomorphisms`
# offered as its `derived_first` and `on_miss` mode, and the recursive
# search over it, which builds every trigger head and every body image
# anew.  Its candidates come from `_candidates_reference`, not from
# `Instance.derived_first`.


def find_homomorphisms_derived_first(
    conj: Sequence[Atom],
    inst: Instance,
    probe: Optional[Callable[[], None]] = None,
    on_miss: Optional[Callable[[Atom, dict, Atom], None]] = None,
) -> Iterator[dict]:
    """All h over vars(conj) with h(conj) contained in inst, each once: the
    patterns in `order_atoms` order, the derived candidates before the
    database ones.  `probe` is charged once per candidate tested, and
    `on_miss(pattern, binding, candidate)` sees each one that failed to
    match, with the bindings made before that pattern."""
    patterns = conj if len(conj) == 1 else [conj[i] for i in order_atoms(conj, inst)]
    last = len(patterns) - 1
    binding: dict = {}

    def search(depth: int) -> Iterator[dict]:
        pattern = patterns[depth]
        plan = pattern.plan
        arity = len(pattern.args)
        for cand in _candidates_reference(inst, pattern.pred, True):
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


def near_miss_recorder(merges: Dict[frozenset, None]) -> Callable[[Atom, dict, Atom], None]:
    """The near-miss hook the chained search's matcher
    (`activeness._Search.matches`) called before it read near misses off
    its own join steps: `on_miss(pattern, binding, candidate)` records the
    near miss of a failed candidate, under the bindings made before
    `pattern`, into `merges`, each as the frozenset of the (higher, lower)
    pairs of its merge, once each in first-seen order.

    The hook substitutes one argument at a time and stops at the first
    difference that is not between two indexed constants of different
    indices, or that sends one constant two ways.  Patterns are
    function-free, so an argument is a variable or ground."""

    def on_miss(pattern: Atom, binding: dict, candidate: Atom) -> None:
        merge: Dict[IndexedConstant, IndexedConstant] = {}
        for p, c in zip(pattern.args, candidate.args):
            if p.__class__ is Variable:
                p = binding.get(p.name)
                if p is None:
                    continue  # unbound: agrees with anything
            if p.__class__ is IndexedConstant and c.__class__ is IndexedConstant:
                if p is c:
                    continue
                if p.index == c.index:
                    return
                hi, lo = (p, c) if p.index > c.index else (c, p)
                if merge.setdefault(hi, lo) is not lo:
                    return
            elif p is not c:
                return
        if merge:
            merges.setdefault(frozenset(merge.items()))

    return on_miss


class ChainedSearchUncached:
    """`activeness._Search` without its caches: the same memo of failed
    states and the same order, probes, steps and merges, on a recursive
    step."""

    def __init__(
        self,
        path: Sequence[Rule],
        inst: Instance,
        meter: Meter,
        datalog_rules: Sequence[Rule] = (),
        min_height: int = 0,
    ):
        self.path = list(path)
        self.inst = inst
        self.meter = meter
        self.datalog_rules = list(datalog_rules)
        self.min_height = min_height
        self.trail: List[tuple] = []
        self.failed: set = set()
        self.merges: Dict[frozenset, None] = {}
        self.on_miss = near_miss_recorder(self.merges)
        self.witness_steps: Optional[List[TraceStep]] = None
        self.witness_chain: Optional[tuple] = None

    def _datalog_blocked(self) -> bool:
        probe = self.meter.charge_probe
        for d in self.datalog_rules:
            for h in find_homomorphisms(d.body, self.inst, probe=probe):
                if is_active_trigger(d, h, self.inst, probe=probe):
                    return True
        return False

    def run(self) -> bool:
        return self._step(0, frozenset(), frozenset())

    def _found(self) -> None:
        self.witness_steps = [
            TraceStep(rule.id, freeze_bindings(h), tuple(added)) for rule, h, added in self.trail
        ]
        self.witness_chain = _chain_through(
            [consumed_steps(rule, h, self.inst) for rule, h, _ in self.trail]
        )

    def _step(self, i: int, derived: frozenset, reached: frozenset) -> bool:
        key = (i, derived, reached)
        if key in self.failed:
            return False
        rule = self.path[i]
        last = i == len(self.path) - 1
        if not rule.is_datalog and self._datalog_blocked():
            self.failed.add(key)
            return False
        inst, meter = self.inst, self.meter
        probe = meter.charge_probe
        for h in find_homomorphisms_derived_first(rule.body, inst, probe, self.on_miss):
            if i and last and reached.isdisjoint(body_image(rule, h)):
                continue
            if not is_active_trigger(rule, h, inst, probe=probe):
                continue
            size = len(inst)
            added = apply_trigger(rule, h, inst, i + 1)
            meter.charge_step()
            meter.check_instance(inst)
            self.trail.append((rule, h, added))
            if last:
                if inst.ht() >= self.min_height:
                    self._found()
                    return True
            else:
                chained = not i or not reached.isdisjoint(body_image(rule, h))
                if self._step(
                    i + 1, derived.union(added), reached.union(added) if chained else reached
                ):
                    return True
            self.trail.pop()
            inst.rollback(size)
        self.failed.add(key)
        return False


def is_active_wrt_uncached(
    path: Sequence[Rule],
    database: Instance,
    meter: Meter,
    datalog_rules: Sequence[Rule] = (),
    min_height: int = 0,
) -> tuple:
    """`activeness.is_active_wrt` over `ChainedSearchUncached`: the verdict
    and the near-miss merges, in the order first recorded."""
    search = ChainedSearchUncached(path, database, meter, datalog_rules, min_height)
    return _search_verdict(search, path, database)


# ---------------------------------------------------------------------------
# The witness replay as it was before it replayed a witness as a restricted
# trace: its own loop re-checks each body image, tests activeness by a head
# scan, collects the steps each trigger consumed from, and compares the
# added atoms, then checks the chain against what it collected.


def replay_witness_reference(witness: ChainWitness, rs: RuleSet) -> Instance:
    """`activeness.replay_witness` by its own step loop."""
    applied = tuple(s.rule_id for s in witness.steps)
    if applied != witness.rule_ids:
        raise AssertionError(
            "witness: steps apply %s, not the cycle %s" % (applied, witness.rule_ids)
        )
    inst = Instance(witness.initial)
    used_steps: List[frozenset] = []
    for i, step in enumerate(witness.steps, start=1):
        rule = rs.by_id[step.rule_id]
        h = dict(step.bindings)
        image = body_image(rule, h)
        for a in image:
            if a not in inst:
                raise AssertionError("witness: body atom %s missing at step %d" % (a, i))
        if not is_active_trigger(rule, h, inst):
            raise AssertionError("witness: trigger at step %d is not active" % i)
        used_steps.append(frozenset(inst.first_derived_at(a) for a in image))
        added = apply_trigger(rule, h, inst, i)
        if tuple(added) != step.added:
            raise AssertionError("witness: step %d derived %s, recorded %s" % (i, added, step.added))
    chain = witness.chain
    if len(witness.steps) >= 2:
        if not chain or chain[0] != 1 or chain[-1] != len(witness.steps):
            raise AssertionError("witness: chain does not span the path")
        for a, b in zip(chain, chain[1:]):
            if a not in used_steps[b - 1]:
                raise AssertionError("witness: step %d does not consume step %d output" % (b, a))
    return inst


def without_step_one_body(rs: RuleSet, evidence):
    """A chase trace or chain witness whose initial atoms lack the body
    image of its first step."""
    first = evidence.steps[0]
    image = set(body_image(rs.by_id[first.rule_id], dict(first.bindings)))
    return replace(evidence, initial=tuple(a for a in evidence.initial if a not in image))
