import random

import pytest

import chase_sentinel as cs
from chase_sentinel import acyclicity, model
from chase_sentinel.acyclicity import (
    Condition,
    CycleFunction,
    check_condition,
    connected_components,
    is_agrd,
    is_ja,
    is_mfa,
    is_wa,
    joint_move_sets,
    position_graph,
)
from chase_sentinel.chase import Budget
from chase_sentinel.cycles import enumerate_k_cycles
from chase_sentinel.deps import DependencyGraph, dependency_graph
from chase_sentinel.model import Position, Variable

import fixtures
from fixtures import GENERATED, access_control, handshake, handshake_trusted, vacuous_self
from oracles import connected_components_reference, is_wa_reference


def test_wa_fails_on_handshake_with_position_cycle():
    res = is_wa(handshake())
    assert res.value is False
    # the witness cycle passes through typeB[1] and typeA[1]
    assert Position("typeB", 1) in res.witness
    assert Position("typeA", 1) in res.witness


def test_wa_holds_for_datalog_and_empty_sets():
    assert is_wa(cs.parse_rules("[d] q(X,Y) :- p(X,Y).")).value is True
    assert is_wa(cs.RuleSet(())).value is True


def test_position_graph_special_edges_from_every_frontier_body_position():
    rs = cs.parse_rules("[r] s(X,U) :- p(X), q(X).")
    g = position_graph(rs)
    specials = set(g.special_edges)
    assert (Position("p", 1), Position("s", 2)) in specials
    assert (Position("q", 1), Position("s", 2)) in specials


def test_ja_move_set_fixpoint_and_self_loop():
    rs = cs.parse_rules("[r1] q(X,Z) :- p(X).\n[r2] p(Y) :- q(X,Y).")
    moves = joint_move_sets(rs)
    (z,) = [v for v in moves if v.startswith("Z")]
    assert moves[z] == frozenset(
        {Position("q", 2), Position("p", 1), Position("q", 1)}
    )
    assert is_ja(rs).value is False


def test_ja_holds_for_datalog_only():
    assert is_ja(cs.parse_rules("[d] q(X) :- p(X).")).value is True


def test_wa_implies_ja_on_fixture_sets():
    for rs in (
        cs.parse_rules("[r] q(X,U) :- p(X)."),
        cs.parse_rules("[r1] q(X,U) :- p(X).\n[r2] s(Y) :- q(Y,W)."),
        handshake(),
        handshake_trusted(),
        access_control(),
    ):
        if is_wa(rs).value:
            assert is_ja(rs).value


def test_agrd():
    assert is_agrd(vacuous_self()).value is True
    res = is_agrd(handshake())
    assert res.value is False
    assert set(res.witness) <= {"r1", "r2"}
    swap = cs.parse_rules("[r] p(Y,X) :- p(X,Y).")
    # the swap rule's feedback is unproductive (r after r re-derives the
    # original atom), so there is no self-dependency and the set is acyclic
    assert is_agrd(swap).value is True


def test_mfa_three_valued():
    rs = access_control()
    sub23 = cs.RuleSet((rs.by_id["r2"], rs.by_id["r3"]))
    res = is_mfa(sub23, budget=Budget(max_steps=200))
    assert res.value is False  # cyclic skolem term
    sub45 = cs.RuleSet((rs.by_id["r4"], rs.by_id["r5"]))
    assert is_mfa(sub45, budget=Budget(max_steps=200)).value is True
    assert is_mfa(cs.parse_rules("[d] q(X) :- p(X)."), budget=Budget(max_steps=10)).value is True
    # a starving budget yields unknown, not a verdict
    starved = is_mfa(sub23, budget=Budget(max_steps=1))
    assert starved.value is None


def test_connected_components():
    rs = handshake()
    comps = connected_components(dependency_graph(rs))
    assert [tuple(r.id for r in c) for c in comps] == [("r1", "r2")]
    rs2 = cs.parse_rules("[a] q(X) :- p(X).\n[b] s(Y) :- t(Y).")
    comps2 = connected_components(dependency_graph(rs2))
    assert [tuple(r.id for r in c) for c in comps2] == [("a",), ("b",)]
    ac = access_control()
    comps3 = connected_components(dependency_graph(ac))
    names = [tuple(r.id for r in c) for c in comps3]
    assert ("r2", "r3") in names  # the key/enters cluster is one component


def _corpus(name):
    if name == "fixtures":
        return [make() for make in (
            fixtures.handshake, fixtures.handshake_trusted, fixtures.access_control,
            fixtures.walk, fixtures.vacuous_self, fixtures.triad, fixtures.triad_guarded,
            fixtures.datalog_first_pair,
        )]
    if name == "generated":
        return [cs.generate(cs.GenParams(seed=s, **GENERATED)) for s in range(200)]
    import test_properties as props

    rng = random.Random(0)
    return [props.random_rule_set(rng, 4) for _ in range(300)]


def _random_graph(rng):
    """A random relation on 0-40 one-atom rules, self-loops included."""
    n = rng.randrange(41)
    rules = tuple(
        cs.Rule(id="r%d" % i, body=(cs.Atom("p", (Variable("X_%d" % i),)),),
                head=(cs.Atom("q", (Variable("X_%d" % i),)),))
        for i in range(n)
    )
    density = rng.uniform(0, 3) / max(n, 1)
    edges = tuple((i, j) for i in range(n) for j in range(n) if rng.random() < density)
    return DependencyGraph(cs.RuleSet(rules), edges)


@pytest.mark.parametrize("corpus", ["fixtures", "generated"])
def test_connected_components_match_tarjan(corpus):
    for rs in _corpus(corpus):
        graph = dependency_graph(rs)
        assert connected_components(graph) == connected_components_reference(graph)


def test_connected_components_match_tarjan_on_random_relations():
    rng = random.Random(17)
    for case in range(300):
        graph = _random_graph(rng)
        assert connected_components(graph) == connected_components_reference(graph), case


def _closed_walk(witness, edges) -> bool:
    return (
        len(witness) >= 2
        and witness[0] == witness[-1]
        and all(step in edges for step in zip(witness, witness[1:]))
    )


def _ja_edges(rs) -> set:
    """y1 -> y2 when every body position of some frontier variable of the
    rule of y2 lies in Move(y1)."""
    moves = joint_move_sets(rs)
    edges = set()
    for r in rs:
        for y2 in r.existentials:
            for x in r.frontier:
                body = {Position(a.pred, s) for a in r.body for s, t in enumerate(a.args, 1)
                        if t == Variable(x)}
                edges.update((y1, y2) for y1, move in moves.items() if body <= move)
    return edges


@pytest.mark.parametrize("corpus", ["fixtures", "generated", "random"])
def test_witnesses_are_closed_walks(corpus):
    for rs in _corpus(corpus):
        g = position_graph(rs)
        wa = is_wa(rs)
        assert (wa.value is False) == (wa.witness is not None)
        if wa.witness is not None:
            assert _closed_walk(wa.witness, set(g.normal_edges) | set(g.special_edges))
            assert any(step in set(g.special_edges) for step in zip(wa.witness, wa.witness[1:]))
        ja = is_ja(rs)
        assert (ja.value is False) == (ja.witness is not None)
        if ja.witness is not None:
            assert _closed_walk(ja.witness, _ja_edges(rs))
        graph = dependency_graph(rs)
        rules = rs.rules
        agrd = is_agrd(rs)
        if agrd.witness is not None:
            assert _closed_walk(agrd.witness, {(rules[i].id, rules[j].id) for i, j in graph.edges})
        # aGRD holds exactly when every component is one rule without a self-loop
        acyclic = all(
            len(c) == 1 and (rules.index(c[0]),) * 2 not in graph.edges
            for c in connected_components(graph)
        )
        assert agrd.value is acyclic and (agrd.witness is None) == acyclic


def test_cycle_function_from_condition():
    rs = handshake()
    r1, r2 = rs.rules
    phi_agrd = CycleFunction(Condition.AGRD)
    # both rotations of the handshake pair fail aGRD... the pair itself is
    # cyclic, so the cycle function maps them to F
    assert phi_agrd.check_rules((r1, r2, r1)) is False
    assert phi_agrd.check_rules((r2, r1, r2)) is False
    # datalog-only cycles satisfy every condition
    d = cs.parse_rules("[d] q(X) :- p(X).")
    for cond in Condition:
        phi = CycleFunction(cond, Budget(max_steps=50))
        assert phi.check_rules((d.rules[0], d.rules[0])) is True
    # single-rotation memoization: the same rule subset is checked once
    phi_wa = CycleFunction(Condition.WA)
    assert phi_wa.check_rules((r1, r2, r1)) == phi_wa.check_rules((r2, r1, r2)) == False  # noqa: E712


def test_phi_wa_false_on_trusted_pair_cycle():
    rs = handshake_trusted()
    r3, r4 = rs.rules
    phi = CycleFunction(Condition.WA)
    assert phi.check_rules((r3, r4, r3)) is False


def test_condition_subset_monotonicity_wa_ja_agrd():
    sets = [
        handshake(),
        handshake_trusted(),
        access_control(),
        cs.parse_rules("[r1] q(X,U) :- p(X).\n[r2] s(Y) :- q(Y,W)."),
    ]
    for rs in sets:
        for cond in (Condition.WA, Condition.JA, Condition.AGRD):
            if check_condition(cond, rs).value:
                # every nonempty subset also satisfies the condition
                rules = rs.rules
                for i in range(len(rules)):
                    subset = cs.RuleSet(rules[:i] + rules[i + 1:])
                    if subset.rules:
                        assert check_condition(cond, subset).value


def _reads_what_it_writes(rules) -> bool:
    """Whether some predicate occurs in a body and in a head of `rules`."""
    read = {a.pred for r in rules for a in r.body}
    return not read.isdisjoint(a.pred for r in rules for a in r.head)


# The cycles per rule set that the differential and count tests below read:
# the benchmark's `generated` cap, which three sets in 0..19 reach.
CYCLE_LIMIT = 2_000


def _condition_subsets(rs) -> list:
    """Each rule subset a k = 1 analysis checks a condition on, once: every
    component, and the distinct rules of each of the first CYCLE_LIMIT
    1-cycles."""
    graph = dependency_graph(rs)
    subsets = {frozenset(r.id for r in comp): comp for comp in connected_components(graph)}
    for cycle in enumerate_k_cycles(1, graph, limit=CYCLE_LIMIT):
        subsets.setdefault(frozenset(r.id for r in cycle.path), tuple(dict.fromkeys(cycle.path)))
    return [cs.RuleSet(rules) for rules in subsets.values()]


@pytest.mark.parametrize("corpus", ["fixtures", "generated", "random"])
def test_wa_matches_the_reference_on_components_and_cycle_subsets(corpus):
    mismatches = []
    exits = checks = 0
    for rs in _corpus(corpus):
        for subset in [rs] + _condition_subsets(rs):
            checks += 1
            exits += not _reads_what_it_writes(subset)
            if is_wa(subset) != is_wa_reference(subset):
                mismatches.append(str(subset))
    assert mismatches == []
    assert 0 < exits < checks


def test_wa_builds_no_position_graph_for_a_subset_that_cannot_cycle(monkeypatch):
    calls = {True: 0, False: 0}  # is_wa calls, by whether the subset can cycle
    built = []
    wa, graph_of = acyclicity.is_wa, acyclicity.position_graph

    def counted_wa(rs):
        calls[_reads_what_it_writes(rs)] += 1
        return wa(rs)

    def counted_graph(rs):
        built.append(rs)
        return graph_of(rs)

    monkeypatch.setattr(acyclicity, "is_wa", counted_wa)
    monkeypatch.setattr(acyclicity, "position_graph", counted_graph)
    budget = Budget(max_probes=1, max_cycles=CYCLE_LIMIT)
    for seed in range(20):
        cs.k_safe(cs.generate(cs.GenParams(seed=seed, **GENERATED)), 1, Condition.WA, budget=budget)
    assert all(_reads_what_it_writes(rs) for rs in built)
    assert len(built) == calls[True]
    assert calls[False] > calls[True] > 0


@pytest.mark.parametrize("corpus", ["fixtures", "generated"])
def test_cycle_function_matches_the_condition_on_a_validated_subset(corpus):
    # check_rules builds its subsets without RuleSet's checks; each value
    # must be that of the condition on the validated subset
    sets = _corpus(corpus)[:60]
    mismatches = []
    values = set()
    for rs in sets:
        subsets = _condition_subsets(rs)
        for condition in Condition:
            phi = CycleFunction(condition)
            for subset in subsets:
                value = phi.check_rules(subset.rules)
                values.add(value)
                if value != check_condition(condition, subset).value:
                    mismatches.append((condition, str(subset)))
    assert mismatches == []
    assert {True, False} <= values


def test_k_safe_validates_no_rule_subset(monkeypatch):
    # the benchmark's `generated` pass: 1,817 distinct subsets are checked
    sets = [cs.generate(cs.GenParams(seed=seed, **GENERATED)) for seed in range(200)]
    counts = {"validated": 0, "checked": 0}
    post_init, check = model.RuleSet.__post_init__, acyclicity.check_condition

    def counted_post_init(rs):
        counts["validated"] += 1
        post_init(rs)

    def counted_check(*args):
        counts["checked"] += 1
        return check(*args)

    monkeypatch.setattr(model.RuleSet, "__post_init__", counted_post_init)
    monkeypatch.setattr(acyclicity, "check_condition", counted_check)
    budget = Budget(max_steps=20_000, max_atoms=50_000, max_probes=20_000, max_renamings=200,
                    max_cycles=CYCLE_LIMIT)
    for rs in sets:
        cs.k_safe(rs, 1, Condition.WA, budget=budget)
    assert counts == {"validated": 0, "checked": 1_817}
