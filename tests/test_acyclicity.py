import chase_sentinel as cs
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
from chase_sentinel.deps import dependency_graph
from chase_sentinel.model import Position

from fixtures import access_control, handshake, handshake_trusted, vacuous_self


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
