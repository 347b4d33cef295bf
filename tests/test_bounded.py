import pytest

import chase_sentinel as cs
from chase_sentinel import bounded
from chase_sentinel.activeness import SafetyVerdict, Status
from chase_sentinel.bounded import (
    constant_bound,
    exp_tower_bound,
    linear_bound,
    memb_check,
    multi_head_caveat,
    parse_bound,
)
from chase_sentinel.chase import Budget

from fixtures import handshake, walk


def test_bound_function_shapes():
    assert constant_bound(3)(99) == 3
    assert linear_bound(2, 1)(5) == 11
    assert exp_tower_bound(0)(7) == 7
    assert exp_tower_bound(1)(4) == 16
    assert exp_tower_bound(2)(3) == 2**8


def test_bound_functions_monotone():
    for delta in (constant_bound(4), linear_bound(3, 2), exp_tower_bound(2)):
        values = [delta(n) for n in range(1, 8)]
        assert values == sorted(values)


def test_parse_bound():
    assert parse_bound("const:3")(10) == 3
    assert parse_bound("linear:2,5")(3) == 11
    assert parse_bound("exptower:1")(3) == 8
    assert parse_bound("linear:0,1")(7) == 1
    assert parse_bound("linear:1,0")(1) == 1
    bad_specs = ("const", "linear:1", "exptower:-1", "cubic:2")
    non_positive = ("const:0", "const:-3", "linear:-1,0", "linear:-1,5", "linear:0,0")
    for bad in bad_specs + non_positive:
        with pytest.raises(ValueError):
            parse_bound(bad)


@pytest.mark.parametrize("delta", [constant_bound(0), linear_bound(-1, 0), linear_bound(0, 0)])
def test_memb_check_rejects_a_non_positive_bound(delta):
    # a bound function maps positive integers to positive integers
    with pytest.raises(ValueError, match="not a positive integer"):
        memb_check(walk(), delta, budget=Budget(max_steps=10))


def test_handshake_bounded_at_three():
    res = memb_check(handshake(), constant_bound(3))
    assert res.value is True


def test_handshake_not_bounded_at_two_with_height_witness():
    rs = handshake()
    res = memb_check(rs, constant_bound(2))
    assert res.value is False
    assert ("r1", "r2") in res.breach_paths
    inst = cs.replay_witness(res.witness, rs)
    assert inst.ht() == 3  # the witness itself reaches bound + 1


def test_datalog_only_passes_in_phase_one():
    rs = cs.parse_rules("[d1] q(X) :- p(X).\n[d2] p(Y) :- q(Y).")
    res = memb_check(rs, constant_bound(1))
    assert res.value is True and res.phase == 1


def test_walk_rule_never_bounded():
    res = memb_check(walk(), constant_bound(2))
    assert res.value is False


def test_budget_exhaustion_reported():
    res = memb_check(handshake(), constant_bound(3), budget=Budget(max_steps=1))
    assert res.value is None


def test_a_height_limit_does_not_stop_phase_two():
    # phase 2 tests height itself (min_height = bound + 1), so a user limit
    # at that height must not end the chained search that reaches it
    res = memb_check(handshake(), constant_bound(2), budget=Budget(max_height=3, max_probes=10**6))
    assert (res.value, res.phase, res.reason) == (False, 2, None)


def test_a_phase_two_unknown_keeps_its_breach_paths():
    # the `fixtures` workload's budget of the benchmark: the chained search
    # of the one breach path runs out of probes
    budget = Budget(max_steps=20_000, max_height=None, max_atoms=50_000, max_probes=50_000)
    res = memb_check(handshake(), linear_bound(1, 1), budget=budget)
    assert (res.value, res.phase, res.reason) == (None, 2, "probes")
    assert res.breach_paths == (("r1", "r2") * 14,)


def test_a_phase_two_unknown_names_the_first_budget_that_ran_out(monkeypatch):
    # phase 1 stops at the first breaching step, so a real run has one
    # breach path; two are forced here to see which reason is kept
    rs = handshake()
    paths = [("r1", "r2"), ("r1", "r2", "r1", "r2")]
    reasons = iter(["renamings", "probes"])
    monkeypatch.setattr(bounded, "_support_paths", lambda trace, rules, bound: paths)
    monkeypatch.setattr(
        bounded, "is_path_active",
        lambda path, **kwargs: SafetyVerdict(Status.INCONCLUSIVE, reason=next(reasons)),
    )
    res = memb_check(rs, constant_bound(2))
    assert (res.value, res.phase, res.reason) == (None, 2, "renamings")
    assert res.breach_paths == tuple(paths)


def test_multi_head_caveat():
    assert multi_head_caveat(handshake()) is not None
    assert multi_head_caveat(walk()) is None


def test_terminating_sets_are_bounded_consistently():
    # k-safe at level k implies bounded with the quadratic bound k*(k+2)
    from fixtures import vacuous_self

    k = 1
    for make in (handshake, vacuous_self):
        rs = make()
        report = cs.k_safe(rs, k, cs.Condition.WA)
        if report.verdict is not cs.Verdict.TERMINATING:
            continue
        res = memb_check(rs, constant_bound(k * (k + 2)))
        assert res.value is True


def test_at_most_cuts_a_tower_off_at_the_cap():
    assert exp_tower_bound(2).at_most(3, 256) == 256
    assert exp_tower_bound(2).at_most(3, 255) is None
    assert exp_tower_bound(0).at_most(7, 7) == 7
    # exptower:4 at n = 4 is 2^(2^65536): only the first three levels are built
    assert exp_tower_bound(4).at_most(4, 10**6) is None
    assert linear_bound(2, 1).at_most(5, 11) == 11
    assert constant_bound(3).at_most(9, 2) is None


def test_tower_bound_is_clamped_to_the_reachable_height():
    # ||walk|| = 4, so exptower:3 is 2^65536 and exptower:4 is never built;
    # 50 steps reach height 51 at most, so the bound becomes 51.
    for kappa in (3, 4):
        res = memb_check(walk(), exp_tower_bound(kappa), budget=Budget(max_steps=50, max_atoms=1000))
        assert (res.value, res.bound, res.bound_clamped) == (None, 51, True)
        assert (res.phase, res.reason) == (1, "steps")
    res = memb_check(walk(), exp_tower_bound(3), budget=Budget(max_atoms=30))
    assert (res.bound, res.bound_clamped, res.reason) == (31, True, "atoms")


def test_clamp_keeps_a_phase_one_verdict():
    rs = cs.parse_rules("[d1] q(X) :- p(X).\n[d2] p(Y) :- q(Y).")
    res = memb_check(rs, exp_tower_bound(3), budget=Budget(max_steps=500))
    assert (res.value, res.phase, res.bound, res.bound_clamped) == (True, 1, 501, True)
    assert memb_check(handshake(), constant_bound(3)).bound_clamped is False
