import pytest

import chase_sentinel as cs
from chase_sentinel.activeness import Status, Verdict, is_active_wrt, is_path_active, k_safe, replay_witness
from chase_sentinel.chase import Budget
from chase_sentinel.critdb import restricted_critical_db

from fixtures import (
    access_control,
    datalog_first_pair,
    handshake,
    handshake_trusted,
    triad,
    triad_guarded,
    vacuous_self,
    walk,
)
from oracles import renaming_sweep


def test_access_control_key_loop_is_safe_from_haskey_db():
    rs = access_control()
    r2, r3 = rs.by_id["r2"], rs.by_id["r3"]
    db = cs.parse("hasKey(a,b).").database()
    verdict = is_active_wrt((r2, r3, r2), db)
    assert verdict.status is Status.SAFE


def test_triad_forward_path_safe_reverse_path_active():
    rs = triad()
    r1, r2, r3 = rs.rules
    pi1 = (r1, r2, r3)
    pi2 = (r3, r2, r1)
    assert is_active_wrt(pi1, restricted_critical_db(pi1).instance()).status is Status.SAFE
    verdict = is_active_wrt(pi2, restricted_critical_db(pi2).instance())
    assert verdict.status is Status.ACTIVE
    assert verdict.witness.chain[0] == 1
    assert verdict.witness.chain[-1] == 3
    replay_witness(verdict.witness, rs)


def test_walk_rule_pair_is_active_and_witness_replays():
    rs = walk()
    r = rs.rules[0]
    verdict = is_path_active((r, r))
    assert verdict.status is Status.ACTIVE
    inst = replay_witness(verdict.witness, rs)
    # the chained sequence stacks one skolem term on another
    assert inst.ht() == 3


def test_vacuous_self_pair_safe():
    r = vacuous_self().rules[0]
    assert is_path_active((r, r)).status is Status.SAFE


def test_guarded_triad_needs_renaming():
    rs = triad_guarded()
    r1, r2, r3 = rs.rules
    pi2 = (r3, r2, r1)
    plain = is_active_wrt(pi2, restricted_critical_db(pi2).instance())
    assert plain.status is Status.SAFE
    with_renaming = is_path_active(pi2)
    assert with_renaming.status is Status.ACTIVE
    rn = with_renaming.witness.renaming
    assert not rn.is_identity
    assert all(src.index == 3 and dst.index == 1 for src, dst in rn.mapping)
    replay_witness(with_renaming.witness, rs)


def test_budget_yields_inconclusive():
    rs = walk()
    r = rs.rules[0]
    verdict = is_path_active((r, r), budget=Budget(max_probes=1))
    assert verdict.status is Status.INCONCLUSIVE


def test_k_safe_handshake():
    rs = handshake()
    assert k_safe(rs, 1, cs.Condition.WA).verdict is Verdict.TERMINATING
    assert k_safe(rs, 0, cs.Condition.WA).verdict is Verdict.NOT_PROVEN
    assert k_safe(rs, 1, cs.Condition.JA).verdict is Verdict.TERMINATING
    assert k_safe(rs, 1, cs.Condition.AGRD).verdict is Verdict.TERMINATING


def test_k_safe_walk_not_proven_with_replayable_witness():
    rs = walk()
    report = k_safe(rs, 1, cs.Condition.WA)
    assert report.verdict is Verdict.NOT_PROVEN
    assert report.witness.rule_ids == ("r", "r")
    replay_witness(report.witness, rs)


def test_k_safe_vacuous_self_terminating_without_cycles():
    rs = vacuous_self()
    report = k_safe(rs, 1, cs.Condition.AGRD)
    assert report.verdict is Verdict.TERMINATING
    assert report.stats.cycles_enumerated == 0


def test_k_safe_triad_not_proven_and_named_cycle_active():
    rs = triad()
    report = k_safe(rs, 1, cs.Condition.WA)
    assert report.verdict is Verdict.NOT_PROVEN
    r1, r2, r3 = rs.rules
    assert is_path_active((r3, r2, r1, r3)).status is Status.ACTIVE


def test_k_safe_datalog_first_changes_the_verdict():
    rs = datalog_first_pair()
    plain = k_safe(rs, 1, cs.Condition.WA)
    assert plain.verdict is Verdict.NOT_PROVEN
    dlf = k_safe(rs, 1, cs.Condition.WA, datalog_first=True)
    assert dlf.verdict is Verdict.TERMINATING
    assert dlf.stats.cycles_datalog_pruned > 0


def test_k_safe_budget_exhaustion_is_reported():
    rs = walk()
    report = k_safe(rs, 1, cs.Condition.WA, budget=Budget(max_probes=1, max_cycles=10))
    assert report.verdict is Verdict.RESOURCE_EXHAUSTED
    assert report.reason == "probes"


@pytest.mark.parametrize(
    "k, condition, budget, reason",
    [
        (1, cs.Condition.WA, Budget(max_cycles=0), "cycles"),
        (1, cs.Condition.WA, Budget(total_wall_clock_s=0.0), "deadline"),
        (0, cs.Condition.MFA, Budget(max_steps=1), "steps"),
    ],
    ids=["cycles", "deadline", "mfa-steps"],
)
def test_k_safe_names_the_budget_that_ran_out(k, condition, budget, reason):
    # the walk set is NotProven on the default budget; each of these budgets
    # ends the analysis before that verdict is reached
    report = k_safe(walk(), k, condition, budget=budget)
    assert report.verdict is Verdict.RESOURCE_EXHAUSTED
    assert report.reason == reason
    assert k_safe(walk(), k, condition).reason is None


def test_k_safe_checks_cycles_one_at_a_time():
    with pytest.raises(ValueError):
        k_safe(triad(), 1, cs.Condition.WA, jobs=2)


# Cycles of random 3-rule sets that are safe on their plain restricted
# critical database and active under an index-lowering renaming:
# `tests/test_properties.random_rule_set(random.Random(0), 3)`, drawn in
# order (0-based), each with at most 6 indexed constants.
RENAMING_CYCLES = (
    ("draw33", "[t1] q(X,X), p(Y,X) :- p(X,Y), s(X).", ("t1,t1",)),
    (
        "draw118",
        """
        [t1] s(X), q(E,E) :- q(Y,Y), q(X,Y).
        [t2] q(Y,X) :- q(Y,Y), s(X).
        [t3] q(E,E), q(E,X) :- s(X).
        """,
        ("t2,t1,t2",),
    ),
    (
        "draw152",
        """
        [t1] p(E,Y), q(E,Y) :- s(Y).
        [t2] s(Y), p(E,Y) :- q(X,Y), p(Y,X).
        [t3] s(Y), p(Y,Y) :- q(X,X), p(Y,X).
        """,
        ("t1,t3,t1", "t1,t3,t2,t1", "t1,t3,t3,t1"),
    ),
    (
        "draw232",
        """
        [t1] s(X), s(X) :- s(X).
        [t2] q(Y,X), p(X,Y) :- q(Y,Y), q(X,Y).
        [t3] q(X,X) :- q(X,Y), q(Y,Y).
        """,
        ("t2,t2",),
    ),
    (
        "draw273",
        """
        [t1] q(Y,X), p(Y,Y) :- s(X), p(X,Y).
        [t2] p(Y,Y) :- q(X,X), q(Y,X).
        """,
        ("t1,t1", "t1,t2,t1"),
    ),
    (
        "draw274",
        """
        [t1] q(E,X) :- p(X,X).
        [t2] q(E,X) :- p(Y,X), q(X,Y).
        [t3] q(Y,X), p(Y,Y) :- s(X), q(X,Y).
        """,
        ("t3,t3",),
    ),
)


def _renaming_differential_cases():
    """(rule set, path ids, whether the verdict needs a renaming): every
    fixture 1-cycle with at most 6 indexed constants, the guarded triad's
    reverse rotation, and the random cycles above."""
    for make in (access_control, datalog_first_pair, handshake, handshake_trusted,
                 triad, triad_guarded, vacuous_self, walk):
        rs = make()
        for cycle in cs.enumerate_k_cycles(rs, 1, cs.dependency_graph(rs)):
            if len(restricted_critical_db(cycle.path).indexed_constants) <= 6:
                ids = ",".join(cycle.rule_ids())
                yield pytest.param(rs, ids, False, id="%s:%s" % (make.__name__, ids))
    yield pytest.param(triad_guarded(), "r3,r2,r1", True, id="triad_guarded:r3,r2,r1")
    for name, text, paths in RENAMING_CYCLES:
        rs = cs.parse_rules(text)
        for ids in paths:
            yield pytest.param(rs, ids, True, id="%s:%s" % (name, ids))


@pytest.mark.parametrize("rs, ids, needs_renaming", _renaming_differential_cases())
def test_demand_driven_renamings_agree_with_the_sweep_oracle(rs, ids, needs_renaming):
    # The exhaustive sweep over every index-lowering renaming as an oracle:
    # the demand-driven renamings of is_path_active reach the same status.
    # Where the plain critical database is safe and the oracle finds the
    # path active, only a proposed renaming can agree with it.
    path = tuple(rs.by_id[i] for i in ids.split(","))
    budget = Budget(max_probes=50_000)
    oracle = renaming_sweep(path, budget=budget)
    assert oracle is not Status.INCONCLUSIVE
    verdict = is_path_active(path, budget=budget)
    assert verdict.status is oracle
    if needs_renaming:
        plain = is_active_wrt(path, restricted_critical_db(path).instance())
        assert plain.status is Status.SAFE
        assert oracle is Status.ACTIVE
        assert not verdict.witness.renaming.is_identity
        replay_witness(verdict.witness, rs)


def test_trusted_handshake_two_cycle_active_even_on_a_constant_database():
    # the path (r3,r4,r3,r3) is active w.r.t. a plain constant database:
    # its third step fires on the second typeB fact as a filler while the
    # chain (1,2,4) skips it.  The chained steps alone realize only the
    # 1-cycle (r3,r4,r3); the fully chained 2-cycle that blocks a k=2 proof
    # is (r3,r4,r4,r4,r3), checked in the acceptance suite (criterion 2b).
    rs = handshake_trusted()
    r3, r4 = rs.rules
    db = cs.parse("typeB(a,b).\ntypeB(c,d).").database()
    verdict = is_active_wrt((r3, r4, r3, r3), db)
    assert verdict.status is Status.ACTIVE
    assert verdict.witness.chain[0] == 1 and verdict.witness.chain[-1] == 4
    replay_witness(verdict.witness, rs)


def test_chain_witness_uses_first_derived_atoms():
    rs = walk()
    report = k_safe(rs, 1, cs.Condition.WA)
    w = report.witness
    inst = cs.Instance(w.initial)
    for i, step in enumerate(w.steps, start=1):
        rule = rs.by_id[step.rule_id]
        h = dict(step.bindings)
        used = {inst.first_derived_at(a) for a in cs.hom.body_image(rule, h)}
        if i in w.chain and i > 1:
            prev = w.chain[w.chain.index(i) - 1]
            assert prev in used
        cs.apply_trigger(rule, h, inst, i)
