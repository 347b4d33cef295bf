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
    disabled = is_path_active(pi2, enable_renaming=False)
    assert disabled.status is Status.SAFE


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
    assert report.verdict in (Verdict.RESOURCE_EXHAUSTED, Verdict.NOT_PROVEN)
    starved = k_safe(
        rs, 1, cs.Condition.WA, budget=Budget(max_probes=1, max_cycles=10), enable_renaming=False
    )
    assert starved.verdict is Verdict.RESOURCE_EXHAUSTED


def test_k_safe_checks_cycles_one_at_a_time():
    with pytest.raises(ValueError):
        k_safe(triad(), 1, cs.Condition.WA, jobs=2)


def test_demand_driven_renamings_agree_with_the_sweep_on_fixture_one_cycles():
    # The exhaustive sweep as an oracle: on every fixture 1-cycle small
    # enough for k_safe to sweep, the demand-driven renamings alone reach
    # the same status.
    budget = Budget(max_probes=50_000)
    swept = 0
    for make in (access_control, datalog_first_pair, handshake, handshake_trusted,
                 triad, triad_guarded, vacuous_self, walk):
        rs = make()
        for cycle in cs.enumerate_k_cycles(rs, 1, cs.dependency_graph(rs)):
            if len(restricted_critical_db(cycle.path).indexed_constants) > 6:
                continue
            swept += 1
            with_sweep = is_path_active(cycle.path, budget=budget)
            demand_only = is_path_active(cycle.path, budget=budget, exhaustive_limit=0)
            assert with_sweep.status is demand_only.status, cycle.rule_ids()
    assert swept > 0


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
