"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Criterion 2b expects NotProven for the trusted-handshake set at k=2: the
set has a fully chained active 2-cycle, written out by hand in
`_trusted_handshake_two_cycle_witness`, so no sound checker can prove it
at that level.
"""

import contextlib
import time

import pytest

import chase_sentinel as cs
from chase_sentinel import cli
from chase_sentinel.acyclicity import Condition
from chase_sentinel.activeness import Status, Verdict
from chase_sentinel.chase import Budget, CyclicTermFound, Saturated, TraceStep
from chase_sentinel.critdb import restricted_critical_db

from fixtures import (
    ACCESS_CONTROL,
    DATALOG_FIRST_PAIR,
    HANDSHAKE,
    HANDSHAKE_TRUSTED,
    WALK,
    access_control,
    datalog_first_pair,
    handshake,
    handshake_trusted,
    triad,
    triad_guarded,
    vacuous_self,
    walk,
)
from oracles import is_relevant


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE criterion %-2s: FAIL  %s" % (number, label))
        raise
    print("ACCEPTANCE criterion %-2s: PASS  %s" % (number, label))


def _analyze_file(tmp_path, text, *argv):
    f = tmp_path / "input.dlgp"
    f.write_text(text, encoding="utf-8")
    return cli.main(["analyze", str(f), *argv])


def test_criterion_1_handshake_regression(tmp_path, capsys):
    with criterion(1, "handshake set: k=1 terminating, k=0 not proven, < 1 s"):
        start = time.monotonic()
        assert _analyze_file(tmp_path, HANDSHAKE, "--condition", "wa", "--k", "1") == 0
        assert _analyze_file(tmp_path, HANDSHAKE, "--condition", "wa", "--k", "0") == 1
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert elapsed < 1.0, "took %.2fs" % elapsed


def test_criterion_2_trusted_handshake_k1():
    with criterion("2a", "trusted handshake: k=1 not proven, witness replays the alternation"):
        start = time.monotonic()
        rs = handshake_trusted()
        report = cs.k_safe(rs, 1, Condition.WA)
        assert report.verdict is Verdict.NOT_PROVEN
        w = report.witness
        alternation = ("r3", "r4", "r3", "r4")
        assert w.rule_ids == alternation[: len(w.rule_ids)]
        inst = cs.replay_witness(w, rs)
        # the replay rebuilds the alternating derivation: a trusted-server
        # atom plus a typeA pair, then a deeper typeB, then the next pair
        preds = [sorted({a.pred for a in s.added}) for s in w.steps]
        assert preds[0] == ["trustedServer", "typeA"]
        assert preds[1] == ["trustedServer", "typeB"]
        assert inst.ht() >= 3
        assert time.monotonic() - start < 5.0


def _trusted_handshake_two_cycle_witness() -> cs.ChainWitness:
    """A fully chained derivation of the 2-cycle (r3,r4,r4,r4,r3) from the
    database {typeB(a,b), typeA(a,c), typeA(c,a)}, written out by hand."""
    a, b, c = cs.Constant("a"), cs.Constant("b"), cs.Constant("c")
    u1 = cs.SkolemTerm("f_U_1", (a,))
    v1 = cs.SkolemTerm("f_V_2", (u1,))
    v2 = cs.SkolemTerm("f_V_2", (a,))
    v3 = cs.SkolemTerm("f_V_2", (c,))
    u2 = cs.SkolemTerm("f_U_1", (c,))
    atom = cs.atom

    def step(rule_id, added, **h):
        return TraceStep(rule_id, tuple(sorted(h.items())), tuple(added))

    steps = (
        # r3 on the database typeB(a,b): a has no trusted typeA partner
        step("r3", [atom("trustedServer", u1), atom("typeA", a, u1), atom("typeA", u1, a)],
             X_1=a, Y_1=b),
        # r4 on the pair step 1 derived: u1 has no typeB yet
        step("r4", [atom("trustedServer", v1), atom("typeB", u1, v1)],
             X_2=a, Y_2=b, Z_2=u1),
        # r4 on step 2's typeB(u1,v1): typeB(a,b) does not block, b is untrusted
        step("r4", [atom("trustedServer", v2), atom("typeB", a, v2)],
             X_2=u1, Y_2=v1, Z_2=a),
        # r4 on step 3's typeB(a,v2) and the database pair typeA(a,c), typeA(c,a)
        step("r4", [atom("trustedServer", v3), atom("typeB", c, v3)],
             X_2=a, Y_2=v2, Z_2=c),
        # r3 on step 4's typeB(c,v3): c's only typeA partner, a, is untrusted
        step("r3", [atom("trustedServer", u2), atom("typeA", c, u2), atom("typeA", u2, c)],
             X_1=c, Y_1=v3),
    )
    return cs.ChainWitness(
        rule_ids=("r3", "r4", "r4", "r4", "r3"),
        initial=(atom("typeB", a, b), atom("typeA", a, c), atom("typeA", c, a)),
        steps=steps,
        chain=(1, 2, 3, 4, 5),
        renaming=cs.RenamingFunction.identity(),
    )


def test_criterion_2_trusted_handshake_k2():
    """NotProven at k=2 under both conditions.

    The 2-cycle (r3,r4,r4,r4,r3) fails WA and aGRD, and a database admits a
    sequence of active triggers along it in which every step consumes an
    atom first derived by the step just before it (see
    `_trusted_handshake_two_cycle_witness`).  The cycle is therefore active,
    and no sound k=2 proof exists.  NotProven is not a claim of divergence:
    every restricted chase from that database saturates (2,408 runs of at
    most 10 steps)."""
    with criterion("2b", "trusted handshake: k=2 not proven under WA and aGRD, "
                         "fully chained 2-cycle replays, < 5 s"):
        start = time.monotonic()
        rs = handshake_trusted()
        outcomes = {}
        for cond in (Condition.WA, Condition.AGRD):
            report = cs.k_safe(rs, 2, cond)
            outcomes[cond.value] = report
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "took %.2fs" % elapsed
        for name, report in outcomes.items():
            assert report.verdict is Verdict.NOT_PROVEN, (
                "condition %s returned %s" % (name, report.verdict.value)
            )
            cs.replay_witness(report.witness, rs)
        # the expected verdict rests on the hand-written derivation, not on
        # k_safe's own witness
        cycle_ids = ("r3", "r4", "r4", "r4", "r3")
        enumerated = cs.enumerate_k_cycles(rs, 2, cs.dependency_graph(rs))
        assert cycle_ids in {c.rule_ids() for c in enumerated}
        cycle = tuple(rs.by_id[i] for i in cycle_ids)
        for cond in (Condition.WA, Condition.AGRD):
            assert not cs.CycleFunction(cond).check_rules(cycle), cond.value
        witness = _trusted_handshake_two_cycle_witness()
        assert tuple(s.rule_id for s in witness.steps) == cycle_ids
        cs.replay_witness(witness, rs)


def test_criterion_3_walk_rule():
    with criterion(3, "single walk rule: k=1..3 not proven, critical dbs as stated"):
        rs = walk()
        r = rs.rules[0]
        for k in (1, 2, 3):
            report = cs.k_safe(rs, k, Condition.WA)
            assert report.verdict is Verdict.NOT_PROVEN, k
            cs.replay_witness(report.witness, rs)
        verdict = cs.is_path_active((r, r))
        assert verdict.status is Status.ACTIVE
        cs.replay_witness(verdict.witness, rs)
        crit = cs.skolem_critical_db(rs)
        assert [str(a) for a in crit.atoms()] == ["e(*,*)"]
        trace = cs.greedy_restricted(crit, rs)
        assert isinstance(trace.outcome, Saturated) and len(trace.steps) == 0


def test_criterion_4_vacuous_self_rule():
    with criterion(4, "vacuous self-join rule: (r,r) pruned, aGRD, fast terminating"):
        rs = vacuous_self()
        r = rs.rules[0]
        assert list(cs.piece_unifiers(r, r)) == []
        assert not is_relevant((r, r))
        assert cs.is_agrd(rs).value is True
        start = time.monotonic()
        report = cs.k_safe(rs, 1, Condition.AGRD)
        elapsed = time.monotonic() - start
        assert report.verdict is Verdict.TERMINATING
        assert report.stats.cycles_enumerated == 0
        assert elapsed < 0.1, "took %.3fs" % elapsed


def test_criterion_5_triad():
    with criterion(5, "triad: forward path safe, reverse path active, k=1 not proven"):
        rs = triad()
        r1, r2, r3 = rs.rules
        pi1, pi2 = (r1, r2, r3), (r3, r2, r1)
        v1 = cs.is_active_wrt(pi1, restricted_critical_db(pi1))
        assert v1.status is Status.SAFE
        v2 = cs.is_active_wrt(pi2, restricted_critical_db(pi2))
        assert v2.status is Status.ACTIVE
        report = cs.k_safe(rs, 1, Condition.WA)
        assert report.verdict is Verdict.NOT_PROVEN
        named = cs.is_path_active((r3, r2, r1, r3))
        assert named.status is Status.ACTIVE
        cs.replay_witness(named.witness, rs)


def test_criterion_6_guarded_triad_renaming():
    with criterion(6, "guarded triad: renaming machinery is load-bearing"):
        rs = triad_guarded()
        r1, r2, r3 = rs.rules
        # every 1-cycle is safe against its plain critical database
        graph = cs.dependency_graph(rs)
        for cycle in cs.enumerate_k_cycles(rs, 1, graph):
            plain = cs.is_active_wrt(cycle.path, restricted_critical_db(cycle.path))
            assert plain.status is Status.SAFE, cycle.rule_ids()
        # the index-lowering renaming activates the reverse rotation
        verdict = cs.is_path_active((r3, r2, r1))
        assert verdict.status is Status.ACTIVE
        rn = verdict.witness.renaming
        assert not rn.is_identity
        assert all(src.index == 3 and dst.index == 1 for src, dst in rn.mapping)
        cs.replay_witness(verdict.witness, rs)
        report = cs.k_safe(rs, 1, Condition.WA)
        assert report.verdict is Verdict.NOT_PROVEN


def test_criterion_7_access_control():
    with criterion(7, "access control: key loop blocked, cyclic term found, grants saturate"):
        rs = access_control()
        r2, r3, r4, r5 = (rs.by_id[i] for i in ("r2", "r3", "r4", "r5"))
        db = cs.parse("hasKey(a,b).").database()
        assert cs.is_active_wrt((r2, r3, r2), db).status is Status.SAFE
        sub23 = cs.RuleSet((r2, r3))
        trace = cs.skolem_chase(db, sub23, budget=Budget(max_steps=100),
                                detect_cyclic_terms=True)
        assert isinstance(trace.outcome, CyclicTermFound)
        sub45 = cs.RuleSet((r4, r5))
        trace45 = cs.skolem_chase(db, sub45)
        assert isinstance(trace45.outcome, Saturated)
        assert len(trace45.steps) == 2


def test_criterion_8_datalog_first(tmp_path, capsys):
    with criterion(8, "datalog-first strategy flips the verdict"):
        assert _analyze_file(
            tmp_path, DATALOG_FIRST_PAIR, "--condition", "wa", "--k", "1", "--datalog-first"
        ) == 0
        assert _analyze_file(
            tmp_path, DATALOG_FIRST_PAIR, "--condition", "wa", "--k", "1"
        ) == 1
        capsys.readouterr()


def test_criterion_9_bounded_membership():
    with criterion(9, "bounded membership: depth 3 holds, depth 2 refuted with witness"):
        rs = handshake()
        res3 = cs.memb_check(rs, cs.constant_bound(3))
        assert res3.value is True
        res2 = cs.memb_check(rs, cs.constant_bound(2))
        assert res2.value is False
        inst = cs.replay_witness(res2.witness, rs)
        assert inst.ht() == 3
        datalog = cs.parse_rules("[d1] q(X) :- p(X).\n[d2] p(Y) :- q(Y).")
        resd = cs.memb_check(datalog, cs.constant_bound(1))
        assert resd.value is True and resd.phase == 1


def test_criterion_10_property_suites():
    import test_properties as props

    with criterion(10, "property suites: >=200 generated cases each, < 2 min"):
        start = time.monotonic()
        props.test_homomorphisms_match_brute_force_200()
        props.test_acyclicity_containment_200()
        props.test_verdict_monotonicity_generated_200()
        props.test_cycle_enumeration_matches_brute_force_200()
        props.test_parse_serialize_identity_200()
        props.test_generator_postconditions_200()
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, "took %.1fs" % elapsed


def test_criterion_11_soundness_smoke():
    import test_properties as props

    with criterion(11, "soundness smoke: terminating verdicts survive exhaustive chases"):
        props.test_soundness_smoke_regressions()
        props.test_soundness_smoke_generated_50()
