import functools
import itertools
import random
import re
from dataclasses import replace

import pytest

import chase_sentinel as cs
from chase_sentinel import activeness
from chase_sentinel.activeness import Status, Verdict, is_active_wrt, is_path_active, k_safe, replay_witness
from chase_sentinel.chase import Budget, Meter
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
from oracles import (
    ChainedSearchUncached,
    indexed_constants,
    is_active_wrt_reference,
    is_active_wrt_uncached,
    renaming_sweep,
    replay_witness_reference,
    without_step_one_body,
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
    assert is_active_wrt(pi1, restricted_critical_db(pi1)).status is Status.SAFE
    verdict = is_active_wrt(pi2, restricted_critical_db(pi2))
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
    plain = is_active_wrt(pi2, restricted_critical_db(pi2))
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
        for cycle in cs.enumerate_k_cycles(1, cs.dependency_graph(rs)):
            if len(indexed_constants(restricted_critical_db(cycle.path))) <= 6:
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
        plain = is_active_wrt(path, restricted_critical_db(path))
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


@pytest.mark.parametrize(
    "ids, budget, status",
    [
        ("r1,r2,r3", None, Status.SAFE),
        ("r3,r2,r1", None, Status.ACTIVE),
        # the budget runs out on the third step, with two steps' atoms added
        ("r3,r2,r1", Budget(max_steps=2), Status.INCONCLUSIVE),
    ],
    ids=["safe", "active", "inconclusive"],
)
def test_is_active_wrt_leaves_its_database_unchanged(ids, budget, status):
    rs = triad()
    path = tuple(rs.by_id[i] for i in ids.split(","))
    db = restricted_critical_db(path)
    before = db.atoms()
    verdict = is_active_wrt(path, db, meter=Meter(budget))
    assert verdict.status is status
    assert db.atoms() == before and len(db) == len(before) and db.ht() == 1
    if status is Status.ACTIVE:
        assert verdict.witness.initial == before
        replay_witness(verdict.witness, rs)


def _handshake_trusted_witness():
    """The k=1 WA witness of the trusted handshake: the cycle (r3,r4,r3),
    chained (1,2,3), step 3 consuming only what step 2 derived."""
    rs = handshake_trusted()
    witness = k_safe(rs, 1, cs.Condition.WA).witness
    assert witness.rule_ids == ("r3", "r4", "r3") and witness.chain == (1, 2, 3)
    replay_witness(witness, rs)
    return rs, witness


@pytest.mark.parametrize("rule_ids", [("r4", "r3", "r4"), ("r3",), ("r1", "r2", "r3", "r4")])
def test_replay_witness_rejects_steps_that_apply_another_cycle(rule_ids):
    rs, witness = _handshake_trusted_witness()
    with pytest.raises(AssertionError, match="steps apply"):
        replay_witness(replace(witness, rule_ids=rule_ids), rs)


WITNESS_TAMPERING = [
    pytest.param(without_step_one_body, "body atom .* missing at step 1", id="initial-atom-dropped"),
    pytest.param(
        lambda rs, w: replace(w, steps=(replace(w.steps[0], added=w.steps[0].added[1:]),) + w.steps[1:]),
        "step 1 added",
        id="added-changed",
    ),
    pytest.param(
        lambda rs, w: replace(w, initial=w.initial + w.steps[0].added),
        "trigger of step 1 is not active",
        id="head-atoms-in-initial",
    ),
    pytest.param(
        lambda rs, w: replace(w, steps=w.steps[:1] + w.steps, rule_ids=w.rule_ids[:1] + w.rule_ids),
        "trigger of step 2 is not active",
        id="step-repeated",
    ),
    pytest.param(
        lambda rs, w: replace(w, chain=w.chain[:-1]), "chain does not span", id="chain-cut-short"
    ),
    pytest.param(
        lambda rs, w: replace(w, chain=(1, 3)),
        "step 3 does not consume step 1 output",
        id="edge-not-consumed",
    ),
]


@pytest.mark.parametrize("tamper, message", WITNESS_TAMPERING)
def test_replay_witness_rejects_tampered_evidence(tamper, message):
    rs, witness = _handshake_trusted_witness()
    with pytest.raises(AssertionError, match=message):
        replay_witness(tamper(rs, witness), rs)


# The chained search against two references of tests/oracles.py, on the
# restricted critical database of each cycle, with and without the rule
# set's Datalog rules (as Datalog-first), at min_height 0 and 3, under 5,000
# probes a search.  The library search runs once per case: `_differential`
# runs each corpus once, and the two tests of a corpus check its records.
#
# The memo-free reference searches in the same order, and the memo skips
# only subtrees that fail, so a search may decide where the reference runs
# out of probes, but no status flips, an active path has the reference's
# witness, a completed search records the reference's merges in the same
# order, and no search charges more probes.  The random corpus holds the
# cycle (t2,t2,t2) of draw 226, whose witness changes under a memo keyed
# on depth and atoms alone, without the chain-reached atoms.
#
# The uncached search differs only in the caches, which only skip building
# and matching, so it must give the same verdict, witness, merges (content
# and order) and probes on every search, exhausted ones included.
#
# Both references build their witness chains with their own chain rule,
# `_chain_through`, not with the flag the library search keeps per step.

_FIXTURE_SETS = (access_control, datalog_first_pair, handshake, handshake_trusted,
                 triad, triad_guarded, vacuous_self, walk)


def _first_cycles(rs, per_k: int):
    graph = cs.dependency_graph(rs)
    for k in (1, 2):
        for cycle in itertools.islice(cs.enumerate_k_cycles(k, graph), per_k):
            yield rs, cycle.path


def _fixture_cycles() -> list:
    return [cycle for make in _FIXTURE_SETS for cycle in _first_cycles(make(), 20)]


def _random_cycles() -> list:
    import test_properties as props

    rng = random.Random(0)
    draws = [props.random_rule_set(rng, 4) for _ in range(300)]
    return [cycle for rs in draws for cycle in _first_cycles(rs, 3)]


_CORPORA = {"fixture": _fixture_cycles, "random": _random_cycles}


@functools.cache
def _differential(corpus: str) -> tuple:
    """The corpus's cycle count, and per case its key and the (verdict,
    merges, probes) of the library, uncached and memo-free searches."""
    cycles = _CORPORA[corpus]()
    records = []
    for rs, path in cycles:
        for datalog_rules in dict.fromkeys(((), rs.datalog_rules)):
            for min_height in (0, 3):
                case = (tuple(r.id for r in path), bool(datalog_rules), min_height)
                meter = Meter(Budget(max_probes=5_000))
                merges: list = []
                got = is_active_wrt(path, restricted_critical_db(path), datalog_rules=datalog_rules,
                                    min_height=min_height, meter=meter, _collect=merges)
                unc_meter = Meter(Budget(max_probes=5_000))
                unc, unc_merges = is_active_wrt_uncached(
                    path, restricted_critical_db(path), unc_meter, datalog_rules, min_height
                )
                ref_meter = Meter(Budget(max_probes=5_000))
                ref, ref_merges = is_active_wrt_reference(
                    path, restricted_critical_db(path), ref_meter, datalog_rules, min_height
                )
                records.append((case, (got, merges, meter.probes),
                                (unc, unc_merges, unc_meter.probes),
                                (ref, ref_merges, ref_meter.probes)))
    return len(cycles), tuple(records)


def _assert_matches_memo_free_reference(corpus: str) -> None:
    tally = {"decided_now": 0, "probes": 0, "reference_probes": 0}
    for case, (got, merges, probes), _, (ref, ref_merges, ref_probes) in _differential(corpus)[1]:
        tally["probes"] += probes
        tally["reference_probes"] += ref_probes
        assert probes <= ref_probes, case
        if ref.status is Status.INCONCLUSIVE:
            tally["decided_now"] += got.status is not Status.INCONCLUSIVE
            continue
        assert got.status is ref.status, case
        assert got.witness == ref.witness, case
        assert merges == ref_merges, case
    assert tally["probes"] < tally["reference_probes"]
    assert tally["decided_now"] > 0


def _assert_matches_uncached_search(corpus: str) -> None:
    cycles, records = _differential(corpus)
    for case, got, (unc, unc_merges, unc_probes), _ in records:
        if unc.status is Status.INCONCLUSIVE:
            unc_merges = []  # an exhausted search hands on no merges
        assert got == (unc, unc_merges, unc_probes), case
    assert len(records) >= 2 * cycles


def test_chained_search_matches_the_memo_free_reference_on_fixture_cycles():
    _assert_matches_memo_free_reference("fixture")


def test_chained_search_matches_the_memo_free_reference_on_random_cycles():
    _assert_matches_memo_free_reference("random")


def test_chained_search_matches_the_uncached_search_on_fixture_cycles():
    _assert_matches_uncached_search("fixture")


def test_chained_search_matches_the_uncached_search_on_random_cycles():
    _assert_matches_uncached_search("random")


# The whole renaming worklist against the uncached search: the handshake
# 2-cycle (r1,r2,r1,r2,r1) runs out of the benchmark's 50,000 probes across
# its renamings, so every search must charge its probes at the same points.


def _path_searches(monkeypatch, search_class, path, budget) -> tuple:
    """`is_path_active` run on `search_class`: its verdict, and per search
    the verdict, the merges handed on and the probes charged so far."""
    searches = []
    run_search = activeness.is_active_wrt

    def recording(*args, meter, _collect, **kwargs):
        verdict = run_search(*args, meter=meter, _collect=_collect, **kwargs)
        searches.append((verdict, list(_collect), meter.probes))
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(activeness, "_Search", search_class)
        patch.setattr(activeness, "is_active_wrt", recording)
        return is_path_active(path, budget=budget), searches


def test_exhausted_renaming_worklist_matches_the_uncached_search(monkeypatch):
    rs = handshake()
    path = tuple(rs.by_id[rid] for rid in ("r1", "r2", "r1", "r2", "r1"))
    budget = Budget(max_steps=20_000, max_atoms=50_000, max_probes=50_000)
    got = _path_searches(monkeypatch, activeness._Search, path, budget)
    assert got == _path_searches(monkeypatch, ChainedSearchUncached, path, budget)
    verdict, searches = got
    assert verdict.reason == "probes" and len(searches) > 10
    assert searches[-1][2] == 50_001


def test_a_long_path_searches_without_recursion():
    # the 1,201-step path twice around a 600-rule ring with one existential
    # rule: one stack frame per path position would overflow Python's stack
    n = 600
    rs = cs.parse_rules("[r0] p1(Y,Z) :- p0(X,Y).\n" + "".join(
        "[r%d] p%d(X,Y) :- p%d(X,Y).\n" % (i, (i + 1) % n, i) for i in range(1, n)
    ))
    path = tuple(rs.rules[j % n] for j in range(2 * n + 1))
    verdict = is_path_active(path)
    assert verdict.status is Status.ACTIVE
    assert verdict.witness.chain == tuple(range(1, 2 * n + 2))
    replay_witness(verdict.witness, rs)


# `replay_witness` against the step loop it replaced, kept in tests/oracles.py:
# the NotProven witnesses at k = 1 under WA of the fixture sets and of the
# first 30 generated sets (the benchmark's `generated` parameters) that
# give one under 2,000 probes a path, each as found, under every tampering
# of WITNESS_TAMPERING, and under four seeded random ones.  Both replays
# must accept the same evidence, and rebuild the same instance from it.


def _not_proven_witnesses():
    from test_acyclicity import GENERATED

    for make in _FIXTURE_SETS:
        rs = make()
        witness = k_safe(rs, 1, cs.Condition.WA).witness
        if witness is not None:
            yield rs, witness
    found = 0
    for seed in itertools.count():
        rs = cs.generate(cs.GenParams(seed=seed, **GENERATED))
        witness = k_safe(rs, 1, cs.Condition.WA, budget=Budget(max_probes=2_000)).witness
        if witness is not None:
            yield rs, witness
            found += 1
            if found == 30:
                return


def _random_tamperings(rng, w):
    """Drop an initial atom, drop an added atom, swap two steps (with their
    rule ids, so the replay runs), and drop one chain index."""
    i = rng.randrange(len(w.initial))
    yield replace(w, initial=w.initial[:i] + w.initial[i + 1:])
    j = rng.choice([j for j, step in enumerate(w.steps) if step.added])
    a = rng.randrange(len(w.steps[j].added))
    steps = list(w.steps)
    steps[j] = replace(steps[j], added=steps[j].added[:a] + steps[j].added[a + 1:])
    yield replace(w, steps=tuple(steps))
    i, j = sorted(rng.sample(range(len(w.steps)), 2))
    steps = list(w.steps)
    steps[i], steps[j] = steps[j], steps[i]
    yield replace(w, steps=tuple(steps), rule_ids=tuple(step.rule_id for step in steps))
    cut = rng.randrange(len(w.chain))
    yield replace(w, chain=w.chain[:cut] + w.chain[cut + 1:])


def _replayed(replay, witness, rs):
    """The atoms a replay rebuilds, with their first steps; or, when it
    rejects the witness, the check that failed and the step it names."""
    try:
        inst = replay(witness, rs)
    except AssertionError as e:
        message = str(e)
        check = re.search(r"missing|not active|added|derived|span|consume|apply", message)
        step = re.search(r"step (\d+)", message)
        return check.group().replace("derived", "added"), step and step.group(1)
    return [(a, inst.first_derived_at(a)) for a in inst.atoms()]


def test_replay_witness_matches_the_step_loop_reference():
    rng = random.Random(0)
    tally = {"witnesses": 0, "accepted": 0, "rejected": 0}
    for rs, witness in _not_proven_witnesses():
        tally["witnesses"] += 1
        tampered = [tamper(rs, witness) for tamper, _ in (p.values for p in WITNESS_TAMPERING)]
        for w in [witness, *tampered, *_random_tamperings(rng, witness)]:
            got = _replayed(replay_witness, w, rs)
            assert got == _replayed(replay_witness_reference, w, rs), (witness.rule_ids, w)
            tally["rejected" if isinstance(got, tuple) else "accepted"] += 1
    # 20 of the 350 tamperings leave valid evidence: each drops an initial
    # atom that no step reads
    assert tally == {"witnesses": 35, "accepted": 55, "rejected": 330}


def test_generated_set_two_stays_within_its_probe_count(monkeypatch):
    # k_safe/gen002/wa/k1 of the benchmark's `generated` workload, under that
    # workload's budget: 38 cycles, most of the work in a few chained
    # searches whose failed states repeat.  Without the memo of failed
    # states the run charges 422,954 probes; with it, 140,415.
    rs = cs.generate(cs.GenParams(
        seed=2, count=10, predicate_pool=20, arity=2, max_repeated_relations=3,
        body_atoms=1, head_atoms=2, head_shape="discrete",
    ))
    budget = Budget(
        max_steps=20_000, max_height=None, max_atoms=50_000, wall_clock_s=None,
        max_probes=20_000, max_renamings=200, max_cycles=2_000, total_wall_clock_s=None,
    )
    probes = [0]
    charge_probe = Meter.charge_probe

    def counting(meter):
        probes[0] += 1
        charge_probe(meter)

    monkeypatch.setattr(Meter, "charge_probe", counting)
    report = k_safe(rs, 1, cs.Condition.WA, budget=budget)
    assert report.verdict is Verdict.NOT_PROVEN
    replay_witness(report.witness, rs)
    assert probes[0] <= 200_000


def _generated_set(seed: int) -> cs.RuleSet:
    return cs.generate(cs.GenParams(
        seed=seed, count=10, predicate_pool=20, arity=2, max_repeated_relations=3,
        body_atoms=1, head_atoms=2, head_shape="discrete",
    ))


def test_warm_rule_memos_change_no_verdict_witness_or_probe(monkeypatch):
    # Frozen bodies and trigger heads live on the rules, so a rule set that
    # was analysed before runs on warm memos.  Each call on it must return
    # and charge exactly what the same call on a fresh parse does.
    budget = Budget(max_steps=2_000, max_atoms=10_000, max_probes=3_000, max_renamings=50,
                    max_cycles=100)
    delta = cs.parse_bound("const:3")
    probes = [0]
    charge_probe = Meter.charge_probe

    def counting(meter):
        probes[0] += 1
        charge_probe(meter)

    monkeypatch.setattr(Meter, "charge_probe", counting)

    def outcome(call, rs):
        probes[0] = 0
        result = call(rs)
        if hasattr(result, "stats"):
            result = replace(result, stats=replace(result.stats, elapsed_s=0.0))
        return repr(result), probes[0]

    calls = (
        lambda rs: k_safe(rs, 1, cs.Condition.WA, budget=budget),
        lambda rs: k_safe(rs, 1, cs.Condition.WA, budget=budget),
        lambda rs: cs.memb_check(rs, delta, budget=budget),
    )
    makers = list(_FIXTURE_SETS) + [functools.partial(_generated_set, s) for s in range(20)]
    warm_heads = warm_bodies = 0
    for make in makers:
        rs = make()
        warm = [outcome(call, rs) for call in calls]
        fresh = [outcome(call, make()) for call in calls]
        assert warm == fresh, make
        warm_heads += sum(len(r.trigger_heads) for r in rs)
        warm_bodies += sum(len(r.frozen_bodies) for r in rs)
    assert warm_heads and warm_bodies  # the second and third calls did run warm
