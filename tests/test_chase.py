import random
import signal

import pytest

import chase_sentinel as cs
from chase_sentinel.chase import (
    Budget,
    BudgetExhausted,
    CyclicTermFound,
    Saturated,
    datalog_first_filter,
    greedy_restricted,
    skolem_chase,
)
from chase_sentinel.critdb import skolem_critical_db
from chase_sentinel.gen import GenParams, generate
from chase_sentinel.hom import find_homomorphisms, is_active_trigger
from chase_sentinel.model import Atom, Constant

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
    greedy_restricted_rescanning,
    longest_restricted_run,
    restricted_chase_exhaustive,
    skolem_chase_rescanning,
)


def _db(text):
    return cs.parse(text).database()


def fingerprint(inst):
    return frozenset(inst.atoms())


def test_skolem_chase_empty_rule_set_saturates():
    trace = skolem_chase(_db("p(a)."), cs.RuleSet(()))
    assert isinstance(trace.outcome, Saturated)
    assert trace.steps == []


def test_skolem_chase_access_pair_r2_r3_diverges_with_matching_prefix():
    rs = access_control()
    sub = cs.RuleSet((rs.by_id["r2"], rs.by_id["r3"]))
    trace = skolem_chase(_db("hasKey(a,b)."), sub, budget=Budget(max_steps=6))
    assert isinstance(trace.outcome, BudgetExhausted)
    assert trace.rule_sequence()[:3] == ("r2", "r3", "r2")
    assert [str(a) for a in trace.steps[0].added] == [
        "enters(a,f_U_2(a,b))",
        "keyOpens(b,f_U_2(a,b))",
    ]
    assert [str(a) for a in trace.steps[1].added] == [
        "hasKey(a,f_V_3(a,f_U_2(a,b)))",
        "keyOpens(f_V_3(a,f_U_2(a,b)),f_U_2(a,b))",
    ]
    assert "enters(a,f_U_2(a,f_V_3(a,f_U_2(a,b))))" in [
        str(a) for a in trace.steps[2].added
    ]


def test_skolem_chase_cyclic_term_detection():
    rs = access_control()
    sub = cs.RuleSet((rs.by_id["r2"], rs.by_id["r3"]))
    trace = skolem_chase(
        _db("hasKey(a,b)."), sub, budget=Budget(max_steps=50), detect_cyclic_terms=True
    )
    assert isinstance(trace.outcome, CyclicTermFound)
    assert "f_U_2" in str(trace.outcome.term)


def test_skolem_chase_grant_pair_saturates_in_two_applications():
    rs = access_control()
    sub = cs.RuleSet((rs.by_id["r4"], rs.by_id["r5"]))
    trace = skolem_chase(_db("hasKey(a,b)."), sub)
    assert isinstance(trace.outcome, Saturated)
    assert trace.rule_sequence() == ("r4", "r5")


def test_skolem_chase_deterministic():
    rs = handshake()
    t1 = skolem_chase(_db("typeB(t,r)."), rs, budget=Budget(max_steps=8))
    t2 = skolem_chase(_db("typeB(t,r)."), rs, budget=Budget(max_steps=8))
    assert t1.rule_sequence() == t2.rule_sequence()
    assert [s.added for s in t1.steps] == [s.added for s in t2.steps]


def test_skolem_chase_monotone_growth():
    rs = handshake()
    trace = skolem_chase(_db("typeB(t,r)."), rs, budget=Budget(max_steps=8))
    inst = trace.replay(rs)
    sizes = []
    running = cs.Instance(trace.initial)
    sizes.append(len(running))
    for i, step in enumerate(trace.steps, 1):
        rule = rs.by_id[step.rule_id]
        cs.apply_trigger(rule, dict(step.bindings), running, i)
        sizes.append(len(running))
    assert sizes == sorted(sizes)
    assert fingerprint(running) == fingerprint(inst)


def test_restricted_mode_traces_are_valid_skolem_traces():
    # the restricted run saturates after the two steps the skolem chase
    # starts with, and replays step for step under skolem application
    rs = handshake()
    restricted = greedy_restricted(_db("typeB(t,r)."), rs)
    skolem = skolem_chase(_db("typeB(t,r)."), rs, budget=Budget(max_steps=2))
    assert isinstance(restricted.outcome, Saturated)
    assert restricted.rule_sequence() == skolem.rule_sequence() == ("r1", "r2")
    assert restricted.steps == skolem.steps
    assert fingerprint(restricted.replay(rs)) == fingerprint(restricted.final)


def test_exhaustive_restricted_trusted_handshake_saturates():
    rs = handshake_trusted()
    traces = restricted_chase_exhaustive(
        _db("typeB(t,r)."), rs, budget=Budget(max_steps=12)
    )
    assert traces
    assert all(isinstance(t.outcome, Saturated) for t in traces)
    assert max(len(t.steps) for t in traces) <= 5


def test_exhaustive_restricted_walk_always_exceeds_budget():
    traces = restricted_chase_exhaustive(
        _db("e(a,b)."), walk(), budget=Budget(max_steps=8)
    )
    assert traces
    assert all(isinstance(t.outcome, BudgetExhausted) for t in traces)


def test_exhaustive_restricted_empty_database():
    traces = restricted_chase_exhaustive(cs.Instance(), handshake(), budget=Budget(max_steps=5))
    assert len(traces) == 1
    assert isinstance(traces[0].outcome, Saturated)
    assert traces[0].steps == []


def test_longest_restricted_run():
    rs = handshake_trusted()
    n = longest_restricted_run(_db("typeB(t,r)."), rs, cap=40)
    assert n is not None and n <= 5
    assert longest_restricted_run(_db("e(a,b)."), walk(), cap=6) is None


def test_trusted_handshake_two_cycle_blocks_at_fifth_step():
    # the alternating 2-cycle applies four steps and then finds no active
    # trigger for its closing element
    rs = handshake_trusted()
    r3 = rs.by_id["r3"]
    trace = greedy_restricted(_db("typeB(t,r)."), rs, budget=Budget(max_steps=4))
    assert trace.rule_sequence() == ("r3", "r4", "r3", "r4")
    homs = list(find_homomorphisms(r3.body, trace.final))
    assert homs
    assert not any(is_active_trigger(r3, h, trace.final) for h in homs)


def test_greedy_restricted_trusted_handshake_saturates():
    # full saturation also fires the cross trigger (r4 with z back at t),
    # one application beyond the alternating display
    rs = handshake_trusted()
    trace = greedy_restricted(_db("typeB(t,r)."), rs, budget=Budget(max_steps=50))
    assert isinstance(trace.outcome, Saturated)
    assert trace.rule_sequence() == ("r3", "r4", "r3", "r4", "r4")


def test_grant_pair_skolem_and_exhaustive_restricted_agree():
    rs = access_control()
    sub = cs.RuleSet((rs.by_id["r4"], rs.by_id["r5"]))
    skolem = skolem_chase(_db("hasKey(a,b)."), sub)
    assert isinstance(skolem.outcome, Saturated)
    traces = restricted_chase_exhaustive(_db("hasKey(a,b)."), sub, budget=Budget(max_steps=10))
    assert traces and all(isinstance(t.outcome, Saturated) for t in traces)
    for t in traces:
        final = t.replay(sub)
        assert fingerprint(final) == fingerprint(skolem.final)


def test_datalog_first_filter_examples():
    rs = datalog_first_pair()
    r1, r2 = rs.rules
    assert datalog_first_filter((r2, r1, r2), rs)
    assert not datalog_first_filter((r1, r2, r1), rs)
    assert not datalog_first_filter((r1, r1), rs)
    # paths of only datalog rules are vacuously admissible
    ds = cs.parse_rules("[d] q(X) :- p(X).")
    d = ds.rules[0]
    assert datalog_first_filter((d, d), ds)
    # no Datalog rules in the set: nothing to prioritize
    trusted = handshake_trusted()
    r3, r4 = trusted.rules
    assert datalog_first_filter((r3, r4, r3), trusted)


def test_trace_json_lines():
    rs = handshake()
    trace = skolem_chase(_db("typeB(t,r)."), rs, budget=Budget(max_steps=2))
    lines = trace.to_json_lines().strip().splitlines()
    assert len(lines) == len(trace.steps) + 1
    import json

    first = json.loads(lines[0])
    assert first["step"] == 1 and first["rule"] in ("r1", "r2")


_BUDGETS = {
    "steps": Budget(max_steps=5),
    "atoms": Budget(max_atoms=5),
    "height": Budget(max_height=3),
    "probes": Budget(max_probes=20),
}


@pytest.mark.parametrize("run", [skolem_chase, greedy_restricted])
@pytest.mark.parametrize("reason", sorted(_BUDGETS))
def test_every_budget_ends_the_walk_and_the_trace_replays(run, reason):
    rs = walk()
    trace = run(_db("e(a,b)."), rs, budget=_BUDGETS[reason])
    assert trace.outcome == BudgetExhausted(reason)
    assert trace.steps
    assert fingerprint(trace.replay(rs)) == fingerprint(trace.final)


@pytest.mark.parametrize(
    "run, reason, steps",
    [(skolem_chase, "height", 999), (greedy_restricted, "probes", 815)],
    ids=["skolem_chase", "greedy_restricted"],
)
def test_unbudgeted_walk_ends_on_a_default_budget(run, reason, steps):
    # budget=None means DEFAULT_BUDGET: the diverging walk stops on its
    # height limit (skolem) or probe limit (restricted); the alarm turns a
    # chase that never stops into a failure
    def give_up(signum, frame):
        raise TimeoutError("the unbudgeted chase ran for 120 s")

    rs = walk()
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(120)
    try:
        trace = run(_db("e(a,b)."), rs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert trace.outcome.reason == reason
    assert repr(trace) == "ChaseTrace(outcome=BudgetExhausted(reason=%r), steps=%d)" % (
        reason,
        steps,
    )
    assert fingerprint(trace.replay(rs)) == fingerprint(trace.final)


@pytest.mark.parametrize(
    "run, budget",
    [
        (skolem_chase, Budget(max_steps=10_000, max_probes=20_000)),
        (greedy_restricted, Budget(max_steps=200, max_probes=100_000)),
    ],
    ids=["skolem_chase", "greedy_restricted"],
)
def test_walk_probes_grow_linearly_with_the_steps(run, budget):
    # semi-naive rounds charge the skolem walk one probe a step, and the
    # dead-trigger memo leaves the restricted walk one activeness test a
    # step; rescanning runs out of these probe budgets after 199 and 81 steps
    rs = walk()
    trace = run(_db("e(a,b)."), rs, budget=budget)
    assert trace.outcome == BudgetExhausted("steps")
    assert len(trace.steps) == budget.max_steps
    assert fingerprint(trace.replay(rs)) == fingerprint(trace.final)


# The differential runs compare the incremental loop with the rescanning
# oracles under budgets that end on steps, atoms or height, or on a cyclic
# term: never on probes, whose counts legitimately differ.

_POLICIES = [
    pytest.param(skolem_chase, skolem_chase_rescanning, {}, id="skolem"),
    pytest.param(
        skolem_chase, skolem_chase_rescanning, {"detect_cyclic_terms": True}, id="skolem-cyclic"
    ),
    pytest.param(greedy_restricted, greedy_restricted_rescanning, {}, id="restricted"),
    pytest.param(
        greedy_restricted,
        greedy_restricted_rescanning,
        {"datalog_first": True},
        id="restricted-datalog-first",
    ),
]


def assert_same_run(run, oracle, database, rs, budget, **kwargs):
    got = run(database, rs, budget=budget, **kwargs)
    want = oracle(database, rs, budget=budget, **kwargs)
    assert budget.max_probes is None
    assert got.to_json_lines() == want.to_json_lines()
    assert got.final.atoms() == want.final.atoms()


def _access_facts(rng, n):
    people, rooms, keys = (["%s%d" % (k, i) for i in range(3)] for k in ("p", "room", "key"))
    shapes = [
        lambda: "memOf(%s,%s)." % (rng.choice(people), rng.choice(rooms)),
        lambda: "hasKey(%s,%s)." % (rng.choice(people), rng.choice(keys)),
        lambda: "keyOpens(%s,%s)." % (rng.choice(keys), rng.choice(rooms)),
        lambda: "grants(%s,%s,%s)." % (rng.choice(people), rng.choice(people), rng.choice(keys)),
        lambda: "emp(%s)." % rng.choice(people),
    ]
    return "".join(shapes[i % 5]() for i in range(n))


@pytest.mark.parametrize("run, oracle, kwargs", _POLICIES)
def test_incremental_chase_matches_the_rescanning_oracle_on_fixtures(run, oracle, kwargs):
    budget = Budget(max_steps=150, max_atoms=3_000, max_height=5)
    for make in (access_control, datalog_first_pair, handshake, handshake_trusted,
                 triad, triad_guarded, vacuous_self, walk):
        rs = make()
        assert_same_run(run, oracle, skolem_critical_db(rs), rs, budget, **kwargs)


@pytest.mark.parametrize("run, oracle, kwargs", _POLICIES)
def test_incremental_chase_matches_the_rescanning_oracle_on_the_walk(run, oracle, kwargs):
    steps = 300 if run is skolem_chase else 100
    assert_same_run(run, oracle, _db("e(a,b)."), walk(), Budget(max_steps=steps), **kwargs)


@pytest.mark.parametrize("run, oracle, kwargs", _POLICIES)
def test_incremental_chase_matches_the_rescanning_oracle_on_access_facts(run, oracle, kwargs):
    rs = access_control()
    for seed in range(5):
        db = _db(_access_facts(random.Random(seed), 10 + 5 * seed))
        assert_same_run(run, oracle, db, rs, Budget(max_steps=200, max_height=4), **kwargs)


@pytest.mark.parametrize("run, oracle, kwargs", _POLICIES)
def test_incremental_chase_matches_the_rescanning_oracle_on_generated_sets(run, oracle, kwargs):
    budget = Budget(max_steps=60, max_atoms=60, max_height=6)
    for seed in range(50):
        rs = generate(GenParams(count=3, predicate_pool=4, arity=2, body_atoms=1 + seed % 2,
                                head_atoms=2, seed=seed))
        rng = random.Random(seed)
        facts = [
            Atom(pred, tuple(Constant(rng.choice("abc")) for _ in range(arity)))
            for pred, arity in sorted(rs.schema.items())
            for _ in range(rng.randrange(4))
        ]
        assert_same_run(run, oracle, facts, rs, budget, **kwargs)

