import pytest

import chase_sentinel as cs
from chase_sentinel.gen import GenParams, GenerationError, generate


def _chain_ok(atoms):
    for a, b in zip(atoms, atoms[1:]):
        if a.args[-1] != b.args[0]:
            return False
    return True


def test_deterministic_under_seed():
    p = GenParams(count=5, seed=42)
    assert generate(p) == generate(p)
    assert generate(p) != generate(GenParams(count=5, seed=43))


def test_count_zero_gives_empty_set():
    assert len(generate(GenParams(count=0))) == 0


def test_paper_scenario_shape():
    p = GenParams(
        count=30,
        predicate_pool=20,
        arity=4,
        max_repeated_relations=3,
        body_atoms=1,
        head_atoms=3,
        head_shape="chained",
        seed=7,
    )
    rs = generate(p)
    for r in rs:
        assert len(r.body) == 1 and len(r.head) == 3
        for a in r.all_atoms:
            assert a.arity == 4
        counts = {}
        for a in r.all_atoms:
            counts[a.pred] = counts.get(a.pred, 0) + 1
        assert max(counts.values()) <= 3
        assert _chain_ok(r.head)
        assert r.existentials  # fresh variables fill unshared head slots


def test_discrete_heads_share_no_variables():
    rs = generate(GenParams(count=20, head_shape="discrete", seed=3))
    for r in rs:
        seen = set()
        for a in r.head:
            vars_here = {t.name for t in a.args}
            assert not (vars_here & seen)
            seen |= vars_here


def test_body_atoms_chain_too():
    rs = generate(GenParams(count=10, body_atoms=3, head_atoms=1, seed=1))
    for r in rs:
        assert _chain_ok(r.body)


def test_rule_set_is_standardized_and_schema_consistent():
    rs = generate(GenParams(count=15, seed=9))
    assert all(arity == 4 for arity in rs.schema.values())
    # RuleSet construction validates standardized-apart variables
    cs.RuleSet(rs.rules)


def test_unsatisfiable_parameters_raise():
    with pytest.raises(GenerationError):
        generate(GenParams(count=1, predicate_pool=1, max_repeated_relations=1,
                           body_atoms=1, head_atoms=3))
    with pytest.raises(GenerationError):
        GenParams(count=1, arity=0)
    with pytest.raises(GenerationError):
        GenParams(count=1, head_shape="weird")


def test_no_constants_generated():
    rs = generate(GenParams(count=10, seed=5))
    assert rs.constants == ()


def test_terminating_filter_pipeline():
    # sets the analyzer keeps as terminating survive small exhaustive chases
    import random

    from chase_sentinel.chase import Budget
    from chase_sentinel.model import Constant, Instance
    from oracles import longest_restricted_run

    rng = random.Random(1001)
    budget = Budget(max_atoms=5000, max_probes=30_000)  # count-only
    kept = 0
    for seed in range(12):
        rs = generate(GenParams(count=2, predicate_pool=6, arity=2,
                                head_atoms=2, seed=seed))
        report = cs.k_safe(rs, 1, cs.Condition.WA, budget=budget)
        if report.verdict is not cs.Verdict.TERMINATING:
            continue
        kept += 1
        consts = [Constant(c) for c in "ab"]
        preds = list(rs.schema.items())
        for _ in range(3):
            atoms = {
                cs.Atom(p, tuple(rng.choice(consts) for _ in range(arity)))
                for p, arity in rng.sample(preds, k=min(3, len(preds)))
            }
            cap = 10 * 2 * len(rs)
            assert longest_restricted_run(Instance(sorted(atoms, key=str)), rs, cap=cap) is not None
    assert kept > 0
