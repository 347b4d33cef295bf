import itertools

import pytest

import chase_sentinel as cs
from chase_sentinel import critdb
from chase_sentinel.chase import BudgetExceeded
from chase_sentinel.critdb import (
    RenamingFunction,
    all_renamings,
    apply_renaming,
    propose_merges,
    restricted_critical_db,
    skolem_critical_db,
)
from chase_sentinel.model import IndexedConstant

from fixtures import vacuous_self, walk
from oracles import indexed_constants, near_miss_recorder, orient_reference


def _proposals(near_misses):
    """propose_merges over the reference orientation of (required, found)
    pair sets."""
    return propose_merges(m for m in map(orient_reference, near_misses) if m)


def test_skolem_critical_db_walk_rule():
    db = skolem_critical_db(walk())
    assert [str(a) for a in db.atoms()] == ["e(*,*)"]


def test_skolem_critical_db_includes_rule_constants():
    rs = cs.parse_rules("[r] p(X) :- p(X), q(a).")
    db = skolem_critical_db(rs)
    atoms = {str(a) for a in db.atoms()}
    assert atoms == {"p(*)", "p(a)", "q(*)", "q(a)"}


def test_skolem_critical_db_size_is_checked_before_it_is_built(monkeypatch):
    # (|constants| + 1)^9 = 4^9 = 262,144 atoms: over the atom budget, so
    # MFA and bounded membership end on `atoms` without building any
    rs = cs.parse_rules(
        "[r] q(a,b,c,X1,X2,X3,X4,X5,X6) :- q(X1,X2,X3,X4,X5,X6,Y1,Y2,Y3)."
    )
    built = [0]
    full_relation_atoms = critdb.full_relation_atoms

    def counted(pred, arity, domain):
        for a in full_relation_atoms(pred, arity, domain):
            built[0] += 1
            assert built[0] <= 1000, "the database is being built"
            yield a

    monkeypatch.setattr(critdb, "full_relation_atoms", counted)
    budget = cs.Budget(max_atoms=10)
    res = cs.check_condition(cs.Condition.MFA, rs, budget)
    assert (res.value, res.witness) == (None, "atoms")
    memb = cs.memb_check(rs, cs.constant_bound(3), budget=budget)
    assert (memb.value, memb.phase, memb.reason) == (None, 1, "atoms")
    with pytest.raises(BudgetExceeded):
        skolem_critical_db(rs, max_atoms=262_143)
    assert built[0] == 0
    # at the budget exactly, it is built
    assert len(skolem_critical_db(walk(), max_atoms=1)) == 1


def test_skolem_critical_db_empty_schema():
    assert len(skolem_critical_db(cs.RuleSet(()))) == 0


def test_restricted_critical_db_vacuous_self_pair():
    r = vacuous_self().rules[0]
    db = restricted_critical_db((r, r))
    assert [str(a) for a in db.atoms()] == [
        "t(X_1__1,Y_1__1)",
        "p(X_1__1,Y_1__1)",
        "t(X_1__2,Y_1__2)",
        "p(X_1__2,Y_1__2)",
    ]
    assert len(indexed_constants(db)) == 4


def test_restricted_critical_db_triad_prefix():
    rs = cs.parse_rules(
        "[r1] q(X,Y) :- p(X,Y).\n[r2] t(X,Y) :- r(X,Y).\n[r3] p(Z,X), r(Z,X) :- q(X,Y), t(X,Y)."
    )
    r1, r2, r3 = rs.rules
    db = restricted_critical_db((r1, r2, r3))
    assert [str(a) for a in db.atoms()] == [
        "p(X_1__1,Y_1__1)",
        "r(X_2__2,Y_2__2)",
        "q(X_3__3,Y_3__3)",
        "t(X_3__3,Y_3__3)",
    ]


def test_restricted_critical_db_keeps_constants():
    rs = cs.parse_rules("[r] q(X) :- p(X,c).")
    db = restricted_critical_db((rs.rules[0],))
    assert [str(a) for a in db.atoms()] == ["p(X_1__1,c)"]


def test_restricted_critical_db_atom_count_bound():
    # at most the summed body sizes, with equality when bodies share no
    # ground atom
    rs = cs.parse_rules("[r1] q(X) :- p(X,Y).\n[r2] s(X) :- p(X,Y), q(Y).")
    r1, r2 = rs.rules
    for path in ((r1, r2), (r2, r1, r2), (r1, r1)):
        db = restricted_critical_db(path)
        assert len(db) == sum(len(r.body) for r in path)
    shared = cs.parse_rules("[r1] q(X) :- p(a,a).\n[r2] s(X) :- p(a,a), q(X).")
    db = restricted_critical_db(tuple(shared.rules))
    assert len(db) < sum(len(r.body) for r in shared.rules)


def _frozen_afresh(path) -> list:
    """I^pi built without the rules' memos: each body frozen anew, in path
    order, each atom once."""
    atoms = (
        cs.Atom(a.pred, tuple(
            IndexedConstant(t.name, i) if isinstance(t, cs.Variable) else t for t in a.args
        ))
        for i, rule in enumerate(path, start=1)
        for a in rule.body
    )
    return list(dict.fromkeys(atoms))


def _longest_gen114_cycle() -> tuple:
    rs = cs.generate(cs.GenParams(
        seed=114, count=10, predicate_pool=20, arity=2, max_repeated_relations=3,
        body_atoms=1, head_atoms=2, head_shape="discrete",
    ))
    cycles = itertools.islice(cs.enumerate_k_cycles(1, cs.dependency_graph(rs)), 2_000)
    return max((c.path for c in cycles), key=len)


def test_restricted_critical_db_from_memoized_bodies_matches_freezing_afresh():
    # Frozen bodies are kept on the rules, one per path index: paths that
    # reuse a rule at other positions, and repeat builds, must give the
    # atoms a fresh freeze gives, in the same order.
    r = vacuous_self().rules[0]
    r1, r2, r3 = cs.parse_rules(
        "[r1] q(X,Y) :- p(X,Y).\n[r2] t(X,Y) :- r(X,Y).\n[r3] p(Z,X), r(Z,X) :- q(X,Y), t(X,Y)."
    ).rules
    long_path = _longest_gen114_cycle()
    assert len(long_path) >= 8 and len(set(long_path)) < len(long_path)
    paths = [(r, r), (r, r, r), (r1, r2, r3), (r3, r2, r1, r3), (r1, r2, r3, r1, r2, r3),
             long_path, long_path[::-1]]
    for path in paths + paths:
        assert list(restricted_critical_db(path).atoms()) == _frozen_afresh(path)
    assert sorted(r.frozen_bodies) == [1, 2, 3]


def test_renaming_must_lower_index():
    x1 = IndexedConstant("X", 1)
    x2 = IndexedConstant("X", 2)
    rn = RenamingFunction.from_dict({x2: x1})
    assert rn.apply_term(x2) == x1
    with pytest.raises(ValueError):
        RenamingFunction.from_dict({x1: x2})
    with pytest.raises(ValueError):
        RenamingFunction.from_dict({x1: IndexedConstant("Y", 1)})


def test_apply_renaming_collapses_atoms():
    r = vacuous_self().rules[0]
    db = restricted_critical_db((r, r))
    x1, y1, x2, y2 = indexed_constants(db)
    rn = RenamingFunction.from_dict({x2: x1, y2: y1})
    inst = apply_renaming(rn, db)
    assert {str(a) for a in inst.atoms()} == {"t(X_1__1,Y_1__1)", "p(X_1__1,Y_1__1)"}
    # identity leaves everything alone
    ident = RenamingFunction.identity()
    assert len(apply_renaming(ident, db)) == 4


def test_apply_renaming_returns_the_database_itself_under_the_identity():
    r = vacuous_self().rules[0]
    db = restricted_critical_db((r, r))
    assert apply_renaming(RenamingFunction.identity(), db) is db
    x1, _, x2, _ = indexed_constants(db)
    renamed = apply_renaming(RenamingFunction.from_dict({x2: x1}), db)
    assert renamed is not db and len(db) == 4


def test_renaming_composition_lowers_indices():
    x3 = IndexedConstant("X", 3)
    x2 = IndexedConstant("X", 2)
    x1 = IndexedConstant("X", 1)
    first = RenamingFunction.from_dict({x3: x2})
    second = RenamingFunction.from_dict({x2: x1})
    composed = second.compose_after(first)
    assert dict(composed.mapping) == {x3: x1, x2: x1}


def test_propose_merges_from_guarded_triad_conflict():
    # the recorded near miss says z must reach index 1 while the database
    # offers index 3: the proposal renames <z,3> to <z,1>
    z1 = IndexedConstant("Z", 1)
    z3 = IndexedConstant("Z", 3)
    (rn,) = _proposals([frozenset({(z1, z3)})])
    assert dict(rn.mapping) == {z3: z1}


def test_propose_merges_empty_without_conflicts():
    assert propose_merges([]) == []


def test_propose_merges_offers_each_near_miss_and_no_union():
    z1, z3 = IndexedConstant("Z", 1), IndexedConstant("Z", 3)
    w1, w2 = IndexedConstant("W", 1), IndexedConstant("W", 2)
    y1, y2 = IndexedConstant("Y", 1), IndexedConstant("Y", 2)
    both = frozenset({(y2, y1), (w1, w2)})
    near_misses = [frozenset({(z1, z3)}), both, frozenset({(w2, w1)}), frozenset({(z3, z1)})]
    proposals = [dict(p.mapping) for p in _proposals(near_misses)]
    # one proposal per distinct orientation, smallest first, then by text;
    # the union {z3: z1, w2: w1, y2: y1} is not offered
    assert proposals == [{w2: w1}, {z3: z1}, {w2: w1, y2: y1}]


def test_propose_merges_skips_equal_index_conflicts():
    # the recorder drops such a near miss, so no merge reaches the proposals
    a1 = IndexedConstant("A", 1)
    b1 = IndexedConstant("B", 1)
    assert orient_reference({(a1, b1)}) is None
    merges = {}
    near_miss_recorder(merges)(cs.atom("p", a1), {}, cs.atom("p", b1))
    assert merges == {} and propose_merges(merges) == []


def test_near_miss_recorder_records_each_merge_once_higher_index_to_lower():
    z1, z2, z3 = (IndexedConstant("Z", i) for i in (1, 2, 3))
    w1, w2 = IndexedConstant("W", 1), IndexedConstant("W", 2)
    x, y = cs.Variable("X"), cs.Variable("Y")
    merges = {}
    record = near_miss_recorder(merges)
    # X bound to <Z,3>, Y unbound: only the first argument differs
    record(cs.atom("q", x, y), {"X": z3}, cs.atom("q", z1, w1))
    # the same merge from the other side, then a two-pair merge
    record(cs.atom("q", z1, y), {}, cs.atom("q", z3, z2))
    record(cs.atom("q", x, y), {"X": z3, "Y": w2}, cs.atom("q", z2, z1))
    # dropped: <Z,3> would go two ways; a constant differs; <W,1> and
    # <Z,1> share an index
    record(cs.atom("q", x, y), {"X": z3, "Y": z3}, cs.atom("q", z1, z2))
    record(cs.atom("q", x, cs.Constant("a")), {"X": z3}, cs.atom("q", z1, cs.Constant("b")))
    record(cs.atom("q", x, y), {"X": z3, "Y": w1}, cs.atom("q", z2, z1))
    assert list(merges) == [frozenset({(z3, z1)}), frozenset({(z3, z2), (w2, z1)})]
    assert [dict(rn.mapping) for rn in propose_merges(merges)] == [
        {z3: z1},
        {w2: z1, z3: z2},
    ]


def test_all_renamings_counts():
    x1 = IndexedConstant("X", 1)
    y2 = IndexedConstant("Y", 2)
    z2 = IndexedConstant("Z", 2)
    rns = list(all_renamings([x1, y2, z2]))
    # y2 and z2 each map to themselves or x1: 2 * 2 options
    assert len(rns) == 4
    with pytest.raises(ValueError):
        list(all_renamings([IndexedConstant("V%d" % i, i + 1) for i in range(12)], limit=10))
