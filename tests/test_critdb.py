import pytest

import chase_sentinel as cs
from chase_sentinel.critdb import (
    Conflict,
    RenamingFunction,
    all_renamings,
    apply_renaming,
    propose_merges,
    restricted_critical_db,
    skolem_critical_db,
)
from chase_sentinel.model import IndexedConstant

from fixtures import vacuous_self, walk


def test_skolem_critical_db_walk_rule():
    db = skolem_critical_db(walk())
    assert [str(a) for a in db.atoms()] == ["e(*,*)"]


def test_skolem_critical_db_includes_rule_constants():
    rs = cs.parse_rules("[r] p(X) :- p(X), q(a).")
    db = skolem_critical_db(rs)
    atoms = {str(a) for a in db.atoms()}
    assert atoms == {"p(*)", "p(a)", "q(*)", "q(a)"}


def test_skolem_critical_db_empty_schema():
    assert len(skolem_critical_db(cs.RuleSet(()))) == 0


def test_restricted_critical_db_vacuous_self_pair():
    r = vacuous_self().rules[0]
    db = restricted_critical_db((r, r))
    assert [str(a) for a in db.atoms] == [
        "t(X_1__1,Y_1__1)",
        "p(X_1__1,Y_1__1)",
        "t(X_1__2,Y_1__2)",
        "p(X_1__2,Y_1__2)",
    ]
    assert len(db.indexed_constants) == 4


def test_restricted_critical_db_triad_prefix():
    rs = cs.parse_rules(
        "[r1] q(X,Y) :- p(X,Y).\n[r2] t(X,Y) :- r(X,Y).\n[r3] p(Z,X), r(Z,X) :- q(X,Y), t(X,Y)."
    )
    r1, r2, r3 = rs.rules
    db = restricted_critical_db((r1, r2, r3))
    assert [str(a) for a in db.atoms] == [
        "p(X_1__1,Y_1__1)",
        "r(X_2__2,Y_2__2)",
        "q(X_3__3,Y_3__3)",
        "t(X_3__3,Y_3__3)",
    ]


def test_restricted_critical_db_keeps_constants():
    rs = cs.parse_rules("[r] q(X) :- p(X,c).")
    db = restricted_critical_db((rs.rules[0],))
    assert [str(a) for a in db.atoms] == ["p(X_1__1,c)"]


def test_restricted_critical_db_atom_count_bound():
    # at most the summed body sizes, with equality when bodies share no
    # ground atom
    rs = cs.parse_rules("[r1] q(X) :- p(X,Y).\n[r2] s(X) :- p(X,Y), q(Y).")
    r1, r2 = rs.rules
    for path in ((r1, r2), (r2, r1, r2), (r1, r1)):
        db = restricted_critical_db(path)
        assert len(db.atoms) == sum(len(r.body) for r in path)
    shared = cs.parse_rules("[r1] q(X) :- p(a,a).\n[r2] s(X) :- p(a,a), q(X).")
    db = restricted_critical_db(tuple(shared.rules))
    assert len(db.atoms) < sum(len(r.body) for r in shared.rules)


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
    x1, y1, x2, y2 = db.indexed_constants
    rn = RenamingFunction.from_dict({x2: x1, y2: y1})
    inst = apply_renaming(rn, db)
    assert {str(a) for a in inst.atoms()} == {"t(X_1__1,Y_1__1)", "p(X_1__1,Y_1__1)"}
    # identity leaves everything alone
    ident = RenamingFunction.identity()
    assert len(apply_renaming(ident, db)) == 4


def test_renaming_composition_lowers_indices():
    x3 = IndexedConstant("X", 3)
    x2 = IndexedConstant("X", 2)
    x1 = IndexedConstant("X", 1)
    first = RenamingFunction.from_dict({x3: x2})
    second = RenamingFunction.from_dict({x2: x1})
    composed = second.compose_after(first)
    assert composed.as_dict() == {x3: x1, x2: x1}


def test_propose_merges_from_guarded_triad_conflict():
    # the recorded conflict says z must reach index 1 while the database
    # offers index 3: the proposal renames <z,3> to <z,1>
    z1 = IndexedConstant("Z", 1)
    z3 = IndexedConstant("Z", 3)
    conflict = Conflict(step=3, rule_id="r1", pairs=frozenset({(z1, z3)}))
    (rn,) = propose_merges([conflict])
    assert rn.as_dict() == {z3: z1}


def test_propose_merges_empty_without_conflicts():
    assert propose_merges([]) == []


def test_propose_merges_combines_independent_conflicts():
    z1, z3 = IndexedConstant("Z", 1), IndexedConstant("Z", 3)
    w1, w2 = IndexedConstant("W", 1), IndexedConstant("W", 2)
    c1 = Conflict(step=2, rule_id="a", pairs=frozenset({(z1, z3)}))
    c2 = Conflict(step=3, rule_id="b", pairs=frozenset({(w2, w1)}))
    proposals = propose_merges([c1, c2])
    assert {z3: z1} in [p.as_dict() for p in proposals]
    assert {w2: w1} in [p.as_dict() for p in proposals]
    assert {z3: z1, w2: w1} in [p.as_dict() for p in proposals]
    # ordered by merge size
    assert [len(p) for p in proposals] == sorted(len(p) for p in proposals)


def test_propose_merges_skips_equal_index_conflicts():
    a1 = IndexedConstant("A", 1)
    b1 = IndexedConstant("B", 1)
    conflict = Conflict(step=1, rule_id="r", pairs=frozenset({(a1, b1)}))
    assert propose_merges([conflict]) == []


def test_all_renamings_counts():
    x1 = IndexedConstant("X", 1)
    y2 = IndexedConstant("Y", 2)
    z2 = IndexedConstant("Z", 2)
    rns = list(all_renamings([x1, y2, z2]))
    # y2 and z2 each map to themselves or x1: 2 * 2 options
    assert len(rns) == 4
    with pytest.raises(ValueError):
        list(all_renamings([IndexedConstant("V%d" % i, i + 1) for i in range(12)], limit=10))
