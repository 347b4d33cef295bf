import copy
import pickle
import random

import pytest

import chase_sentinel as cs
from chase_sentinel.model import Instance, has_cyclic_nesting

from fixtures import handshake, access_control
from oracles import apply_atom_reference, skolem_head


def test_term_height_convention():
    a = cs.Constant("a")
    assert cs.term_height(a) == 1
    assert cs.term_height(cs.IndexedConstant("x", 2)) == 1
    fu_t = cs.SkolemTerm("f_u", (cs.Constant("t"),))
    assert cs.term_height(fu_t) == 2
    assert cs.term_height(cs.SkolemTerm("f_v", (fu_t,))) == 3


def test_term_height_derived_by_hand():
    # f_u(a, f_v(a, f_u(a,b))): innermost 2, middle 3, outer 4
    a, b = cs.Constant("a"), cs.Constant("b")
    inner = cs.SkolemTerm("f_u", (a, b))
    mid = cs.SkolemTerm("f_v", (a, inner))
    outer = cs.SkolemTerm("f_u", (a, mid))
    assert cs.term_height(outer) == 4


def test_term_height_rejects_variables():
    with pytest.raises(ValueError):
        cs.term_height(cs.Variable("X"))


def test_instance_ht_monotone_under_union():
    a = cs.atom("p", cs.Constant("a"))
    deep = cs.atom("p", cs.SkolemTerm("f", (cs.Constant("a"),)))
    i = Instance([a])
    j = Instance([deep])
    union = Instance([a, deep])
    assert union.ht() == max(i.ht(), j.ht())
    assert Instance([]).ht() == 1


def test_skolemize_handshake_second_rule():
    rs = handshake()
    r2 = rs.by_id["r2"]
    assert [str(a) for a in skolem_head(r2)] == ["typeB(Z_2,f_V_2(Z_2))"]
    # deterministic: two computations give identical structures
    assert skolem_head(handshake().by_id["r2"]) == skolem_head(r2)


def test_skolemize_datalog_rule_unchanged():
    rs = cs.parse_rules("[d] q(X,Y) :- p(X,Y).")
    r = rs.rules[0]
    assert skolem_head(r) == r.head


def test_skolemize_uses_frontier_in_head_order():
    rs = access_control()
    r3 = rs.by_id["r3"]
    # head hasKey(x,v), keyOpens(v,y): frontier order (x, y)
    assert [str(a) for a in skolem_head(r3)] == [
        "hasKey(X_3,f_V_3(X_3,Y_3))",
        "keyOpens(f_V_3(X_3,Y_3),Y_3)",
    ]


def _term_vars(t):
    if isinstance(t, cs.SkolemTerm):
        return {v for a in t.args for v in _term_vars(a)}
    return {t.name} if isinstance(t, cs.Variable) else set()


def test_skolem_head_vars_subset_of_body_vars():
    for rs in (handshake(), access_control()):
        for r in rs:
            sk_vars = {v for a in skolem_head(r) for t in a.args for v in _term_vars(t)}
            assert sk_vars <= set(r.body_vars)


def test_rule_set_size():
    # seven binary atoms across the two handshake rules
    assert cs.rule_set_size(handshake()) == 14
    assert cs.rule_set_size(cs.RuleSet(())) == 0
    assert cs.rule_set_size(cs.parse_rules("[r] q(X) :- p(X).")) == 2


def test_rule_classification():
    rs = handshake()
    r1, r2 = rs.rules
    assert sorted(r1.existentials) == ["U_1"]
    assert r1.frontier == ("X_1",)
    assert r2.frontier == ("Z_2",)
    assert not r1.is_datalog
    assert cs.parse_rules("[d] q(X) :- p(X).").rules[0].is_datalog


@pytest.mark.parametrize(
    "term",
    [
        cs.SkolemTerm("f", (cs.Variable("X"),)),
        cs.SkolemTerm("f", (cs.Constant("a"),)),
        cs.IndexedConstant("X", 1),
    ],
    ids=["skolem", "ground-skolem", "indexed"],
)
@pytest.mark.parametrize("side", ["body", "head"])
def test_rule_rejects_a_function_term(term, side):
    x = cs.Variable("X")
    plain = (cs.atom("p", x),)
    bad = (cs.atom("p", x), cs.atom("q", x, term))
    body, head = (bad, plain) if side == "body" else (plain, bad)
    with pytest.raises(ValueError, match="rule r1 is not function-free"):
        cs.Rule("r1", body, head)


def test_rule_set_rejects_arity_conflicts_and_shared_vars():
    r1 = cs.Rule("a", (cs.atom("p", cs.Variable("X")),), (cs.atom("q", cs.Variable("X")),))
    bad = cs.Rule(
        "b",
        (cs.atom("p", cs.Variable("Y"), cs.Variable("Z")),),
        (cs.atom("q", cs.Variable("Y")),),
    )
    with pytest.raises(ValueError):
        cs.RuleSet((r1, bad))
    shared = cs.Rule("c", (cs.atom("s", cs.Variable("X")),), (cs.atom("q", cs.Variable("X")),))
    with pytest.raises(ValueError):
        cs.RuleSet((r1, shared))


def test_instance_rollback():
    inst = Instance([cs.atom("p", cs.Constant("a"))])
    assert inst.add(cs.atom("p", cs.SkolemTerm("f", (cs.Constant("a"),))), step=1) is True
    assert len(inst) == 2 and inst.ht() == 2
    inst.rollback(1)
    assert len(inst) == 1 and inst.ht() == 1
    assert inst.add(cs.atom("p", cs.Constant("a")), step=5) is False  # already present
    assert inst.first_derived_at(cs.atom("p", cs.Constant("a"))) == 0


def test_database_atoms_come_only_from_the_constructor():
    a, b = cs.atom("p", cs.Constant("a")), cs.atom("p", cs.Constant("b"))
    inst = Instance([a])
    with pytest.raises(ValueError):
        inst.add(b, 0)
    with pytest.raises(ValueError):
        inst.add(b, -1)
    assert inst.add(b, 1) is True
    assert inst.atoms() == (a, b) and list(inst.derived_first("p")) == [b, a]
    inst.rollback(0)  # into the database atoms
    assert inst.add(b, 1) is True
    assert inst.atoms() == (b,) and list(inst.derived_first("p")) == [b]
    assert inst.first_derived_at(b) == 1


def _state(inst, preds):
    return (
        inst.atoms(),
        inst.ht(),
        [list(inst.by_pred(p)) for p in preds],
        [list(inst.derived_first(p)) for p in preds],
        [inst.first_derived_at(a) for a in inst.atoms()],
    )


def test_rollback_matches_an_instance_built_from_the_first_atoms():
    # Random adds of flat and deep skolem atoms at mixed steps, repeats
    # included; the step-0 atoms go to the constructor, the others are
    # added after them.  Rolling back to n atoms must leave exactly the
    # instance built from the first n, and adding the rest again must
    # restore it, bar the database atoms rolled back, which only a
    # constructor adds.
    rng = random.Random(8)
    consts = [cs.Constant(c) for c in "abc"]
    preds = ("p", "q")

    def term(depth):
        t = rng.choice(consts)
        for _ in range(depth):
            t = cs.SkolemTerm(rng.choice("fg"), (t,))
        return t

    def built(log):
        inst = Instance(a for a, step in log if not step)
        for a, step in log:
            if step:
                inst.add(a, step)
        return inst

    for _ in range(200):
        drawn = []
        for _ in range(rng.randrange(1, 20)):
            a = cs.atom(rng.choice(preds), term(rng.choice([0, 0, 1, 3, 1500])), rng.choice(consts))
            drawn.append((a, rng.choice([0, 0, 1, 2, 3])))
        inst = built(drawn)
        # (atom, step) of each insertion that changed the instance
        log = [(a, inst.first_derived_at(a)) for a in inst.atoms()]
        for n in sorted(rng.sample(range(len(log) + 1), min(3, len(log) + 1)), reverse=True):
            inst.rollback(n)
            assert _state(inst, preds) == _state(built(log[:n]), preds)
        kept = len(inst)
        rest = [(a, step) for a, step in log[kept:] if step]
        for a, step in rest:
            assert inst.add(a, step)
        assert _state(inst, preds) == _state(built(log[:kept] + rest), preds)


def test_instance_requires_ground_atoms():
    with pytest.raises(ValueError):
        Instance([cs.atom("p", cs.Variable("X"))])


def test_apply_atom_substitutes_inside_skolem_terms():
    a = cs.atom("p", cs.SkolemTerm("f", (cs.Variable("X"),)))
    out = apply_atom_reference({"X": cs.Constant("c")}, a)
    assert all(t.ground for t in out.args)
    assert str(out) == "p(f(c))"


def _values():
    """One value of each interned class, each built afresh by every call;
    the last is a 10,000-deep skolem tower."""
    a = cs.Constant("a")
    tower = a
    for _ in range(10_000):
        tower = cs.SkolemTerm("f", (tower,))
    return [
        a,
        cs.Variable("X"),
        cs.IndexedConstant("X", 2),
        cs.SkolemTerm("f", (a, cs.IndexedConstant("Y", 1))),
        cs.atom("p", a, cs.Variable("X")),
        cs.atom("q", cs.SkolemTerm("g", (a,)), a),
        tower,
    ]


def test_equal_values_built_apart_are_one_object():
    for x, y in zip(_values(), _values()):
        assert x is y
    assert cs.Constant("a") is not cs.Variable("a")
    assert cs.IndexedConstant("a", 1) is not cs.IndexedConstant("a", 2)
    assert cs.atom("p", cs.Constant("a")) is not cs.atom("p", cs.Variable("a"))
    for cls in (cs.Constant, cs.Variable, cs.IndexedConstant, cs.SkolemTerm, cs.Atom):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__


def test_pickling_and_copying_return_the_interned_object():
    for x in _values()[:-1]:
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x


def test_a_rebuilt_value_keeps_what_it_cached():
    # __init__ runs again on the object __new__ returns: it must reset nothing
    t = cs.SkolemTerm("f", (cs.SkolemTerm("f", (cs.Constant("a"),)),))
    assert has_cyclic_nesting(t)
    again = cs.SkolemTerm("f", (cs.SkolemTerm("f", (cs.Constant("a"),)),))
    assert again is t and again._fns is not None and again._cyclic
    pattern = cs.atom("p", cs.Variable("X"), cs.Constant("a"))
    plan = pattern.plan
    assert cs.atom("p", cs.Variable("X"), cs.Constant("a"))._plan is plan


def test_indexed_constant_index_must_be_positive():
    with pytest.raises(ValueError, match="must be >= 1"):
        cs.IndexedConstant("X", 0)
