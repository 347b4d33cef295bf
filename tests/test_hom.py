import itertools
import random

import pytest

import chase_sentinel as cs
from chase_sentinel import activeness, hom
from chase_sentinel.activeness import _Search
from chase_sentinel.chase import Budget, Meter, skolem_chase
from chase_sentinel.critdb import restricted_critical_db
from chase_sentinel.cycles import enumerate_k_cycles
from chase_sentinel.deps import dependency_graph
from chase_sentinel.hom import find_homomorphisms, is_active_trigger
from chase_sentinel.model import Instance, apply_atom

from fixtures import (
    GENERATED,
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
    apply_trigger_reference,
    find_homomorphisms_reference,
    instance_terms,
    is_active_trigger_reference,
    near_miss_pairs_reference,
    orient_reference,
)


def _c(name):
    return cs.Constant(name)


def _parse_conj(rs_text):
    return cs.parse_rules(rs_text).rules[0].body


def brute_force_homs(conj, inst):
    """Oracle: every assignment of the conjunction's variables to instance
    terms whose image is contained in the instance."""
    variables = []
    for a in conj:
        for t in a.args:
            if isinstance(t, cs.Variable) and t.name not in variables:
                variables.append(t.name)
    out = []
    for combo in itertools.product(instance_terms(inst), repeat=len(variables)):
        h = dict(zip(variables, combo))
        if all(apply_atom(h, a) in inst for a in conj):
            out.append(h)
    return out


def test_triangle_example_order():
    body = _parse_conj("[r] q2(X,U) :- p(X,Y), p(Y,Z), p(Z,X).")
    inst = Instance(
        [
            cs.atom("p", _c("a"), _c("b")),
            cs.atom("p", _c("b"), _c("c")),
            cs.atom("p", _c("c"), _c("a")),
            cs.atom("q", _c("a"), _c("b")),
        ]
    )
    homs = list(find_homomorphisms(body, inst))
    names = [{v.split("_")[0]: str(t) for v, t in sorted(h.items())} for h in homs]
    assert names == [
        {"X": "a", "Y": "b", "Z": "c"},
        {"X": "b", "Y": "c", "Z": "a"},
        {"X": "c", "Y": "a", "Z": "b"},
    ]


def test_single_atom_match():
    body = _parse_conj("[r] q(X) :- p(X).")
    inst = Instance([cs.atom("p", _c("a"))])
    (h,) = list(find_homomorphisms(body, inst))
    assert str(h["X_1"]) == "a"


def test_patterns_must_be_function_free():
    # a ground skolem term compares by equality; one over a variable is
    # refused when the pattern compiles, instead of being matched
    inst = Instance([cs.atom("p", cs.SkolemTerm("f", (_c("a"),)))])
    ground = [cs.atom("p", cs.SkolemTerm("f", (_c("a"),)))]
    assert list(find_homomorphisms(ground, inst)) == [{}]
    nested = [cs.atom("p", cs.SkolemTerm("f", (cs.Variable("X"),)))]
    with pytest.raises(ValueError, match="neither a variable nor ground"):
        list(find_homomorphisms(nested, inst))


def test_repeated_variable_requires_equal_args():
    body = _parse_conj("[r] q(X) :- t(X,X).")
    inst = Instance([cs.atom("t", _c("a"), _c("b"))])
    assert list(find_homomorphisms(body, inst)) == []
    assert brute_force_homs(body, inst) == []


def test_enumeration_matches_brute_force_on_small_instances():
    import random

    rng = random.Random(7)
    consts = [_c(ch) for ch in "abcd"]
    for _ in range(60):
        atoms = set()
        for _ in range(rng.randrange(1, 12)):
            pred = rng.choice(["p", "q"])
            arity = {"p": 2, "q": 1}[pred]
            atoms.add(cs.Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
        inst = Instance(sorted(atoms, key=str))
        conj_text = rng.choice(
            [
                "[r] s(X) :- p(X,Y), p(Y,Z).",
                "[r] s(X) :- p(X,X).",
                "[r] s(X) :- p(X,Y), q(Y).",
                "[r] s(X) :- q(X), q(Y), p(X,Y).",
            ]
        )
        body = _parse_conj(conj_text)
        found = {tuple(sorted((v, str(t)) for v, t in h.items()))
                 for h in find_homomorphisms(body, inst)}
        oracle = {tuple(sorted((v, str(t)) for v, t in h.items()))
                  for h in brute_force_homs(body, inst)}
        assert found == oracle


def test_activeness_triangle_example():
    rs = cs.parse_rules("[r] q(X,U) :- p(X,Y), p(Y,Z), p(Z,X).")
    rule = rs.rules[0]
    inst = Instance(
        [
            cs.atom("p", _c("a"), _c("b")),
            cs.atom("p", _c("b"), _c("c")),
            cs.atom("p", _c("c"), _c("a")),
            cs.atom("q", _c("a"), _c("b")),
        ]
    )
    h1 = {"X_1": _c("a"), "Y_1": _c("b"), "Z_1": _c("c")}
    h2 = {"X_1": _c("c"), "Y_1": _c("a"), "Z_1": _c("b")}
    assert not is_active_trigger(rule, h1, inst)  # q(a,_) satisfiable with u=b
    assert is_active_trigger(rule, h2, inst)


def test_datalog_trigger_active_iff_head_missing():
    rs = cs.parse_rules("[r] q(X) :- p(X).")
    rule = rs.rules[0]
    inst = Instance([cs.atom("p", _c("a")), cs.atom("q", _c("a"))])
    assert not is_active_trigger(rule, {"X_1": _c("a")}, inst)
    inst2 = Instance([cs.atom("p", _c("b"))])
    assert is_active_trigger(rule, {"X_1": _c("b")}, inst2)


def test_inactive_stays_inactive_as_instance_grows():
    rs = cs.parse_rules("[r] q(X,U) :- p(X).")
    rule = rs.rules[0]
    inst = Instance([cs.atom("p", _c("a")), cs.atom("q", _c("a"), _c("b"))])
    h = {"X_1": _c("a")}
    assert not is_active_trigger(rule, h, inst)
    inst.add(cs.atom("p", _c("z")), 1)
    assert not is_active_trigger(rule, h, inst)


def test_active_can_become_inactive():
    rs = cs.parse_rules("[r] q(X,U) :- p(X).")
    rule = rs.rules[0]
    inst = Instance([cs.atom("p", _c("a"))])
    h = {"X_1": _c("a")}
    assert is_active_trigger(rule, h, inst)
    inst.add(cs.atom("q", _c("a"), _c("c")), 1)
    assert not is_active_trigger(rule, h, inst)


def test_apply_trigger_records_steps_and_keeps_existing():
    rs = cs.parse_rules("[r1] typeA(X,U), typeA(U,X) :- typeB(X,Y).")
    rule = rs.rules[0]
    inst = Instance([cs.atom("typeB", _c("t"), _c("r"))])
    h = {"X_1": _c("t"), "Y_1": _c("r")}
    added = cs.apply_trigger(rule, h, inst, step=1)
    assert [str(a) for a in added] == ["typeA(t,f_U_1(t))", "typeA(f_U_1(t),t)"]
    assert all(inst.first_derived_at(a) == 1 for a in added)
    again = cs.apply_trigger(rule, h, inst, step=2)
    assert again == []  # union idempotent, original steps kept
    assert all(inst.first_derived_at(a) == 1 for a in added)


def test_head_test_orders_only_heads_of_three_or_more_atoms(monkeypatch):
    # k_safe at k = 1 under WA on generated sets 0..59 with the `generated`
    # workload's budget: one-atom bodies and two-atom heads, so no matcher
    # or head test needs `order_atoms` (38,350 calls when every multi-atom
    # head was ordered through it).
    calls = [0]
    order_atoms = hom.order_atoms

    def counted(*args):
        calls[0] += 1
        return order_atoms(*args)

    monkeypatch.setattr(hom, "order_atoms", counted)
    monkeypatch.setattr(activeness, "order_atoms", counted)
    budget = Budget(max_steps=20_000, max_atoms=50_000, max_probes=20_000, max_renamings=200,
                    max_cycles=2_000)
    verdicts = set()
    for seed in range(60):
        rs = cs.generate(cs.GenParams(seed=seed, **GENERATED))
        verdicts.add(cs.k_safe(rs, 1, cs.Condition.WA, budget=budget).verdict)
    assert calls[0] == 0
    assert cs.Verdict.NOT_PROVEN in verdicts and cs.Verdict.TERMINATING in verdicts
    # the three-atom head of the trusted handshake's r3 is still ordered
    r3 = handshake_trusted().by_id["r3"]
    inst = Instance([cs.atom("typeB", _c("a"), _c("b")), cs.atom("trustedServer", _c("s"))])
    assert is_active_trigger(r3, {"X_1": _c("a"), "Y_1": _c("b")}, inst)
    assert calls[0] == 1


# ---------------------------------------------------------------------------
# Differential: the compiled match paths against the term-walking reference
# in oracles.py.  `find_homomorphisms` in insertion order gives the same
# substitutions in the same order for the same number of probes.  The
# chained search's matcher in derived-first order also gives the same
# images, and records the merges of the reference's near misses, oriented,
# in first-seen order.


def _run_new(conj, inst, derived_first):
    meter = Meter(Budget())
    if not derived_first:
        homs = list(find_homomorphisms(conj, inst, probe=meter.charge_probe))
        return homs, meter.probes, None
    search = _Search((), inst, meter)
    homs = list(search.matches(conj))
    return homs, meter.probes, list(search.merges)


def _run_reference(conj, inst, derived_first):
    probes = [0]
    misses = []

    def probe():
        probes[0] += 1

    homs = list(
        find_homomorphisms_reference(
            conj, inst, derived_first, probe=probe, on_miss=lambda p, c: misses.append((p, c))
        )
    )
    if not derived_first:
        return homs, probes[0], None
    images = [(h, tuple(apply_atom(h, a) for a in conj)) for h in homs]
    pairs = (near_miss_pairs_reference(p, c) for p, c in misses)
    oriented = (orient_reference(p) for p in pairs if p)
    return images, probes[0], list(dict.fromkeys(m for m in oriented if m))


def _assert_same_search(rules, inst):
    for rule in rules:
        for conj in (rule.body, rule.head):
            for derived_first in (False, True):
                new = _run_new(conj, inst, derived_first)
                assert new == _run_reference(conj, inst, derived_first), (str(rule), derived_first)
        for h in itertools.islice(find_homomorphisms(rule.body, inst), 12):
            counts = [0, 0]

            def probe_new():
                counts[0] += 1

            def probe_ref():
                counts[1] += 1

            assert is_active_trigger(rule, h, inst, probe_new) == is_active_trigger_reference(
                rule, h, inst, probe_ref
            )
            assert counts[0] == counts[1]
            partial = [apply_atom(h, a) for a in rule.head]
            assert _run_new(partial, inst, False) == _run_reference(partial, inst, False)


FIXTURE_SETS = (
    handshake, handshake_trusted, access_control, walk, vacuous_self, triad,
    triad_guarded, datalog_first_pair,
)


@pytest.mark.parametrize("fixture", FIXTURE_SETS, ids=lambda f: f.__name__)
def test_match_path_agrees_with_reference_on_fixture_cycles(fixture):
    rs = fixture()
    graph = dependency_graph(rs)
    for k in (1, 2):
        for cycle in enumerate_k_cycles(k, graph):
            db = restricted_critical_db(cycle.path)
            final = skolem_chase(db, rs, Budget(max_steps=4)).final
            _assert_same_search(rs.rules, final)


DIFFERENTIAL_RULES = """
[r1] p(X,Z), q(Z) :- p(X,Y), q(Y).
[r2] p(Y,X) :- p(X,Y), p(Y,X).
[r3] q(W) :- p(W,W).
[r4] p(U,V), p(V,U) :- q(U), p(U,a).
[r5] s(X,Z), s(Z,X), t(X), u(Z) :- p(X,Y).
[r6] s(X,Z), s(Z,W), p(W,a), t(Z), u(W) :- p(X,Y), p(Y,X), s(X,b), q(Y).
"""
SCHEMA = (("p", 2), ("q", 1), ("s", 2), ("t", 1), ("u", 1))


def test_match_path_agrees_with_reference_on_random_skolem_instances():
    # Variables bound to skolem terms over indexed constants give near
    # misses next to them; three-atom heads give orders that bound
    # variables decide; r6's five-atom head and four-atom body take the
    # head test and the matcher past their two flat levels.
    rs = cs.parse_rules(DIFFERENTIAL_RULES)
    flat = [_c("a"), _c("b"), cs.IndexedConstant("X", 1), cs.IndexedConstant("X", 2)]
    pool = list(flat)
    for fn in ("f_Z_1", "f_V_4", "f_Z_5"):
        pool.extend(cs.SkolemTerm(fn, (t,)) for t in flat)
    pool.append(cs.SkolemTerm("f_Z_1", (pool[4],)))
    # with X bound to <X,1> and Z to f(<X,1>), the head atom s(Z,X) misses
    # s(f(<X,1>),<X,2>) only on the pair (<X,1>, <X,2>)
    x1, x2 = flat[2], flat[3]
    f_x1 = cs.SkolemTerm("f_Z_5", (x1,))
    nested_miss = Instance(
        [cs.atom("s", x1, f_x1), cs.atom("s", f_x1, x2), cs.atom("t", x1), cs.atom("u", f_x1)]
    )
    _assert_same_search(rs.rules, nested_miss)
    # r6's head under X = <X,1>, ordered t(Z), s(X,Z), s(Z,W), u(W),
    # p(W,a): Z = <X,2> is found at the first two levels, W = w1 fails at
    # u(W) below them, and W = w2 reaches p(W,a), which only `deep` holds.
    # r6's body, ordered q(Y), p(X,Y), p(Y,X), s(X,b), meets a derived and
    # a database near miss at its third level, in derived-first order.
    y, w1, w2 = cs.IndexedConstant("Y", 2), cs.SkolemTerm("f_V_4", (x1,)), cs.SkolemTerm("f_V_4", (x2,))
    body = [cs.atom("p", x1, y), cs.atom("p", y, x1), cs.atom("p", y, cs.IndexedConstant("X", 3)),
            cs.atom("s", x1, _c("b")), cs.atom("q", y)]
    head = [cs.atom("s", x1, f_x1), cs.atom("s", x1, x2), cs.atom("s", f_x1, w1),
            cs.atom("s", x2, w1), cs.atom("s", x2, w2), cs.atom("t", x2), cs.atom("u", w2)]
    deep, shallow = Instance(body + head), Instance(body + head)
    for inst in (deep, shallow):
        inst.add(cs.atom("p", y, cs.IndexedConstant("Z", 2)), 1)
    deep.add(cs.atom("p", w2, _c("a")), 2)
    deep.add(cs.atom("p", w1, _c("a")), 2)
    r6 = rs.by_id["r6"]
    for inst, active in ((deep, False), (shallow, True)):
        (h,) = find_homomorphisms(r6.body, inst)
        assert is_active_trigger(r6, h, inst) is active
        _assert_same_search(rs.rules, inst)
    for seed in range(120):
        rng = random.Random(seed)
        drawn = []
        for pred, arity in SCHEMA:
            for _ in range(rng.randrange(0, 6)):
                a = cs.Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))
                drawn.append((a, rng.choice([0, 0, 1, 2])))
        # the step-0 atoms go to the constructor, the others after them
        inst = Instance(a for a, step in drawn if not step)
        for a, step in drawn:
            if step:
                inst.add(a, step)
        _assert_same_search(rs.rules, inst)


def test_chained_matcher_agrees_with_reference_across_rollbacks(monkeypatch):
    # One search matches while derived atoms come and go: every match of
    # every rule body and head must give the reference's bindings, images
    # and probes, and the search's merges must be the reference's near
    # misses so far, in first-seen order.  Every probe is a candidate
    # tested: no scan is answered from a memo.
    rs = cs.parse_rules(DIFFERENTIAL_RULES)
    flat = [_c("a"), _c("b"), cs.IndexedConstant("X", 1), cs.IndexedConstant("X", 2)]
    pool = flat + [cs.SkolemTerm("f_Z_1", (t,)) for t in flat]
    tested = [0]
    match_args = activeness.match_args

    def counting(*args):
        tested[0] += 1
        return match_args(*args)

    monkeypatch.setattr(activeness, "match_args", counting)

    def random_atom(rng):
        pred, arity = rng.choice(SCHEMA)
        return cs.Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))

    probes = 0
    for seed in range(40):
        rng = random.Random(seed)
        inst = Instance(random_atom(rng) for _ in range(rng.randrange(4, 12)))
        meter = Meter(Budget())
        search = _Search((), inst, meter)
        merges: dict = {}
        sizes = [len(inst)]
        for step in range(1, 9):
            if rng.random() < 0.4 and len(sizes) > 1:
                inst.rollback(sizes.pop())
            sizes.append(len(inst))
            for _ in range(rng.randrange(1, 4)):
                inst.add(random_atom(rng), step)
            for rule in rs.rules:
                for conj in (rule.body, rule.head):
                    before = meter.probes
                    got = list(search.matches(conj))
                    images, ref_probes, ref_merges = _run_reference(conj, inst, True)
                    merges.update(dict.fromkeys(ref_merges))
                    assert (got, meter.probes - before) == (images, ref_probes), (seed, step)
                    assert list(search.merges) == list(merges), (seed, step)
        probes += meter.probes
    assert tested[0] == probes


def _corpus_rules(corpus):
    if corpus == "fixtures":
        return [r for make in FIXTURE_SETS for r in make().rules]
    return [r for s in range(200) for r in cs.generate(cs.GenParams(seed=s, **GENERATED)).rules]


@pytest.mark.parametrize("corpus", ["fixtures", "generated"])
def test_apply_trigger_matches_the_skolem_head_instantiation(corpus):
    # per-trigger nulls against instantiating the skolemized head atom by
    # atom: the same atoms added in the same order, on an instance holding
    # the body image and, with the second binding, one head atom already
    rules = _corpus_rules(corpus)
    shared = 0
    for rule in rules:
        distinct = {v: _c("c%d" % i) for i, v in enumerate(rule.body_vars)}
        nested = {v: cs.SkolemTerm("g", (_c("a"),)) if i % 2 else _c("a")
                  for i, v in enumerate(rule.body_vars)}
        for h, head_atom_held in ((distinct, False), (nested, True)):
            held = [apply_atom(h, a) for a in rule.body]
            if head_atom_held:
                held += apply_trigger_reference(rule, h, Instance(), 1)[-1:]
            new, ref = Instance(held), Instance(held)
            added = cs.apply_trigger(rule, h, new, 1)
            assert added == apply_trigger_reference(rule, h, ref, 1), str(rule)
            assert [(a, new.first_derived_at(a)) for a in new.atoms()] == [
                (a, ref.first_derived_at(a)) for a in ref.atoms()
            ]
        # distinct values give distinct head atoms, all of them added; each
        # existential is one null object across them
        fresh = cs.apply_trigger(rule, distinct, Instance(), 1)
        assert len(fresh) == len(rule.head)
        nulls = {}
        for pattern, ground in zip(rule.head, fresh):
            for p, t in zip(pattern.args, ground.args):
                if isinstance(p, cs.Variable) and p.name in rule.existentials:
                    assert nulls.setdefault(p.name, t) is t, str(rule)
                    shared += 1
    assert shared > len(rules)
