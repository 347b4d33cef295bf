"""Skolem terms nested far deeper than the interpreter's recursion limit:
hashing, equality, height, printing, instance updates and the chase must
all work on them without recursing down the term."""

import pickle
import random
import sys

import chase_sentinel as cs
from chase_sentinel import cli
from chase_sentinel.chase import Budget, BudgetExhausted, Saturated, skolem_chase
from chase_sentinel.hom import apply_trigger
from chase_sentinel.model import Instance, SkolemTerm, has_cyclic_nesting

from fixtures import WALK, walk
from oracles import has_cyclic_nesting_reference

DEPTH = 10_000


def _tower(depth, leaf="a"):
    t = cs.Constant(leaf)
    for _ in range(depth):
        t = cs.SkolemTerm("f", (t,))
    return t


def test_deep_term_hash_equality_height_and_str():
    assert DEPTH > sys.getrecursionlimit()
    t, u = _tower(DEPTH), _tower(DEPTH)
    assert t is u
    assert hash(t) == hash(u)
    assert t == u and not t != u
    assert t != _tower(DEPTH, leaf="b")
    assert t != _tower(DEPTH - 1)
    assert cs.term_height(t) == DEPTH + 1
    text = str(t)
    assert len(text) == 3 * DEPTH + 1
    assert text.startswith("f(f(") and text.endswith("a" + ")" * DEPTH)
    text = repr(t)
    assert text.startswith("SkolemTerm(fn='f', args=(SkolemTerm(fn='f', args=(")
    assert text.endswith("(Constant(name='a'),))" + ",))" * (DEPTH - 1))


def test_deep_term_instance_add_undo_and_apply_trigger():
    t = _tower(DEPTH)
    inst = Instance([cs.atom("e", cs.Constant("a"), cs.Constant("b"))])
    assert inst.add(cs.atom("e", cs.Constant("b"), t), 1) is True
    assert inst.ht() == DEPTH + 1
    assert cs.atom("e", cs.Constant("b"), _tower(DEPTH)) in inst
    assert inst.add(cs.atom("e", cs.Constant("b"), _tower(DEPTH)), 2) is False
    rule = walk().rules[0]
    added = apply_trigger(rule, {"X1_1": cs.Constant("b"), "X2_1": t}, inst, 2)
    assert [str(a)[:6] for a in added] == ["e(f(f("]
    assert inst.ht() == DEPTH + 2
    inst.rollback(2)
    assert inst.ht() == DEPTH + 1
    inst.rollback(1)
    assert inst.ht() == 1 and len(inst) == 1


def test_walk_skolem_chase_runs_a_thousand_steps_and_replays():
    rs = walk()
    trace = skolem_chase(cs.parse("e(a,b).").database(), rs, Budget(max_steps=1000))
    assert trace.outcome == BudgetExhausted("steps")
    assert len(trace.steps) == 1000
    assert trace.final.ht() == 1001
    assert frozenset(trace.replay(rs).atoms()) == frozenset(trace.final.atoms())


def test_cli_walk_skolem_chase_400_steps_ends_on_the_step_budget(tmp_path, capsys):
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK + "e(a,b).\n", encoding="utf-8")
    code = cli.main(["chase", f.as_posix(), "--variant", "skolem", "--max-steps", "400"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == ""
    assert out.out.splitlines()[-1] == "budget exhausted (steps) after 400 steps"


def _named_tower(names, leaf="a"):
    """Unary skolem terms nested innermost first, one per name."""
    t = cs.Constant(leaf)
    for name in names:
        t = cs.SkolemTerm(name, (t,))
    return t


def test_cyclic_nesting_check_walks_deep_terms_without_recursion():
    names = ["f%d" % i for i in range(5_000)]
    assert len(names) > sys.getrecursionlimit()
    assert not has_cyclic_nesting(_named_tower(names))
    # the innermost function repeats the outermost one
    assert has_cyclic_nesting(_named_tower([names[-1]] + names[1:]))
    # a function repeated on two sibling paths is no cycle; below itself it is
    a, b = cs.Constant("a"), cs.Constant("b")
    g_a, g_b = cs.SkolemTerm("g", (a,)), cs.SkolemTerm("g", (b,))
    assert not has_cyclic_nesting(cs.SkolemTerm("f", (g_a, g_b)))
    h_f_b = cs.SkolemTerm("h", (cs.SkolemTerm("f", (b,)),))
    assert has_cyclic_nesting(cs.SkolemTerm("f", (g_a, h_f_b)))
    assert not has_cyclic_nesting(a)


def test_skolem_chase_of_a_600_rule_chain_saturates_with_cyclic_term_detection(monkeypatch):
    # each rule nests one more distinct function: 600 levels, no cycle.
    # Reads of SkolemTerm.args count term visits: a walk of every new term
    # makes O(n^2) of them on the chain, cached function sets O(n)
    slot = SkolemTerm.__dict__["args"]
    reads = []

    def read(term):
        reads.append(None)
        return slot.__get__(term, SkolemTerm)

    monkeypatch.setattr(SkolemTerm, "args", property(read, slot.__set__))
    text = "".join("[r%d] p%d(X,Z) :- p%d(Y,X).\n" % (i, i + 1, i) for i in range(600))
    trace = skolem_chase(cs.parse("p0(a,b).").database(), cs.parse_rules(text),
                         detect_cyclic_terms=True)
    assert trace.outcome == Saturated()
    assert len(trace.steps) == 600
    assert trace.final.ht() == 601
    assert len(reads) <= 4 * len(trace.steps)


def _random_terms(rng, n):
    """`n` skolem terms over three functions, each over constants and
    earlier terms, so that subterms are shared and nest up to n deep."""
    terms = [cs.Constant(c) for c in "ab"]
    for _ in range(n):
        args = tuple(rng.choice(terms[-6:] if rng.random() < 0.7 else terms)
                     for _ in range(rng.randint(1, 3)))
        terms.append(cs.SkolemTerm(rng.choice("fgh"), args))
    return terms[2:]


def test_cyclic_nesting_agrees_with_the_whole_term_walk_on_random_terms():
    for seed in range(30):
        rng = random.Random(seed)
        terms = _random_terms(rng, 40)
        # ask in a random order: some terms meet cached arguments, some not
        order = list(terms)
        rng.shuffle(order)
        got = {id(t): has_cyclic_nesting(t) for t in order}
        assert [got[id(t)] for t in terms] == [has_cyclic_nesting_reference(t) for t in terms]
    assert any(got.values()) and not all(got.values())


def test_cyclic_nesting_agrees_with_the_whole_term_walk_on_deep_terms():
    names = ["f%d" % i for i in range(3_000)]
    for tower in (
        _named_tower(names),
        _named_tower([names[-1]] + names[1:]),
        _named_tower(names[:1500] + names[:1]),
        _named_tower(["f", "g"] * 1500),
    ):
        # asking about a middle subterm first leaves the rest half cached
        middle = tower
        for _ in range(1500):
            middle = middle.args[0]
        assert has_cyclic_nesting(middle) == has_cyclic_nesting_reference(middle)
        assert has_cyclic_nesting(tower) == has_cyclic_nesting_reference(tower)


def test_cached_nesting_stays_out_of_repr_equality_and_pickling():
    t = cs.SkolemTerm("f", (cs.SkolemTerm("f", (cs.Constant("a"),)),))
    fresh = cs.SkolemTerm("f", (cs.SkolemTerm("f", (cs.Constant("a"),)),))
    text = repr(t)
    assert has_cyclic_nesting(t)
    assert repr(t) == text and t == fresh and hash(t) == hash(fresh)
    assert pickle.dumps(t) == pickle.dumps(fresh)
    assert has_cyclic_nesting(pickle.loads(pickle.dumps(t)))
