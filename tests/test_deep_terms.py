"""Skolem terms nested far deeper than the interpreter's recursion limit:
hashing, equality, height, printing, instance updates and the chase must
all work on them without recursing down the term."""

import sys

import chase_sentinel as cs
from chase_sentinel import cli
from chase_sentinel.chase import Budget, BudgetExhausted, skolem_chase
from chase_sentinel.hom import apply_trigger
from chase_sentinel.model import Instance

from fixtures import WALK, walk

DEPTH = 10_000


def _tower(depth, leaf="a"):
    t = cs.Constant(leaf)
    for _ in range(depth):
        t = cs.SkolemTerm("f", (t,))
    return t


def test_deep_term_hash_equality_height_and_str():
    assert DEPTH > sys.getrecursionlimit()
    t, u = _tower(DEPTH), _tower(DEPTH)
    assert t is not u
    assert hash(t) == hash(u)
    assert t == u and not t != u
    assert t != _tower(DEPTH, leaf="b")
    assert t != _tower(DEPTH - 1)
    assert cs.term_height(t) == DEPTH + 1
    text = str(t)
    assert len(text) == 3 * DEPTH + 1
    assert text.startswith("f(f(") and text.endswith("a" + ")" * DEPTH)


def test_deep_term_instance_add_undo_and_apply_trigger():
    t = _tower(DEPTH)
    inst = Instance([cs.atom("e", cs.Constant("a"), cs.Constant("b"))])
    rec = inst.add(cs.atom("e", cs.Constant("b"), t), 1)
    assert rec is not None and inst.ht() == DEPTH + 1
    assert cs.atom("e", cs.Constant("b"), _tower(DEPTH)) in inst
    assert inst.add(cs.atom("e", cs.Constant("b"), _tower(DEPTH)), 2) is None
    rule = walk().rules[0]
    added, undos = apply_trigger(rule, {"X1_1": cs.Constant("b"), "X2_1": t}, inst, 2)
    assert [str(a)[:6] for a in added] == ["e(f(f("]
    assert inst.ht() == DEPTH + 2
    for r in reversed(undos):
        inst.undo(r)
    assert inst.ht() == DEPTH + 1
    inst.undo(rec)
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
    assert code == 0
    assert out.err == ""
    assert out.out.splitlines()[-1] == "budget exhausted (steps) after 400 steps"
