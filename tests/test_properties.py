"""Randomized property suites.

Each suite draws at least 200 seeded cases; oracles are independent
brute-force enumerations or structural checks.
"""

import itertools
import random
import re

import pytest

import chase_sentinel as cs
from chase_sentinel.acyclicity import Condition, check_condition
from chase_sentinel.chase import Budget
from chase_sentinel.cycles import _sequences, occurrence_counts
from chase_sentinel.hom import find_homomorphisms, is_active_trigger
from chase_sentinel.model import Constant, Instance, Variable, apply_atom

import fixtures
from fixtures import handshake, handshake_trusted, triad, triad_guarded, vacuous_self, walk
from oracles import (
    instance_terms,
    is_active_trigger_by_search,
    is_active_trigger_reference,
    longest_restricted_run,
)


# ---------------------------------------------------------------------------
# random builders


def random_instance(rng, max_atoms=30):
    preds = {"p": 2, "q": 1, "r": 3}
    consts = [Constant(c) for c in ("a", "b", "c", "d", "e")]
    atoms = set()
    for _ in range(rng.randrange(1, max_atoms + 1)):
        pred = rng.choice(list(preds))
        atoms.add(cs.Atom(pred, tuple(rng.choice(consts) for _ in range(preds[pred]))))
    return Instance(sorted(atoms, key=str))


CONJ_SHAPES = [
    "[r] s0(X) :- p(X,Y).",
    "[r] s0(X) :- p(X,X).",
    "[r] s0(X) :- p(X,Y), q(Y).",
    "[r] s0(X) :- p(X,Y), p(Y,Z).",
    "[r] s0(X) :- p(X,Y), p(Y,X).",
    "[r] s0(X) :- r(X,Y,Z), q(X).",
    "[r] s0(X) :- q(X), q(Y), p(X,Y).",
    "[r] s0(X) :- r(X,X,Y), p(Y,Y).",
]


def random_rule_set(rng, max_rules=3):
    """Small rule sets over a fixed schema, biased toward join shapes that
    exercise existential blocking."""
    preds = {"p": 2, "q": 2, "s": 1}
    n = rng.randrange(1, max_rules + 1)
    rules = []
    for i in range(1, n + 1):
        suffix = "_%d" % i
        names = ["X" + suffix, "Y" + suffix, "Z" + suffix]
        variables = [Variable(v) for v in names]

        def rand_atom(pool):
            pred = rng.choice(list(preds))
            return cs.Atom(pred, tuple(rng.choice(pool) for _ in range(preds[pred])))

        body = tuple(rand_atom(variables[:2]) for _ in range(rng.randrange(1, 3)))
        body_vars = [Variable(v) for v in dict.fromkeys(
            t.name for a in body for t in a.args
        )]
        head_pool = body_vars + [Variable("E" + suffix)]
        head = tuple(rand_atom(head_pool) for _ in range(rng.randrange(1, 3)))
        head_vars = {t.name for a in head for t in a.args}
        if not head_vars:
            continue
        rules.append(cs.Rule(id="t%d" % i, body=body, head=head))
    if not rules:
        rules = [cs.Rule(
            id="t1",
            body=(cs.Atom("p", (Variable("X_1"), Variable("Y_1"))),),
            head=(cs.Atom("q", (Variable("X_1"), Variable("E_1"))),),
        )]
    return cs.RuleSet(tuple(rules))


def random_database(rng, rs, max_constants=4, max_atoms=6):
    consts = [Constant(c) for c in ("a", "b", "c", "d")[:max_constants]]
    atoms = set()
    preds = list(rs.schema.items())
    if not preds:
        return Instance()
    for _ in range(rng.randrange(1, max_atoms + 1)):
        pred, arity = rng.choice(preds)
        atoms.add(cs.Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
    return Instance(sorted(atoms, key=str))


# ---------------------------------------------------------------------------
# suite 1: homomorphism search vs brute force


def brute_force_homs(conj, inst):
    variables = []
    for a in conj:
        for t in a.args:
            if isinstance(t, Variable) and t.name not in variables:
                variables.append(t.name)
    found = []
    for combo in itertools.product(instance_terms(inst), repeat=len(variables)):
        h = dict(zip(variables, combo))
        if all(apply_atom(h, a) in inst for a in conj):
            found.append(tuple(sorted((v, str(t)) for v, t in h.items())))
    return set(found)


def test_homomorphisms_match_brute_force_200():
    rng = random.Random(2024)
    for case in range(200):
        inst = random_instance(rng)
        body = cs.parse_rules(rng.choice(CONJ_SHAPES)).rules[0].body
        got = {
            tuple(sorted((v, str(t)) for v, t in h.items()))
            for h in find_homomorphisms(body, inst)
        }
        assert got == brute_force_homs(body, inst), "case %d" % case


def test_semi_naive_homomorphisms_are_the_full_ones_using_a_new_atom_200():
    # `since` marks a prefix of each predicate's atoms as old; the search
    # must yield the full enumeration's homomorphisms that use a new atom,
    # in the full enumeration's order
    rng = random.Random(1995)
    for case in range(200):
        inst = random_instance(rng)
        since = {p: rng.randrange(len(inst.by_pred(p)) + 1) for p in ("p", "q", "r")}
        new = {a for p, n in since.items() for a in inst.by_pred(p)[n:]}
        body = cs.parse_rules(rng.choice(CONJ_SHAPES)).rules[0].body
        expected = [
            h for h in find_homomorphisms(body, inst)
            if any(apply_atom(h, a) in new for a in body)
        ]
        assert list(find_homomorphisms(body, inst, since=since)) == expected, "case %d" % case


def test_direct_activeness_matches_the_search_oracle_200():
    # the direct head backtrack against the generator-based test it
    # replaced: the same answer and the same probes, so the same candidates
    # in the same order, on triggers and on random bindings of the body
    # variables in skolem-chase instances; the term-walking reference
    # orders the head with its own code, so a change to `order_atoms` shows
    rng = random.Random(7)
    answers = {True: 0, False: 0}
    probes = 0
    counts = [0, 0, 0]

    def counter(i):
        return lambda: counts.__setitem__(i, counts[i] + 1)

    for case in range(200):
        rs = random_rule_set(rng)
        db = random_database(rng, rs, max_atoms=8)
        inst = cs.skolem_chase(db, rs, Budget(max_steps=rng.randrange(8))).final
        terms = instance_terms(inst)
        for rule in rs:
            bindings = list(itertools.islice(find_homomorphisms(rule.body, inst), 4))
            bindings += [{v: rng.choice(terms) for v in rule.body_vars} for _ in range(4)]
            for h in bindings:
                before = dict(h)
                counts[:] = [0, 0, 0]
                got = is_active_trigger(rule, h, inst, counter(0))
                want = is_active_trigger_by_search(rule, h, inst, counter(1))
                ref = is_active_trigger_reference(rule, h, inst, counter(2))
                assert (got, counts[0]) == (want, counts[1]) == (ref, counts[2]), (
                    "case %d, %s" % (case, rule)
                )
                assert h == before
                answers[got] += 1
                probes += counts[0]
    assert min(answers.values()) > 100 and probes > 2_000


# ---------------------------------------------------------------------------
# suite 2: acyclicity containment WA => JA => MFA-not-false


def test_acyclicity_containment_200():
    rng = random.Random(77)
    budget = Budget(max_steps=300, max_atoms=2000)  # count-only
    for case in range(200):
        rs = random_rule_set(rng)
        wa = check_condition(Condition.WA, rs).value
        ja = check_condition(Condition.JA, rs).value
        if wa:
            assert ja, "WA set must be JA (case %d)" % case
        if ja:
            mfa = check_condition(Condition.MFA, rs, budget).value
            assert mfa is not False, "JA set cannot be MFA-refuted (case %d)" % case


# ---------------------------------------------------------------------------
# suite 3: verdict monotonicity in k and in the condition


REGRESSIONS = [
    ("handshake", handshake),
    ("trusted", handshake_trusted),
    ("walk", walk),
    ("vacuous", vacuous_self),
    ("triad", triad),
    ("triad_guarded", triad_guarded),
]

# Both count-only, so the verdicts do not depend on the machine's speed.
_SMALL_BUDGET = Budget(max_atoms=5000, max_probes=30_000, max_renamings=30)

_REGRESSION_BUDGET = Budget(max_atoms=20_000, max_probes=5_000, max_renamings=5, max_cycles=50)


def test_k_monotonicity_on_regressions():
    # monotonicity among decisive verdicts; exhausted levels are skipped
    for name, make in REGRESSIONS:
        rs = make()
        verdicts = [cs.k_safe(rs, k, Condition.WA, budget=_REGRESSION_BUDGET).verdict
                    for k in (1, 2, 3)]
        for lo, hi in zip(verdicts, verdicts[1:]):
            if lo is cs.Verdict.TERMINATING and hi is not cs.Verdict.RESOURCE_EXHAUSTED:
                assert hi is cs.Verdict.TERMINATING, (name, verdicts)


def test_condition_monotonicity_on_regressions():
    order = [Condition.WA, Condition.JA, Condition.MFA]
    for name, make in REGRESSIONS:
        rs = make()
        verdicts = [cs.k_safe(rs, 1, cond, budget=_SMALL_BUDGET).verdict for cond in order]
        for lo, hi in zip(verdicts, verdicts[1:]):
            if lo is cs.Verdict.TERMINATING:
                assert hi is cs.Verdict.TERMINATING, (name, verdicts)


def test_verdict_monotonicity_generated_200():
    rng = random.Random(4242)
    replayed = 0
    for case in range(200):
        rs = random_rule_set(rng, max_rules=2)
        r1 = cs.k_safe(rs, 1, Condition.WA, budget=_SMALL_BUDGET)
        if r1.witness is not None:
            cs.replay_witness(r1.witness, rs)
            replayed += 1
        r_ja = cs.k_safe(rs, 1, Condition.JA, budget=_SMALL_BUDGET)
        if r1.verdict is cs.Verdict.TERMINATING:
            assert r_ja.verdict is cs.Verdict.TERMINATING, "case %d" % case
            r2 = cs.k_safe(rs, 2, Condition.WA, budget=_SMALL_BUDGET)
            if r2.verdict is not cs.Verdict.RESOURCE_EXHAUSTED:
                assert r2.verdict is cs.Verdict.TERMINATING, "case %d" % case
    assert replayed >= 10  # witness replay exercised across generated cases


# ---------------------------------------------------------------------------
# suite 4: k-cycle enumeration vs brute force on random relations


def _toy_rules(n):
    rules = []
    for i in range(n):
        v = Variable("X_%d" % (i + 1))
        rules.append(cs.Rule(id=chr(ord("a") + i),
                             body=(cs.Atom("p%d" % i, (v,)),),
                             head=(cs.Atom("p%d" % ((i + 1) % n), (v,)),)))
    return rules


def brute_force_sequences(rules, k, depends):
    cap = k + 1
    out = set()
    for n in range(2, cap * len(rules) + 1):
        for seq in itertools.product(rules, repeat=n):
            if seq[0] != seq[-1]:
                continue
            counts = occurrence_counts(seq)
            if max(counts.values()) != cap or any(c > cap for c in counts.values()):
                continue
            if all(any(depends(seq[i], seq[j]) for j in range(i)) for i in range(1, len(seq))):
                out.add(tuple(r.id for r in seq))
    return out


def test_cycle_enumeration_matches_brute_force_200():
    rng = random.Random(99)
    for case in range(200):
        n = rng.randrange(1, 4)
        rules = _toy_rules(n)
        relation = {
            (a.id, b.id): rng.random() < 0.55 for a in rules for b in rules
        }

        def depends(later, earlier):
            return relation[(later.id, earlier.id)]

        edges = tuple(
            (i, j)
            for i, earlier in enumerate(rules)
            for j, later in enumerate(rules)
            if depends(later, earlier)
        )
        graph = cs.DependencyGraph(cs.RuleSet(tuple(rules)), edges)
        k = rng.choice([1, 2])
        got = {c.rule_ids() for c in _sequences(rules, k, graph)}
        expected = brute_force_sequences(rules, k, depends)
        assert got == expected, "case %d (n=%d k=%d)" % (case, n, k)


# ---------------------------------------------------------------------------
# suite 5: parse . serialize identity


def test_parse_serialize_identity_200():
    rng = random.Random(1234)
    preds = {"p": 2, "q": 1, "s": 2}
    consts = ["a", "b", "c"]
    variables = ["X", "Y", "Z", "U"]
    for case in range(200):
        lines = []
        arity_of = dict(preds)
        for _ in range(rng.randrange(0, 4)):
            pred = rng.choice(list(preds))
            args = ",".join(rng.choice(consts) for _ in range(arity_of[pred]))
            lines.append("%s(%s)." % (pred, args))
        for i in range(rng.randrange(0, 4)):
            body_pred = rng.choice(list(preds))
            head_pred = rng.choice(list(preds))
            body_vars = [rng.choice(variables) for _ in range(arity_of[body_pred])]
            head_vars = [
                rng.choice(body_vars + ["W"]) for _ in range(arity_of[head_pred])
            ]
            label = "[c%d] " % i if rng.random() < 0.5 else ""
            lines.append(
                "%s%s(%s) :- %s(%s)."
                % (label, head_pred, ",".join(head_vars), body_pred, ",".join(body_vars))
            )
        text = "\n".join(lines) + ("\n" if lines else "")
        doc = cs.parse(text)
        again = cs.parse(cs.dlgp.serialize(doc))
        assert again.facts == doc.facts, "case %d" % case
        assert again.rules == doc.rules, "case %d" % case


# ---------------------------------------------------------------------------
# suite 6: generator structural post-conditions


def test_generator_postconditions_200():
    rng = random.Random(31337)
    for case in range(200):
        params = cs.GenParams(
            count=rng.randrange(1, 5),
            predicate_pool=rng.randrange(3, 12),
            arity=rng.randrange(2, 5),
            max_repeated_relations=rng.randrange(2, 4),
            body_atoms=rng.randrange(1, 3),
            head_atoms=rng.randrange(1, 4),
            head_shape=rng.choice(["chained", "discrete"]),
            seed=case,
        )
        rs = cs.generate(params)
        assert cs.generate(params) == rs  # determinism
        for r in rs:
            assert len(r.body) == params.body_atoms
            assert len(r.head) == params.head_atoms
            for a in r.all_atoms:
                assert a.arity == params.arity
            counts = {}
            for a in r.all_atoms:
                counts[a.pred] = counts.get(a.pred, 0) + 1
            assert max(counts.values()) <= params.max_repeated_relations
            if params.head_shape == "chained":
                for x, y in zip(r.head, r.head[1:]):
                    assert x.args[-1] == y.args[0]
            else:
                seen = set()
                for a in r.head:
                    names = {t.name for t in a.args}
                    assert not (names & seen)
                    seen |= names


# ---------------------------------------------------------------------------
# soundness smoke: Terminating verdicts never contradicted by small chases


def _smoke_one(rs, k, rng, cases=5):
    cap = 10 * (k + 1) * max(1, len(rs))
    for _ in range(cases):
        db = random_database(rng, rs)
        assert longest_restricted_run(db, rs, cap=cap) is not None, (
            "restricted chase exceeded %d steps on %s"
            % (cap, [str(a) for a in db.atoms()])
        )


def test_soundness_smoke_regressions():
    rng = random.Random(5150)
    for name, make in REGRESSIONS:
        rs = make()
        report = cs.k_safe(rs, 1, Condition.WA, budget=_SMALL_BUDGET)
        if report.verdict is cs.Verdict.TERMINATING:
            _smoke_one(rs, 1, rng)


def test_soundness_smoke_generated_50():
    rng = random.Random(8080)
    confirmed = 0
    attempts = 0
    while confirmed < 50 and attempts < 800:
        attempts += 1
        rs = random_rule_set(rng, max_rules=2)
        report = cs.k_safe(rs, 1, Condition.WA, budget=_SMALL_BUDGET)
        if report.verdict is not cs.Verdict.TERMINATING:
            continue
        _smoke_one(rs, 1, rng)
        confirmed += 1
    assert confirmed >= 50


# ---------------------------------------------------------------------------
# metamorphic verdicts: shuffled rule lines, renamed variables and predicates

# The benchmark's `fixtures` budget (bench/workloads.py), count-only.
_FIXTURES_BUDGET = Budget(max_steps=20_000, max_atoms=50_000, max_probes=50_000,
                          max_renamings=200, max_cycles=20_000)

_FIXTURE_TEXTS = {
    "handshake": fixtures.HANDSHAKE,
    "trusted": fixtures.HANDSHAKE_TRUSTED,
    "access_control": fixtures.ACCESS_CONTROL,
    "walk": fixtures.WALK,
    "vacuous": fixtures.VACUOUS_SELF,
    "triad": fixtures.TRIAD,
    "triad_guarded": fixtures.TRIAD_GUARDED,
    "datalog_first": fixtures.DATALOG_FIRST_PAIR,
}


def _shuffled_and_renamed(text, rng):
    """`text` with its rule lines shuffled and every variable and predicate
    renamed, under random one-to-one maps onto fresh names."""
    lines = [line for line in text.splitlines() if line.strip()]
    rng.shuffle(lines)
    text = "\n".join(lines) + "\n"
    renames = {}
    for pattern, fresh in ((r"\b[A-Z]\w*", "V%d"), (r"\b[a-z]\w*(?=\()", "p%d")):
        names = sorted(set(re.findall(pattern, text)))
        numbers = rng.sample(range(len(names)), len(names))
        renames.update((name, fresh % i) for name, i in zip(names, numbers))
        text = re.sub(pattern, lambda m: renames[m.group()], text)
    return text


def test_decided_fixture_verdicts_survive_shuffling_and_renaming():
    # a decided verdict may not flip between Terminating and NotProven on a
    # variant: no answer may depend on the order of the rules or on which
    # term objects their names map to
    rng = random.Random(90210)
    decided = {cs.Verdict.TERMINATING, cs.Verdict.NOT_PROVEN}
    compared = 0
    for name, text in _FIXTURE_TEXTS.items():
        variants = [_shuffled_and_renamed(text, rng) for _ in range(2)]
        for cond in (Condition.WA, Condition.AGRD):
            base = cs.k_safe(cs.parse_rules(text), 1, cond, budget=_FIXTURES_BUDGET).verdict
            for variant in variants:
                got = cs.k_safe(cs.parse_rules(variant), 1, cond, budget=_FIXTURES_BUDGET).verdict
                if base in decided and got in decided:
                    assert got is base, (name, cond, variant)
                    compared += 1
    assert compared >= 28
