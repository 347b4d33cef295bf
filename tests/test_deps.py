import itertools

import pytest

import chase_sentinel as cs
from chase_sentinel import deps, model
from chase_sentinel.acyclicity import Condition
from chase_sentinel.deps import (
    PieceUnifier,
    _unify,
    dependency_graph,
    depends_on,
    piece_unifiers,
)
from chase_sentinel.model import Constant, Instance, Variable, apply_atom, atom

import fixtures
from fixtures import GENERATED, access_control, handshake, triad, vacuous_self
from oracles import (
    depends_on_brute_force,
    depends_on_reference,
    depends_on_wrt,
    piece_unifiers_reference,
)


def test_no_piece_unifier_for_vacuous_self_rule():
    r = vacuous_self().rules[0]
    assert list(piece_unifiers(r, r)) == []
    assert depends_on(r, r) is None


def test_piece_unifier_between_handshake_rules():
    rs = handshake()
    r1, r2 = rs.rules
    # r1's two-atom head unifies with r2's typeA body pair
    unifiers = list(piece_unifiers(r1, r2))
    assert unifiers
    assert any(len(pu.body_subset) == 2 and len(pu.head_subset) == 2 for pu in unifiers)


def test_disjoint_predicates_have_no_unifier():
    a = cs.parse_rules("[a] q(X) :- p(X).").rules[0]
    b = cs.parse_rules("[b] s(Y) :- t(Y).").rules[0]
    assert list(piece_unifiers(a, b)) == []
    assert depends_on(b, a) is None


def test_handshake_dependencies():
    rs = handshake()
    r1, r2 = rs.rules
    assert depends_on(r2, r1) is not None
    assert depends_on(r1, r2) is not None


def _instance_search_oracle(r2, r1, max_constants=3, max_atoms=3):
    """Small-instance search for the dependency relation: does any instance
    let r1 derive an atom that a fresh match of r2's body uses?"""
    preds = {}
    for r in (r1, r2):
        for a in r.all_atoms:
            preds[a.pred] = a.arity
    consts = [Constant(c) for c in ("c1", "c2", "c3")[:max_constants]]
    universe = [
        cs.Atom(p, combo)
        for p, arity in sorted(preds.items())
        for combo in itertools.product(consts, repeat=arity)
    ]
    for n in range(1, max_atoms + 1):
        for atoms in itertools.combinations(universe, n):
            if depends_on_wrt(r2, r1, Instance(atoms)):
                return True
    return False


def test_depends_on_agrees_with_instance_search_on_fixture_pairs():
    rs = handshake()
    r1, r2 = rs.rules
    pairs = [(r2, r1), (r1, r2), (r1, r1), (r2, r2)]
    for later, earlier in pairs:
        syntactic = depends_on(later, earlier) is not None
        semantic = _instance_search_oracle(later, earlier)
        if syntactic:
            # piece-unification is a necessary condition for dependency:
            # every semantic witness implies a unifier exists
            assert list(piece_unifiers(earlier, later))
        if semantic:
            assert list(piece_unifiers(earlier, later))


def test_vacuous_self_rule_has_no_semantic_dependency_either():
    r = vacuous_self().rules[0]
    assert not _instance_search_oracle(r, r)
    inst = Instance([cs.atom("t", Constant("a"), Constant("b")),
                     cs.atom("p", Constant("a"), Constant("b"))])
    assert not depends_on_wrt(r, r, inst)


def test_depends_on_wrt_access_control():
    rs = access_control()
    r2, r3 = rs.by_id["r2"], rs.by_id["r3"]
    db = cs.parse("hasKey(a,b).").database()
    assert depends_on_wrt(r3, r2, db)
    # no body match for r3's feeder -> no dependency w.r.t. this instance
    assert not depends_on_wrt(r2, r3, cs.parse("memOf(a,b).").database())


def test_grant_rule_feedback_is_unproductive():
    # r5 re-derives exactly r4's triggering atom, so the piece-unifier fails
    # the productive test in that direction while r4 does depend on r5
    rs = access_control()
    r4, r5 = rs.by_id["r4"], rs.by_id["r5"]
    assert depends_on(r4, r5) is not None
    assert depends_on(r5, r4) is None


def test_piece_unification_necessary_for_dependency_on_random_pairs():
    # Whenever the instance-relative dependency holds on a small random
    # instance, a piece-unifier of the pair must exist.
    import random

    rng = random.Random(321)
    shapes = [
        "[x{i}] q(X{i},E{i}) :- p(X{i},Y{i}).",
        "[x{i}] p(Y{i},E{i}) :- q(X{i},Y{i}).",
        "[x{i}] p(X{i},X{i}) :- q(X{i},Y{i}).",
        "[x{i}] q(X{i},Y{i}) :- p(X{i},Y{i}), p(Y{i},X{i}).",
        "[x{i}] s(E{i}) :- s(X{i}).",
    ]
    consts = [Constant(c) for c in ("c1", "c2")]
    for case in range(60):
        text = "".join(
            rng.choice(shapes).format(i=i) + "\n" for i in (1, 2)
        )
        try:
            rs = cs.parse_rules(text)
        except ValueError:
            continue
        if len(rs.rules) < 2:
            continue
        ra, rb = rs.rules
        preds = sorted(rs.schema.items())
        universe = [
            cs.Atom(p, combo)
            for p, arity in preds
            for combo in itertools.product(consts, repeat=arity)
        ]
        for atoms in itertools.combinations(universe, 2):
            inst = Instance(atoms)
            if depends_on_wrt(rb, ra, inst):
                assert list(piece_unifiers(ra, rb)), "case %d: %s" % (case, text)
                break


def test_dependency_graph_handshake():
    rs = handshake()
    g = dependency_graph(rs)
    ids = {(rs.rules[i].id, rs.rules[j].id) for i, j in g.edges}
    assert ids == {("r1", "r2"), ("r2", "r1"), ("r2", "r2")}
    # pure function of the rule set
    g2 = dependency_graph(rs)
    assert g2.edges == g.edges


def test_dependency_graph_triad():
    rs = triad()
    g = dependency_graph(rs)
    ids = {(rs.rules[i].id, rs.rules[j].id) for i, j in g.edges}
    assert ids == {("r1", "r3"), ("r3", "r1"), ("r2", "r3"), ("r3", "r2")}


def test_dependency_graph_disjoint_rules():
    rs = cs.parse_rules("[a] q(X) :- p(X).\n[b] s(Y) :- t(Y).")
    assert dependency_graph(rs).edges == ()


def test_dependency_graph_searches_only_pairs_that_share_a_predicate(monkeypatch):
    # A unifier pairs atoms of one predicate, so of the 360,000 ordered
    # pairs of the 600-rule ring only the 600 neighbours reach the search:
    # rule i writes p(i+1), which only rule i+1 reads.  The graph asks for
    # the raw unifier, so it builds no PieceUnifier and calls no
    # `depends_on`.
    n = 600
    rs = cs.parse_rules("".join("[r%d] p%d(X) :- p%d(X).\n" % (i, (i + 1) % n, i) for i in range(n)))
    calls = {"depends_on": 0, "_first_unifier": 0, "_single_pieces": 0, "_piece_unifier": 0}

    def counted(name):
        function = getattr(deps, name)

        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    for name in calls:
        monkeypatch.setattr(deps, name, counted(name))
    graph = dependency_graph(rs)
    assert calls == {"depends_on": 0, "_first_unifier": n, "_single_pieces": n, "_piece_unifier": 0}
    assert graph.edges == tuple(sorted((i, (i + 1) % n) for i in range(n)))
    assert graph.successors[n - 1] == [0] and graph.predecessors[0] == [n - 1]


def test_representative_map_rule():
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    a, b = Constant("a"), Constant("b")
    # without a constant, the least variable name represents the class
    assert _unify({}, atom("p", Z, X), atom("p", Y, Y)) == {X: X, Y: X, Z: X}
    # a constant represents its class, whichever side it comes from
    assert _unify({}, atom("p", X, Y), atom("p", Y, a)) == {X: a, Y: a, a: a}
    assert _unify({}, atom("p", a, Z), atom("p", X, X)) == {X: a, Z: a, a: a}
    # a step extends a copy: the map it starts from is left as it was
    start = {X: X, Y: X}
    assert _unify(start, atom("q", Y), atom("q", Z)) == {X: X, Y: X, Z: X}
    assert start == {X: X, Y: X}
    # two distinct constants clash, directly or through a repeated variable
    assert _unify({}, atom("p", a), atom("p", b)) is None
    assert _unify({}, atom("p", X, X), atom("p", a, b)) is None
    assert _unify({}, atom("p", X), atom("q", X)) is None


def _unproductive_fan(n):
    """r1 writes n p-atoms that share the existential Z; r2 re-derives one
    of its own body atoms.  Every body atom of r2 can join a piece through
    Z on any of the n head atoms: n^n single-piece unifiers, none of them
    productive."""
    head = ", ".join("p(Z,Y%d)" % i for i in range(1, n + 1))
    body = ", ".join("p(W,A%d)" % i for i in range(1, n + 1))
    return cs.parse_rules("[r1] %s :- q(X).\n[r2] p(W,A1) :- %s." % (head, body))


def test_a_head_inside_its_own_body_ends_the_test_before_any_unification(monkeypatch):
    # u(head(r2)) lies in u(body(r2)) for every unifier u when head(r2) lies
    # in body(r2), so no search is needed to refute productivity
    rs = _unproductive_fan(3)
    r1, r2 = rs.rules
    assert depends_on(r2, r1) is None and depends_on_reference(r2, r1) is None
    assert len(list(piece_unifiers(r1, r2))) == 3 ** 3
    unify = deps._unify
    calls = []

    def counted(*args):
        calls.append(args)
        return unify(*args)

    monkeypatch.setattr(deps, "_unify", counted)
    assert dependency_graph(_unproductive_fan(6)).edges == ()
    assert calls == []


def test_dependency_graph_builds_no_atom_image(monkeypatch):
    # the erasing and productive tests read (predicate, arguments) tuples
    sets = _differential_corpus("generated")
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_atom(*args)

    monkeypatch.setattr(model, "apply_atom", counted)
    monkeypatch.setattr(deps, "apply_atom", counted, raising=False)
    assert sum(len(dependency_graph(rs).edges) for rs in sets) == 1_963
    assert calls == []


def test_dot_export():
    dot = dependency_graph(handshake()).to_dot()
    assert dot.startswith("digraph")
    assert '"r1" -> "r2") ' not in dot
    assert '"r1" -> "r2";' in dot


# ---------------------------------------------------------------------------
# wide pieces: the single-piece search against the brute-force oracle

# r2's body is one piece of five atoms: all of them share W, which meets
# r1's existential Z.  A search capped at four body atoms misses it.
WIDE_PIECE_LOOP = """
[r1] p(X,Z) :- q(X).
[r2] q(W) :- p(A,W), p(B,W), p(C,W), p(D,W), p(E,W).
"""


def test_five_atom_piece_gives_the_dependency_and_refutes_termination():
    rs = cs.parse_rules(WIDE_PIECE_LOOP)
    r1, r2 = rs.rules
    pu = depends_on(r2, r1)
    assert isinstance(pu, PieceUnifier)
    assert len(pu.body_subset) == 5
    # from q(a) the restricted chase never stops: every step is active
    runs = [(Condition.AGRD, k) for k in (0, 1, 2)] + [(Condition.WA, k) for k in (1, 2)]
    for condition, k in runs:
        report = cs.k_safe(rs, k, condition)
        assert report.verdict is cs.Verdict.NOT_PROVEN, (condition, k)
        if k > 0:
            cs.replay_witness(report.witness, rs)


WIDE_PIECE_RULES = [
    WIDE_PIECE_LOOP,
    """
    [a1] p(X,Z), p(Z,Y) :- s(X).
    [a2] q(W) :- p(A,W), p(B,W), p(C,W), p(D,W), s(W).
    [a3] s(A) :- p(A,W), p(W,V), p(V,U), p(U,T), p(T,A).
    [a4] q(X) :- p(X,Y), p(Y,X), p(X,X), p(Y,Y), q(Y).
    [a5] p(X,Z) :- q(X).
    [a6] s(V) :- p(A,B), p(B,C), p(C,D), p(D,E), p(E,V).
    """,
    """
    [b1] r(X,Z,Z) :- t(X).
    [b2] t(Y) :- r(A,B,C), r(B,C,A), r(C,A,B), r(A,A,D), r(D,E,E).
    [b3] r(X,Y,Z), r(Z,Y,X) :- t(X), t(Y).
    [b4] u(W) :- r(A,W,B), r(B,W,A), r(a,W,C), r(C,C,W), u(A).
    [b5] r(a,Z,Y), u(Z) :- u(X), t(Y).
    """,
    # every piece joins both body atoms, and only unifiers that map neither
    # of them to p(X,Z) are productive: trying each atom pulled into a
    # piece on its first fitting head atom only would miss the edge
    """
    [c1] p(X,Z), p(Y,Z), p(V,Z) :- s(X,X), s(X,Y), s(X,V), s(Y,X), s(V,X).
    [c2] s(B,C) :- p(B,W), p(C,W).
    """,
]


def _differential_corpus(name):
    if name == "fixtures":
        return [make() for make in (
            fixtures.handshake, fixtures.handshake_trusted, fixtures.access_control,
            fixtures.walk, fixtures.vacuous_self, fixtures.triad, fixtures.triad_guarded,
            fixtures.datalog_first_pair,
        )]
    if name == "generated":
        return [cs.generate(cs.GenParams(seed=s, **GENERATED)) for s in range(200)]
    if name == "wide_generated":
        return [
            cs.generate(cs.GenParams(count=4, predicate_pool=4, arity=2, max_repeated_relations=4,
                                     body_atoms=b, head_atoms=h, head_shape=shape, seed=s))
            for b in (2, 3, 4)
            for h in (2, 3)
            for shape in ("chained", "discrete")
            for s in range(60)
        ]
    return [cs.parse_rules(text) for text in WIDE_PIECE_RULES]


@pytest.mark.parametrize("corpus", ["fixtures", "generated", "wide_generated", "wide_pieces"])
def test_depends_on_agrees_with_brute_force_oracle(corpus):
    disagreements = []
    edges = 0
    for rs in _differential_corpus(corpus):
        for r1 in rs.rules:
            for r2 in rs.rules:
                found = depends_on(r2, r1) is not None
                edges += found
                if found != depends_on_brute_force(r2, r1):
                    disagreements.append((str(r1), str(r2), found))
    assert disagreements == []
    assert edges > 0


@pytest.mark.parametrize("corpus", ["fixtures", "generated", "wide_generated", "wide_pieces"])
def test_piece_unifiers_match_the_union_find_reference(corpus):
    mismatches = []
    for rs in _differential_corpus(corpus):
        for r1 in rs.rules:
            for r2 in rs.rules:
                got = list(piece_unifiers(r1, r2))
                if got != list(piece_unifiers_reference(r1, r2)):
                    mismatches.append(("piece_unifiers", str(r1), str(r2)))
                if depends_on(r2, r1) != depends_on_reference(r2, r1):
                    mismatches.append(("depends_on", str(r1), str(r2)))
    assert mismatches == []


@pytest.mark.parametrize("corpus", ["fixtures", "generated", "wide_generated", "wide_pieces"])
def test_dependency_graph_matches_the_all_pairs_graph(corpus):
    for rs in _differential_corpus(corpus):
        rules = rs.rules
        all_pairs = tuple(
            (i, j)
            for i, r1 in enumerate(rules)
            for j, r2 in enumerate(rules)
            if depends_on(r2, r1) is not None
        )
        assert dependency_graph(rs).edges == all_pairs
