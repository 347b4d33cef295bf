import itertools

import pytest

import chase_sentinel as cs
from chase_sentinel.acyclicity import connected_components
from chase_sentinel.cycles import (
    KCycle,
    _sequences,
    enumerate_k_cycles,
    occurrence_counts,
)
from chase_sentinel.deps import dependency_graph

from fixtures import handshake, handshake_trusted, triad, vacuous_self, walk
from oracles import graph_depends, is_relevant


def _ids(stream):
    return [c.rule_ids() for c in stream]


def test_walk_rule_single_one_cycle():
    rs = walk()
    cycles = _ids(enumerate_k_cycles(1, dependency_graph(rs)))
    assert cycles == [("r", "r")]


def test_handshake_one_cycles_include_both_rotations():
    rs = handshake()
    cycles = _ids(enumerate_k_cycles(1, dependency_graph(rs)))
    assert ("r1", "r2", "r1") in cycles
    assert ("r2", "r1", "r2") in cycles
    assert ("r2", "r2") in cycles
    for ids in cycles:
        counts = {}
        for r in ids:
            counts[r] = counts.get(r, 0) + 1
        assert max(counts.values()) == 2
        assert ids[0] == ids[-1]


def test_trusted_handshake_two_cycles_include_alternation():
    rs = handshake_trusted()
    cycles = _ids(enumerate_k_cycles(2, dependency_graph(rs)))
    assert ("r3", "r4", "r3", "r4", "r3") in cycles
    for ids in cycles:
        counts = {}
        for r in ids:
            counts[r] = counts.get(r, 0) + 1
        assert max(counts.values()) == 3


def test_triad_reverse_rotation_is_enumerated():
    # the reverse rotation chains through the producing rule even though the
    # middle rules do not depend on one another pairwise
    rs = triad()
    ids = _ids(enumerate_k_cycles(1, dependency_graph(rs)))
    assert ("r3", "r2", "r1", "r3") in ids


def test_kcycle_invariant_checked():
    rs = handshake()
    r1, r2 = rs.rules
    with pytest.raises(ValueError):
        KCycle(path=(r1, r2), k=1)  # endpoints differ
    with pytest.raises(ValueError):
        KCycle(path=(r1, r2, r1), k=2)  # nothing occurs three times


def test_vacuous_self_rule_yields_no_cycles():
    rs = vacuous_self()
    assert _ids(enumerate_k_cycles(1, dependency_graph(rs))) == []


def test_truncation_marker():
    rs = handshake()
    stream = enumerate_k_cycles(2, dependency_graph(rs), limit=2)
    listed = _ids(stream)
    assert len(listed) == 2
    assert stream.truncated


def brute_force_cycles(rules, k, depends):
    """Oracle: every closed sequence with the occurrence cap whose non-first
    elements depend on some earlier element."""
    cap = k + 1
    out = set()
    max_len = cap * len(rules)

    def ok(seq):
        if seq[0] != seq[-1]:
            return False
        counts = occurrence_counts(seq)
        if max(counts.values()) != cap:
            return False
        for i in range(1, len(seq)):
            if not any(depends(seq[i], seq[j]) for j in range(i)):
                return False
        return True

    for n in range(2, max_len + 1):
        for seq in itertools.product(rules, repeat=n):
            counts = occurrence_counts(seq)
            if max(counts.values()) > cap:
                continue
            if ok(seq):
                out.add(tuple(r.id for r in seq))
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_enumeration_matches_brute_force(k):
    for rs in (handshake(), triad(), walk()):
        graph = dependency_graph(rs)
        found = set(_ids(enumerate_k_cycles(k, graph)))
        expected = brute_force_cycles(
            list(rs.rules), k, lambda later, earlier: graph_depends(graph, later, earlier)
        )
        assert found == expected


def test_every_two_cycle_contains_a_one_cycle_infix():
    rs = handshake_trusted()
    two = _ids(enumerate_k_cycles(2, dependency_graph(rs)))
    assert two
    for ids in two:
        found = False
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                window = ids[i : j + 1]
                if window[0] != window[-1]:
                    continue
                counts = {}
                for r in window:
                    counts[r] = counts.get(r, 0) + 1
                if max(counts.values()) == 2:
                    found = True
        assert found, ids


def test_enumeration_skips_paths_that_cannot_close():
    # One 50-rule component where the start rule depends on a single rule.
    # Extending a path with the start rule up to its cap of k + 1 leaves
    # nothing to close, and searching such subtrees takes minutes between
    # cycles.  The first 100 cycles take about 5,900 candidate reads; a
    # search without the start-rule cap passes 200,000.
    rs = cs.generate(cs.GenParams(
        count=50, predicate_pool=20, arity=2, max_repeated_relations=3,
        body_atoms=1, head_atoms=2, head_shape="discrete", seed=1,
    ))
    graph = dependency_graph(rs)
    (component,) = connected_components(graph)

    class CountedComponent(list):
        reads = 0

        def __iter__(self):
            for r in super().__iter__():
                CountedComponent.reads += 1
                assert CountedComponent.reads <= 10_000, "enumeration searches dead subtrees"
                yield r

    cycles = list(itertools.islice(_sequences(CountedComponent(component), 1, graph), 100))
    assert len(cycles) == 100
    assert all(c.path[0] is c.path[-1] for c in cycles)


def test_is_relevant():
    r = vacuous_self().rules[0]
    assert not is_relevant((r, r))
    rs = handshake()
    r1, r2 = rs.rules
    assert is_relevant((r1, r2, r1))
    a = cs.parse_rules("[a] q(X) :- p(X).").rules[0]
    b = cs.parse_rules("[b] s(Y) :- t(Y).").rules[0]
    assert not is_relevant((a, b, a))
