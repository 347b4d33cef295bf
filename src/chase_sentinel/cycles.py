"""Enumeration of k-cycles over a rule set.

A k-cycle is a closed rule path (first element = last, both occurrences
counted) in which some rule occurs exactly k+1 times and none more.  Cycles
are generated inside one strongly connected component of the dependency
graph at a time, and every element after the first must depend on some
earlier element of the path; that linkage is what makes a cycle realizable
as a chained derivation, and it is the relevance test itself, so every
enumerated cycle is relevant.  The search runs on an explicit stack over
`DependencyGraph.predecessors`; no call recurses per path element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from .acyclicity import connected_components
from .deps import DependencyGraph
from .model import Rule, RuleSet


@dataclass(frozen=True)
class KCycle:
    path: tuple  # rules; path[0] == path[-1]
    k: int

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a cycle has at least two elements")
        if self.path[0] is not self.path[-1] and self.path[0] != self.path[-1]:
            raise ValueError("cycle endpoints must coincide")
        counts = occurrence_counts(self.path)
        peak = max(counts.values())
        if peak != self.k + 1:
            raise ValueError("no rule occurs exactly k+1 times")

    def rule_ids(self) -> tuple:
        return tuple(r.id for r in self.path)


def occurrence_counts(path: Sequence[Rule]) -> dict:
    counts: dict = {}
    for r in path:
        counts[r.id] = counts.get(r.id, 0) + 1
    return counts


class CycleStream:
    """Iterator over k-cycles with an explicit truncation marker."""

    def __init__(self, gen: Iterator[KCycle], limit: Optional[int]):
        self._gen = gen
        self._limit = limit
        self.emitted = 0
        self.truncated = False

    def __iter__(self) -> Iterator[KCycle]:
        for cycle in self._gen:
            if self._limit is not None and self.emitted >= self._limit:
                self.truncated = True
                return
            self.emitted += 1
            yield cycle


def _sequences(rules: Sequence[Rule], k: int, graph: DependencyGraph) -> Iterator[KCycle]:
    """DFS over rule sequences within one component, on an explicit stack
    of candidate iterators, one per path element.  A candidate extends the
    path when it depends on some rule already on it: one of its
    `graph.predecessors` has a nonzero occurrence count.  Closures are
    yielded before deeper extensions."""
    cap = k + 1
    position, predecessors = graph.positions, graph.predecessors
    counts = [0] * len(predecessors)  # occurrences on the path, by rule index

    def depends_on_path(r: Rule) -> bool:
        return any(counts[i] for i in predecessors[position[r.id]])

    for first in rules:
        start = position[first.id]
        counts[start] = 1
        path: List[Rule] = [first]
        frames: list = []  # one candidate iterator per path element
        while path:
            if len(frames) < len(path):  # path[-1] is new: try to close, then extend
                if depends_on_path(first) and max(max(counts), counts[start] + 1) == cap:
                    yield KCycle(path=tuple(path) + (first,), k=k)
                frames.append(iter(rules))
            # the start rule stays below its cap inside the path, or the
            # cycle could not close; so closing it above needs no cap test
            fits = (c for c in frames[-1] if counts[position[c.id]] + (c is first) < cap)
            r = next((c for c in fits if depends_on_path(c)), None)
            if r is None:
                frames.pop()
                counts[position[path.pop().id]] -= 1
            else:
                counts[position[r.id]] += 1
                path.append(r)


def enumerate_k_cycles(
    rs: RuleSet,
    k: int,
    graph: DependencyGraph,
    limit: Optional[int] = None,
    components: Optional[Sequence[tuple]] = None,
) -> CycleStream:
    """All k-cycles, one strongly connected component at a time.

    `components` may be passed to restrict enumeration (e.g. to components
    failing an acyclicity condition); by default all components are used.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    comps = components if components is not None else connected_components(graph)
    return CycleStream((c for comp in comps for c in _sequences(comp, k, graph)), limit)

