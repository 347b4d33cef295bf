"""Enumeration of k-cycles over a rule set and the relevance filter.

A k-cycle is a closed rule path (first element = last, both occurrences
counted) in which some rule occurs exactly k+1 times and none more.  Cycles
are generated inside one strongly connected component of the dependency
graph at a time, and every element after the first must depend on some
earlier element of the path; that linkage is what makes a cycle realizable
as a chained derivation, and it prunes exactly the cycles the relevance
test would discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from .deps import DependencyGraph, dependency_graph
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


def _sequences(
    rules: Sequence[Rule],
    k: int,
    depends_on_earlier: Callable[[Rule, List[Rule]], bool],
) -> Iterator[KCycle]:
    """DFS over rule sequences within one component.  Extension candidates
    must depend on some rule already on the path; closures are yielded
    before deeper extensions."""
    cap = k + 1

    def extend(path: List[Rule], counts: dict) -> Iterator[KCycle]:
        first = path[0]
        if counts.get(first.id, 0) < cap:
            if depends_on_earlier(first, path):
                closed = counts.get(first.id, 0) + 1
                peak = max(max(counts.values()), closed)
                if peak == cap:
                    yield KCycle(path=tuple(path) + (first,), k=k)
        for r in rules:
            if counts.get(r.id, 0) >= cap:
                continue
            if not depends_on_earlier(r, path):
                continue
            path.append(r)
            counts[r.id] = counts.get(r.id, 0) + 1
            yield from extend(path, counts)
            counts[r.id] -= 1
            path.pop()

    for start in rules:
        yield from extend([start], {start.id: 1})


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
    from .acyclicity import connected_components

    comps = components if components is not None else connected_components(graph)

    def depends_on_some_earlier(candidate: Rule, path: List[Rule]) -> bool:
        seen = set()
        for earlier in path:
            if earlier.id in seen:
                continue
            seen.add(earlier.id)
            if graph.depends(candidate, earlier):
                return True
        return False

    def gen() -> Iterator[KCycle]:
        for comp in comps:
            yield from _sequences(list(comp), k, depends_on_some_earlier)

    return CycleStream(gen(), limit)


def is_relevant(cycle_path: Sequence[Rule], graph: Optional[DependencyGraph] = None) -> bool:
    """A cycle is relevant when every element after the first has a
    dependency (piece-unifier passing the atom-erasing and productive tests)
    on some earlier element.  `graph` is the dependency graph of a rule set
    holding the cycle's rules; by default one is built over them."""
    if graph is None:
        graph = dependency_graph(RuleSet(tuple(dict.fromkeys(cycle_path))))
    for i in range(1, len(cycle_path)):
        if not any(graph.depends(cycle_path[i], cycle_path[j]) for j in range(i)):
            return False
    return True
