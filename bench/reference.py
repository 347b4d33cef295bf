"""Fixed reference work, for scaling measured times to one machine speed.

The machines this benchmark runs on are shared: the same pure-Python loop
takes from 1.8 to 2.3 s in ten processes started one after another, and a
pass over a workload drifts by as much.  The runner therefore times this
fixed piece of pure-Python work between operations and multiplies each
operation's time by NOMINAL_S over the reference time measured around it.
Reported times are thus seconds on a machine where one reference sample
takes NOMINAL_S.  The work has the shape of the library's hot paths: a
backtracking join over tuple atoms with dict bindings, and frozen-dataclass
terms built, hashed and looked up in sets and dicts.  This file must not
change between two commits that are compared, or the scale changes with it.
"""

import gc
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.05

_FACTS = {
    "e": [(i % 23, (i * 7 + 3) % 23) for i in range(60)],
    "p": [((i * 5) % 23,) for i in range(60)],
}
_BODY = (("e", ("X", "Y")), ("e", ("Y", "Z")), ("p", ("Z",)))


@dataclass(frozen=True)
class _Term:
    fn: str
    args: tuple


def _join(depth: int, binding: dict) -> int:
    if depth == len(_BODY):
        return 1
    pred, pattern = _BODY[depth]
    found = 0
    for values in _FACTS[pred]:
        trail = []
        ok = True
        for var, value in zip(pattern, values):
            bound = binding.get(var)
            if bound is None:
                binding[var] = value
                trail.append(var)
            elif bound != value:
                ok = False
                break
        if ok:
            found += _join(depth + 1, binding)
        for var in trail:
            del binding[var]
    return found


def _terms(n: int) -> int:
    terms = [_Term("f%d" % (i % 17), (("c", i % 101), _Term("g", (i % 53,)))) for i in range(n)]
    seen = set(terms)
    by_fn = {}
    for t in terms:
        by_fn.setdefault(t.fn, []).append(t)
    return sum(1 for t in terms[: n // 2] if t in seen) + len(by_fn)


def work() -> int:
    total = 0
    for _ in range(5):
        total += _join(0, {}) + _terms(2500)
    return total


def sample() -> float:
    """Seconds one run of the reference work takes now.  The cyclic
    garbage collector is paused meanwhile: its passes scan the workload's
    heap, which would make the sample depend on the workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
