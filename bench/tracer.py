"""Outside-in tracer for chase_sentinel.

The tracer wraps the public functions of each module from outside the
package, in every namespace that holds them: `activeness` and `chase`
import `find_homomorphisms` and friends by name, so patching `hom` alone
would miss those call sites.  Each wrapped call is a span on one stack; a
span's self time is its duration minus the time of the spans it encloses.
Generators are timed by the time spent inside `next()`.  Probes are counted
at `Meter.charge_probe`.  Spans are aggregated per name as they close, so
memory stays flat however many calls a pass makes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "chase_sentinel"

# (module, attribute, span name, kind); kind "call" times a call, "gen"
# times each next() of the returned generator.
SPANS = (
    ("dlgp", "parse", "dlgp.parse", "call"),
    ("gen", "generate", "gen.generate", "call"),
    ("deps", "dependency_graph", "deps.graph", "call"),
    ("deps", "depends_on", "deps.depends", "call"),
    ("acyclicity", "check_condition", "acyclicity.check", "call"),
    ("cycles", "CycleStream.__iter__", "cycles.enumerate", "gen"),
    ("critdb", "restricted_critical_db", "critdb.build", "call"),
    ("critdb", "skolem_critical_db", "critdb.build", "call"),
    ("critdb", "apply_renaming", "critdb.build", "call"),
    ("critdb", "propose_merges", "critdb.build", "call"),
    ("critdb", "all_renamings", "critdb.build", "gen"),
    ("activeness", "k_safe", "activeness.k_safe", "call"),
    ("activeness", "is_path_active", "activeness.path", "call"),
    ("activeness", "is_active_wrt", "activeness.wrt", "call"),
    ("hom", "find_homomorphisms", "hom.find", "gen"),
    ("hom", "is_active_trigger", "hom.active", "call"),
    ("hom", "apply_trigger", "hom.apply", "call"),
    ("chase", "skolem_chase", "chase.run", "call"),
    ("chase", "greedy_restricted", "chase.run", "call"),
    ("bounded", "memb_check", "bounded.memb", "call"),
)


class Tracer:
    """Per-span-name call counts, self and total time, plus work counters
    read from call results."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.height_max = 0
        self.wall_clock_meters = 0
        self._stack = []  # [name, start, child seconds]
        self._patches = []  # (namespace, attribute, original)

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_s[name] += elapsed - child
        self.total_s[name] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark wraps each operation in one."""
        self.calls[name] += 1
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def _wrap_call(self, name, fn, observe):
        calls, enter, exit_ = self.calls, self._enter, self._exit

        def wrapper(*args, **kwargs):
            calls[name] += 1
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, name, fn, observe):
        calls, enter, exit_ = self.calls, self._enter, self._exit

        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    exit_()
                if observe is not None:
                    observe(item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers of results -------------------------------------------

    def _count(self, key):
        counts = self.counts

        def observe(_item):
            counts[key] += 1

        return observe

    def _proposals(self, result):
        self.counts["critdb.proposals"] += len(result)

    def _k_safe(self, report):
        if report.stats.truncated:
            self.counts["activeness.exhausted.cycles"] += 1

    def _path(self, verdict):
        status = verdict.status.value
        if status == "active":
            self.counts["activeness.active"] += 1
        elif status == "inconclusive":
            self.counts["activeness.exhausted.%s" % verdict.reason] += 1

    def _chase_run(self, trace):
        self.counts["chase.steps"] += len(trace.steps)
        if trace.final is not None:
            self.counts["model.atoms_final"] += len(trace.final)
            self.height_max = max(self.height_max, trace.final.ht())

    def _observer(self, attribute):
        return {
            "CycleStream.__iter__": self._count("cycles.emitted"),
            "all_renamings": self._count("critdb.sweep_renamings"),
            "propose_merges": self._proposals,
            "k_safe": self._k_safe,
            "is_path_active": self._path,
            "skolem_chase": self._chase_run,
            "greedy_restricted": self._chase_run,
        }.get(attribute)

    # -- installation ---------------------------------------------------

    def _namespaces(self):
        return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _patch(self, namespace, attribute, value) -> None:
        self._patches.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, value)

    def install(self) -> None:
        namespaces = self._namespaces()
        for module_name, attribute, name, kind in SPANS:
            module = sys.modules["%s.%s" % (PACKAGE, module_name)]
            owner_name, _, method = attribute.rpartition(".")
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            observe = self._observer(attribute)
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, method, wrap(name, getattr(owner, method), observe))
                continue
            original = getattr(module, attribute)
            wrapper = wrap(name, original, observe)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        self._patch_meter(sys.modules[PACKAGE + ".chase"].Meter)

    def _patch_meter(self, meter_cls) -> None:
        counts = self.counts
        charge_probe = meter_cls.charge_probe
        init = meter_cls.__init__

        def counted_charge_probe(meter):
            counts["hom.probes"] += 1
            return charge_probe(meter)

        def guarded_init(meter, budget):
            init(meter, budget)
            if meter.budget.wall_clock_s is not None:
                self.wall_clock_meters += 1

        self._patch(meter_cls, "charge_probe", counted_charge_probe)
        self._patch(meter_cls, "__init__", guarded_init)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    # -- per-layer metrics ----------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit, called); `called` is
        False where the layer was not reached, and the value then reads 0."""
        c, s, n = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        path_calls = c["activeness.path"]
        out = {
            "dlgp.parse_calls": (c["dlgp.parse"], "count", "dlgp.parse"),
            "dlgp.parse_s": (s["dlgp.parse"], "s", "dlgp.parse"),
            "gen.generate_s": (s["gen.generate"], "s", "gen.generate"),
            "deps.graph_s": (s["deps.graph"], "s", "deps.graph"),
            "deps.depends_calls": (c["deps.depends"], "count", "deps.depends"),
            "deps.depends_s": (s["deps.depends"], "s", "deps.depends"),
            "acyclicity.check_calls": (c["acyclicity.check"], "count", "acyclicity.check"),
            "acyclicity.check_s": (s["acyclicity.check"], "s", "acyclicity.check"),
            "cycles.emitted": (n["cycles.emitted"], "count", "cycles.enumerate"),
            "cycles.enumerate_s": (s["cycles.enumerate"], "s", "cycles.enumerate"),
            "critdb.build_s": (s["critdb.build"], "s", "critdb.build"),
            "critdb.proposals": (n["critdb.proposals"], "count", "critdb.build"),
            "critdb.sweep_renamings": (n["critdb.sweep_renamings"], "count", "critdb.build"),
            "activeness.path_calls": (path_calls, "count", "activeness.path"),
            "activeness.path_s": (s["activeness.path"], "s", "activeness.path"),
            "activeness.wrt_calls": (c["activeness.wrt"], "count", "activeness.wrt"),
            "activeness.wrt_s": (s["activeness.wrt"], "s", "activeness.wrt"),
            "activeness.wrt_per_path": (
                ratio(c["activeness.wrt"], path_calls),
                "calls/path",
                "activeness.path",
            ),
            "activeness.active_ratio": (
                ratio(n["activeness.active"], path_calls),
                "fraction",
                "activeness.path",
            ),
            "activeness.exhausted.probes": (
                n["activeness.exhausted.probes"],
                "count",
                "activeness.path",
            ),
            "activeness.exhausted.renamings": (
                n["activeness.exhausted.renamings"],
                "count",
                "activeness.path",
            ),
            "activeness.exhausted.cycles": (
                n["activeness.exhausted.cycles"],
                "count",
                "activeness.k_safe",
            ),
            "hom.find_calls": (c["hom.find"], "count", "hom.find"),
            "hom.find_s": (s["hom.find"], "s", "hom.find"),
            "hom.probes": (n["hom.probes"], "count", "hom.find"),
            "hom.probes_per_s": (ratio(n["hom.probes"], s["hom.find"]), "1/s", "hom.find"),
            "hom.active_calls": (c["hom.active"], "count", "hom.active"),
            "hom.active_s": (s["hom.active"], "s", "hom.active"),
            "hom.apply_calls": (c["hom.apply"], "count", "hom.apply"),
            "chase.runs": (c["chase.run"], "count", "chase.run"),
            "chase.steps": (n["chase.steps"], "count", "chase.run"),
            "chase.run_s": (s["chase.run"], "s", "chase.run"),
            # Steps over the whole time inside the chase loops, hom included.
            "chase.steps_per_s": (
                ratio(n["chase.steps"], self.total_s["chase.run"]),
                "1/s",
                "chase.run",
            ),
            "bounded.memb_calls": (c["bounded.memb"], "count", "bounded.memb"),
            "bounded.memb_s": (s["bounded.memb"], "s", "bounded.memb"),
            "model.atoms_final": (n["model.atoms_final"], "atoms", "chase.run"),
            "model.height_max": (self.height_max, "height", "chase.run"),
        }
        return {
            metric: (value, unit, c[span] > 0) for metric, (value, unit, span) in out.items()
        }
