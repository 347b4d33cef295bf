"""chase-sentinel benchmark runner.

    python3 bench/run.py --workload {fixtures,generated,chase,all} --seed N \
        --seconds S --trace {0,1}

One closed-loop, single-process, single-threaded client: each operation
starts after the previous one has returned.  The runner imports the library
from this checkout's src/, builds the workload's operation list from the
seed (see workloads.py), and runs whole passes over it until the next pass
would end after --seconds.  Outputs are checked after each pass, outside the
timed region: expected answers, witness replay and chase-trace replay.
Times are scaled to a fixed machine speed with the reference work in
reference.py; the text output shows measured and scaled pass times.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then one pass under the outside-in tracer (tracer.py), and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--workload all runs the three workloads one after another, each in a fresh
process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import reference
import workloads
from tracer import Tracer

# Set-up is repeated and its median reported, so one slow import (a cold
# file cache, the first .pyc compile in a fresh checkout) does not set it.
SETUP_REPEATS = 9

# How often the reference work is sampled during a pass (reference.py).  One
# sample is noisy on its own; each operation is scaled by the median of the
# samples within REFERENCE_WINDOW places of it, which follows drifts of a few
# seconds and averages out faster noise.
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW = 4

# An operation whose first run is faster than REPEAT_BELOW_S is run
# REPEATS times back to back and timed by the median run: single timings
# this short are too noisy to rank.  Runs with --trace 1 run every
# operation once, so that the traced counts repeat exactly and both passes
# do the same work.
REPEAT_BELOW_S = 0.25
REPEATS = 3

# op_s.tail is the highest of these percentiles (in tenths of a percent, to
# keep the arithmetic exact) that leaves at least TAIL_BEYOND operations of
# a pass above it.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least TAIL_BEYOND of `n`
    samples beyond it; None when there is none (fewer than 20 samples)."""
    best = None
    for q in TAIL_LADDER:
        if n * (1000 - q) >= TAIL_BEYOND * 1000:
            best = q / 10
    return best


def percentile(values: list, q: Optional[float]) -> float:
    """Nearest-rank percentile; q=None gives the maximum."""
    ordered = sorted(values)
    if q is None:
        return ordered[-1]
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class OpResult:
    name: str
    seconds: float
    answer: str
    decided: bool
    evidence: object = None  # witness or trace replayed by the gate
    rule_set: object = None
    failure: Optional[str] = None


def _k_safe(lib, doc, kw, budget):
    return lib.k_safe(
        doc.rule_set(),
        kw["k"],
        lib.Condition(kw["condition"]),
        datalog_first=kw.get("datalog_first", False),
        budget=budget,
        jobs=1,
    )


def _check_condition(lib, doc, kw, budget):
    return lib.check_condition(lib.Condition(kw["condition"]), doc.rule_set(), budget)


def _memb_check(lib, doc, kw, budget):
    return lib.memb_check(doc.rule_set(), lib.parse_bound(kw["delta"]), budget=budget)


def _skolem_chase(lib, doc, kw, budget):
    return lib.skolem_chase(
        doc.database(),
        doc.rule_set(),
        budget=budget,
        detect_cyclic_terms=kw.get("detect_cyclic_terms", False),
    )


def _greedy_restricted(lib, doc, kw, budget):
    return lib.greedy_restricted(
        doc.database(), doc.rule_set(), budget=budget, datalog_first=kw.get("datalog_first", False)
    )


CALLS = {
    "k_safe": _k_safe,
    "check_condition": _check_condition,
    "memb_check": _memb_check,
    "skolem_chase": _skolem_chase,
    "greedy_restricted": _greedy_restricted,
}


def answer_of(call: str, result) -> tuple:
    """(answer, decided, evidence to replay) for one library result."""
    if call == "k_safe":
        answer = result.verdict.value
        witness = result.witness if answer == "NotProven" else None
        return answer, answer != "ResourceExhausted", witness
    if call == "check_condition":
        answer = {True: "holds", False: "fails", None: "unknown"}[result.value]
        return answer, result.value is not None, None
    if call == "memb_check":
        answer = {True: "T", False: "F", None: "unknown"}[result.value]
        return answer, result.value is not None, result.witness if result.value is False else None
    outcome = result.outcome
    answer = type(outcome).__name__
    if answer == "BudgetExhausted":
        return "BudgetExhausted:%s" % outcome.reason, False, result
    return answer, True, result


def run_op(lib, op) -> OpResult:
    call = CALLS[op.call]
    budget = lib.Budget(**dict(op.budget))
    kw = op.kwargs()
    start = perf_counter()
    try:
        doc = lib.parse(op.text)
        result = call(lib, doc, kw, budget)
    except Exception as e:  # an operation that raises counts as failed
        return OpResult(
            op.name,
            perf_counter() - start,
            "raised:%s" % type(e).__name__,
            False,
            failure="raised %s" % type(e).__name__,
        )
    seconds = perf_counter() - start
    answer, decided, evidence = answer_of(op.call, result)
    return OpResult(op.name, seconds, answer, decided, evidence, doc.rule_set())


def gate(lib, op, res: OpResult) -> None:
    """Correctness checks after timing; records the first failure found.

    A decisive answer must match the hand-written one; every NotProven
    verdict and bounded F must carry a witness replay_witness accepts; every
    chase trace must replay to the instance the run returned.
    ResourceExhausted and other undecided answers are not failures."""
    if res.failure is not None:
        return
    if op.expect is not None and res.decided and res.answer != op.expect:
        res.failure = "answered %s, expected %s" % (res.answer, op.expect)
    elif res.answer in ("NotProven", "F"):
        if res.evidence is None:
            res.failure = "%s without a witness" % res.answer
        else:
            try:
                lib.replay_witness(res.evidence, res.rule_set)
            except Exception as e:
                res.failure = "witness replay failed: %s: %s" % (type(e).__name__, e)
    elif op.call in ("skolem_chase", "greedy_restricted"):
        try:
            replayed = res.evidence.replay(res.rule_set)
            if set(replayed.atoms()) != set(res.evidence.final.atoms()):
                res.failure = "trace replay gives another instance"
        except Exception as e:
            res.failure = "trace replay failed: %s: %s" % (type(e).__name__, e)
    res.evidence = res.rule_set = None


@dataclass
class Pass:
    wall_s: float  # sum of the scaled operation times
    raw_wall_s: float  # the same, unscaled
    reference_s: float  # median reference sample during the pass
    results: list


def timed_op(lib, op, repeat: bool) -> OpResult:
    """run_op, repeated when asked and the first run is short; the result
    carries the median time, and the answer of the first run."""
    res = run_op(lib, op)
    times = [res.seconds]
    while repeat and res.seconds < REPEAT_BELOW_S and len(times) < REPEATS:
        again = run_op(lib, op)
        if again.answer != res.answer and res.failure is None:
            res.failure = "answered %s on a repeat" % again.answer
        times.append(again.seconds)
    res.seconds = statistics.median(times)
    return res


def run_pass(lib, ops, tracer: Optional[Tracer] = None, repeat: bool = True) -> Pass:
    """Run every operation, back to back, with a reference sample at least
    every REFERENCE_EVERY_S between operations; each operation's time is
    scaled by the median of the samples within REFERENCE_WINDOW places of
    it.  Outputs are checked afterwards."""
    gc.collect()
    samples = [reference.sample()]
    last_sample = perf_counter()
    before = []  # index of the sample taken last before each operation
    results = []
    for op in ops:
        if perf_counter() - last_sample >= REFERENCE_EVERY_S:
            samples.append(reference.sample())
            last_sample = perf_counter()
        before.append(len(samples) - 1)
        if tracer is None:
            results.append(timed_op(lib, op, repeat))
        else:
            results.append(tracer.span("op", timed_op, lib, op, repeat))
    samples.append(reference.sample())
    raw = sum(r.seconds for r in results)
    for res, i in zip(results, before):
        window = samples[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 2]
        res.seconds *= reference.NOMINAL_S / statistics.median(window)
    for op, res in zip(ops, results):
        gate(lib, op, res)
    return Pass(sum(r.seconds for r in results), raw, statistics.median(samples), results)


def set_up(workload: str, seed: int):
    """Import the library and build the operation list; returns
    (library, operations, median scaled seconds over SETUP_REPEATS)."""
    times = []
    samples = [reference.sample()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = workloads.import_library()
        ops = workloads.build_ops(lib, workload, seed)
        times.append(perf_counter() - start)
        samples.append(reference.sample())
    return lib, ops, statistics.median(times) * reference.NOMINAL_S / statistics.median(samples)


def summarize(passes: list) -> dict:
    """Failure bookkeeping over all passes, plus answers that changed from
    one pass to the next (count-only budgets make every answer repeat)."""
    first = {r.name: r.answer for r in passes[0].results}
    attempted = failed = decided = 0
    failures = {}
    unsteady = set()
    for p in passes:
        for r in p.results:
            attempted += 1
            decided += r.decided
            if r.answer != first[r.name]:
                unsteady.add(r.name)
            if r.failure is not None:
                failed += 1
                failures.setdefault(r.name, r.failure)
    unknown = sorted(set(failures) - workloads.KNOWN_FAILURES)
    return {
        "attempted": attempted,
        "failed": failed,
        "decided": decided,
        "failures": failures,
        "correct": not unknown and not unsteady,
        "unsteady": sorted(unsteady),
    }


def end_to_end(passes: list, setup_s: float, summary: dict) -> tuple:
    """The seven end-to-end metrics, and a note on the tail percentile.
    Latency percentiles are taken over each operation's median time across
    the passes, which damps the noise of millisecond operations."""
    n = len(passes[0].results)
    q = tail_percentile(n)
    latencies = [statistics.median(op) for op in zip(*([r.seconds for r in p.results] for p in passes))]
    attempted = summary["attempted"]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_s.p50": (percentile(latencies, 50.0), "s"),
        "op_s.tail": (percentile(latencies, q), "s"),
        "decided_ratio": (summary["decided"] / attempted, "fraction"),
        "ok_ratio": (1.0 - summary["failed"] / attempted, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    label = "max" if q is None else "p%g" % q
    note = "op_s.tail is the %s of %d operations (each the median of %d passes)" % (
        label,
        n,
        len(passes),
    )
    return metrics, note


def parse_args(argv):
    parser = argparse.ArgumentParser(description="chase-sentinel benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other, so set-up
    time and peak memory belong to that workload."""
    for workload in workloads.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        code = subprocess.call([sys.executable, __file__] + argv + ["--trace", str(args.trace)])
        if code != 0:
            return code
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    lib, ops, setup_s = set_up(args.workload, args.seed)
    print("workload %s, seed %d, %d operations per pass" % (args.workload, args.seed, len(ops)))

    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(run_pass(lib, ops, repeat=not args.trace))
        now = perf_counter()
        if args.trace or now - start + (now - pass_start) > args.seconds:
            break

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_ops = tracer.span("setup", workloads.build_ops, lib, args.workload, args.seed)
            traced = run_pass(lib, traced_ops, tracer, repeat=False)
        finally:
            tracer.uninstall()
        if traced_ops != ops:
            raise SystemExit("the operation list changed between two builds from one seed")
        if tracer.wall_clock_meters:
            raise SystemExit("%d budget meters ran under a wall clock" % tracer.wall_clock_meters)
        passes.append(traced)
        values = tracer.metrics()
        values["trace.overhead"] = (traced.wall_s / passes[0].wall_s - 1.0, "fraction", True)
        metrics = {name: (v, unit) for name, (v, unit, _) in values.items()}
        not_called = sorted(name for name, (_, _, called) in values.items() if not called)
        notes = ["the last pass ran under the tracer"]
        if not_called:
            notes.append("n/a (layer not called, reported as 0): %s" % ", ".join(not_called))
        summary = summarize(passes)
    else:
        summary = summarize(passes)
        metrics, note = end_to_end(passes, setup_s, summary)
        notes = [note]

    print(
        "%d passes, %d operations attempted, %d failed"
        % (len(passes), summary["attempted"], summary["failed"])
    )
    for i, p in enumerate(passes, start=1):
        print(
            "  pass %d: %.3f s scaled, %.3f s measured, reference sample %.4f s (nominal %.4f s)"
            % (i, p.wall_s, p.raw_wall_s, p.reference_s, reference.NOMINAL_S)
        )
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    for name, reason in sorted(summary["failures"].items()):
        known = " (known)" if name in workloads.KNOWN_FAILURES else ""
        print("  failed: %s: %s%s" % (name, reason, known))
    for name in summary["unsteady"]:
        print("  answer changed between passes: %s" % name)
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
