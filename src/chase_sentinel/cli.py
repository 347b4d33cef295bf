"""Command-line surface.

Subcommands: analyze (k-safe decision), check (single acyclicity test),
chase (run a chase variant), cycles (list k-cycles), bounded
(depth-bounded membership), generate (benchmark TGDs), report (batch
verdict grid over a directory: T, N, or R:<budget that ran out>), graph
(dependency graph as DOT).

Exit codes for analyze/check/bounded: 0 proven, 1 not proven, 2 resources
exhausted, 3 usage or parse error; an input or output file that cannot be
read or written is a usage error.  chase exits 2 when its run ends on a
budget and 0 when it saturates or finds a cyclic term.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import dlgp
from .acyclicity import Condition, check_condition
from .activeness import Verdict, k_safe
from .bounded import memb_check, multi_head_caveat, parse_bound
from .chase import (
    Budget,
    BudgetExhausted,
    CyclicTermFound,
    DEFAULT_BUDGET,
    Saturated,
    greedy_restricted,
    skolem_chase,
)
from .cycles import enumerate_k_cycles
from .deps import dependency_graph
from .gen import GenParams, GenerationError, generate
from .model import rule_set_size

EXIT_PROVEN = 0
EXIT_NOT_PROVEN = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 3

# the exit code of a three-valued answer: proven, refuted, budget exhausted
EXIT_CODES = {True: EXIT_PROVEN, False: EXIT_NOT_PROVEN, None: EXIT_EXHAUSTED}
VERDICT_ANSWERS = {
    Verdict.TERMINATING: True,
    Verdict.NOT_PROVEN: False,
    Verdict.RESOURCE_EXHAUSTED: None,
}

SCHEMA_VERSION = 1


def _budget_from_args(args) -> Budget:
    return Budget(
        max_steps=args.max_steps,
        max_height=args.max_height,
        max_atoms=args.max_atoms,
        wall_clock_s=args.timeout,
        max_probes=args.max_probes,
        max_cycles=args.max_cycles,
    )


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    count = _int_at_least(0)
    p.add_argument("--max-steps", type=count, default=None)
    p.add_argument("--max-height", type=count, default=DEFAULT_BUDGET.max_height)
    p.add_argument("--max-atoms", type=count, default=DEFAULT_BUDGET.max_atoms)
    p.add_argument("--timeout", type=_seconds, default=DEFAULT_BUDGET.wall_clock_s,
                   help="wall clock seconds per cycle/run")
    p.add_argument("--max-probes", type=count, default=DEFAULT_BUDGET.max_probes)
    p.add_argument("--max-cycles", type=count, default=DEFAULT_BUDGET.max_cycles)


class UsageError(Exception):
    """Bad input from the command line; main() reports it and exits 3."""


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    convert.__name__ = "integer >= %d" % low
    return convert


def _seconds(text: str) -> float:
    """An argparse type: a finite, non-negative number of seconds (a NaN
    deadline would never pass)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise ValueError(text)
    return value


_seconds.__name__ = "finite seconds >= 0"


def _conditions(text: str) -> list:
    """An argparse type: a comma-separated list of condition names."""
    return [Condition(c) for c in text.split(",")]


_conditions.__name__ = "condition list"


def _bound_arg(spec: str):
    try:
        return parse_bound(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _load(path: str):
    """The parsed document of a .dlgp file and its rule set."""
    try:
        doc = dlgp.parse(Path(path).read_text(encoding="utf-8"))
        return doc, doc.rule_set()
    except (OSError, ValueError) as e:
        raise UsageError(e) from e


def _write_output(output: Optional[str], text: str) -> None:
    """`text` to the file `output`, or to stdout without one."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as e:
        raise UsageError(e) from e


def _witness_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "cycle": list(witness.rule_ids),
        "renaming": str(witness.renaming),
        "initial": [str(a) for a in witness.initial],
        "steps": [s.to_json() for s in witness.steps],
        "chain": list(witness.chain),
    }


def cmd_analyze(args) -> int:
    _, rs = _load(args.file)
    condition = Condition(args.condition)
    report = k_safe(
        rs,
        args.k,
        condition,
        datalog_first=args.datalog_first,
        budget=_budget_from_args(args),
    )
    stats = asdict(report.stats)
    elapsed_s = stats.pop("elapsed_s")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "file": args.file,
        "condition": condition.value,
        "k": args.k,
        "datalog_first": args.datalog_first,
        "status": report.verdict.value,
        "reason": report.reason,
        "witness": _witness_json(report.witness),
        "stats": stats,
    }
    if args.timings:
        payload["elapsed_s"] = round(elapsed_s, 6)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            "%s: %s (condition=%s, k=%d%s)"
            % (
                args.file,
                report.verdict.value,
                condition.value,
                args.k,
                ", datalog-first" if args.datalog_first else "",
            )
        )
        if report.reason is not None:
            print("  budget exhausted: %s" % report.reason)
        if report.witness is not None:
            w = report.witness
            print("  active cycle: %s" % " -> ".join(w.rule_ids))
            print("  renaming: %s" % w.renaming)
            print("  chain: %s" % " -> ".join(str(i) for i in w.chain))
        print(
            "  cycles: %(cycles_enumerated)d enumerated, %(cycles_condition_true)d passed "
            "condition, %(cycles_datalog_pruned)d pruned (datalog-first), %(cycles_checked)d "
            "checked" % stats
        )
    return EXIT_CODES[VERDICT_ANSWERS[report.verdict]]


def cmd_check(args) -> int:
    _, rs = _load(args.file)
    condition = Condition(args.condition)
    res = check_condition(condition, rs, _budget_from_args(args))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "file": args.file,
        "condition": condition.value,
        "value": res.value,
        "witness": str(res.witness) if res.witness is not None else None,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        label = {True: "holds", False: "fails", None: "unknown"}[res.value]
        print("%s: %s %s" % (args.file, condition.value, label))
        if res.value is None:  # only MFA runs out; its witness names the budget
            print("  budget exhausted: %s" % res.witness)
        elif res.witness is not None:
            print("  witness: %s" % (res.witness,))
    return EXIT_CODES[res.value]


def cmd_chase(args) -> int:
    doc, rs = _load(args.file)
    if args.database:
        doc, _ = _load(args.database)
    db = doc.database()
    budget = _budget_from_args(args)
    if args.variant == "skolem":
        trace = skolem_chase(db, rs, budget=budget, detect_cyclic_terms=args.detect_cyclic)
    else:
        trace = greedy_restricted(
            db, rs, budget=budget, datalog_first=(args.variant == "datalog-first")
        )
    if args.json:
        sys.stdout.write(trace.to_json_lines())
    else:
        for i, step in enumerate(trace.steps, start=1):
            binding = ", ".join("%s/%s" % (v, t) for v, t in step.bindings)
            added = ", ".join(str(a) for a in step.added)
            print("step %d: <%s, {%s}> adds {%s}" % (i, step.rule_id, binding, added))
        if isinstance(trace.outcome, Saturated):
            print("saturated after %d steps (no active trigger)" % len(trace.steps))
        elif isinstance(trace.outcome, CyclicTermFound):
            print("cyclic skolem term found: %s" % trace.outcome.term)
        else:
            print("budget exhausted (%s) after %d steps" % (trace.outcome.reason, len(trace.steps)))
    return EXIT_EXHAUSTED if isinstance(trace.outcome, BudgetExhausted) else EXIT_PROVEN


def cmd_cycles(args) -> int:
    _, rs = _load(args.file)
    graph = dependency_graph(rs)
    stream = enumerate_k_cycles(rs, args.k, graph, limit=args.max_cycles)
    for cycle in stream:
        print(" -> ".join(cycle.rule_ids()))
    if stream.truncated:
        print("... truncated at %d cycles" % stream.emitted)
    return EXIT_PROVEN


def cmd_bounded(args) -> int:
    _, rs = _load(args.file)
    delta = args.delta
    try:
        result = memb_check(rs, delta, budget=_budget_from_args(args))
    except ValueError as e:  # delta(||R||) < 1, as for linear:1,0 with no rules
        raise UsageError(e) from e
    caveat = multi_head_caveat(rs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "file": args.file,
        "delta": str(delta),
        "size": rule_set_size(rs),
        "bound": result.bound,
        "bound_clamped": result.bound_clamped,
        "value": result.value,
        "phase": result.phase,
        "breach_paths": [list(p) for p in result.breach_paths],
        "caveat": caveat,
        "reason": result.reason,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        label = {True: "T", False: "F", None: "ResourceExhausted"}[result.value]
        clamp = " (clamped to the height the budget can reach)" if result.bound_clamped else ""
        print(
            "%s: %s (delta=%s, ||R||=%d, bound=%d%s, phase %d)"
            % (args.file, label, delta, payload["size"], result.bound, clamp, result.phase)
        )
        if result.reason is not None:
            print("  budget exhausted: %s" % result.reason)
        if caveat and result.value is False:
            print("  note: %s" % caveat)
    return EXIT_CODES[result.value]


def cmd_generate(args) -> int:
    try:
        params = GenParams(
            count=args.count,
            predicate_pool=args.pool,
            arity=args.arity,
            max_repeated_relations=args.max_repeats,
            body_atoms=args.body_atoms,
            head_atoms=args.head_atoms,
            head_shape=args.preset,
            seed=args.seed,
        )
        rs = generate(params)
    except GenerationError as e:
        raise UsageError(e) from e
    _write_output(args.output, dlgp.serialize(dlgp.SourceDocument(facts=(), rules=rs.rules)))
    return EXIT_PROVEN


def cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise UsageError("%s is not a directory" % args.directory)
    if args.k_max < args.k_min:
        raise UsageError("--k-max %d is below --k-min %d" % (args.k_max, args.k_min))
    ks = list(range(args.k_min, args.k_max + 1))
    budget = _budget_from_args(args)
    columns = ["%s@k=%d" % (c.value, k) for c in args.conditions for k in ks]
    rows = []
    short = {
        Verdict.TERMINATING: "T",
        Verdict.NOT_PROVEN: "N",
        Verdict.RESOURCE_EXHAUSTED: "R",
    }
    for path in sorted(directory.glob("*.dlgp")):
        try:
            _, rs = _load(str(path))
        except UsageError:
            rows.append((path.name, ["parse-error"] * len(columns)))
            continue
        cells = []
        for c in args.conditions:
            for k in ks:
                report = k_safe(rs, k, c, datalog_first=args.datalog_first, budget=budget)
                cell = short[report.verdict]
                cells.append(cell + ":" + report.reason if report.reason else cell)
        rows.append((path.name, cells))
    if args.format == "csv":
        print(",".join(["file"] + columns))
        for name, cells in rows:
            print(",".join([name] + cells))
    else:
        print("| file | " + " | ".join(columns) + " |")
        print("|" + "---|" * (len(columns) + 1))
        for name, cells in rows:
            print("| " + " | ".join([name] + cells) + " |")
    return EXIT_PROVEN


def cmd_graph(args) -> int:
    _, rs = _load(args.file)
    _write_output(args.output, dependency_graph(rs).to_dot())
    return EXIT_PROVEN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chase-sentinel",
        description="Restricted-chase termination analysis for existential rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide k-safe membership")
    p.add_argument("file")
    p.add_argument("--condition", choices=[c.value for c in Condition], default="wa")
    p.add_argument("--k", type=_int_at_least(0), default=1)
    p.add_argument("--datalog-first", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="run one acyclicity condition")
    p.add_argument("file")
    p.add_argument("--condition", choices=[c.value for c in Condition], required=True)
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("chase", help="execute a chase variant")
    p.add_argument("file")
    p.add_argument("--variant", choices=["skolem", "restricted", "datalog-first"],
                   default="restricted")
    p.add_argument("--database", help="separate .dlgp file providing the facts")
    p.add_argument("--detect-cyclic", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("cycles", help="list k-cycles (every one is relevant)")
    p.add_argument("file")
    p.add_argument("--k", type=_int_at_least(1), default=1)
    p.add_argument("--max-cycles", type=_int_at_least(0), default=DEFAULT_BUDGET.max_cycles)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("bounded", help="depth-bounded membership test")
    p.add_argument("file")
    p.add_argument("--delta", type=_bound_arg, required=True,
                   help="const:N | linear:A,B | exptower:K")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_bounded)

    p = sub.add_parser("generate", help="generate benchmark TGDs")
    p.add_argument("--preset", choices=["chained", "discrete"], default="chained")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", type=int, default=20)
    p.add_argument("--arity", type=int, default=4)
    p.add_argument("--max-repeats", type=int, default=3)
    p.add_argument("--body-atoms", type=int, default=1)
    p.add_argument("--head-atoms", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("report", help="verdict grid over a directory of .dlgp files")
    p.add_argument("directory")
    p.add_argument("--conditions", type=_conditions, default="wa,ja,agrd,mfa")
    p.add_argument("--k-min", type=_int_at_least(0), default=0)
    p.add_argument("--k-max", type=_int_at_least(0), default=2)
    p.add_argument("--datalog-first", action="store_true")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("graph", help="dependency graph in DOT format")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
