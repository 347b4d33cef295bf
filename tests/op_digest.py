"""Per-operation digest of the benchmark workloads, for identity checks.

    PYTHONPATH=src python3 tests/op_digest.py --seed N [--workload W ...]

Builds each workload's operation list from the seed with
`bench/workloads.py`, runs every operation once through `bench/run.py`'s
`run_op`, and prints one line per operation:

    workload  name  answer  probes  sha1

`probes` counts the calls to `Meter.charge_probe` the operation made, and
`sha1` hashes its evidence: the witness's `repr` for a NotProven verdict or
a bounded F, the trace's `to_json_lines()` for a chase run, `-` when there
is none.  The last line sums the operations and probes.  Two checkouts that
print the same lines at a seed give the same answers, the same evidence and
the same work on every benchmark operation; compare them with `diff`.
Nothing is timed, and nothing under `bench/` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)


def evidence_digest(evidence) -> str:
    if evidence is None:
        return "-"
    text = evidence.to_json_lines() if hasattr(evidence, "to_json_lines") else repr(evidence)
    return hashlib.sha1(text.encode()).hexdigest()


def digest(workload: str, seed: int) -> list:
    """(name, answer, probes, sha1) per operation, in the workload's order."""
    lib = workloads.import_library()
    meter = lib.chase.Meter
    charge = meter.charge_probe
    count = [0]

    def counted(self):
        count[0] += 1
        return charge(self)

    meter.charge_probe = counted
    try:
        rows = []
        for op in workloads.build_ops(lib, workload, seed):
            count[0] = 0
            res = run.run_op(lib, op)
            rows.append((op.name, res.answer, count[0], evidence_digest(res.evidence)))
        return rows
    finally:
        meter.charge_probe = charge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workload", action="append", choices=workloads.WORKLOADS, help="default: all three"
    )
    args = parser.parse_args(argv)
    ops = probes = 0
    for workload in args.workload or workloads.WORKLOADS:
        for name, answer, n, sha in digest(workload, args.seed):
            print(workload, name, answer, n, sha)
            ops += 1
            probes += n
    print("total ops=%d probes=%d" % (ops, probes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
