"""The identity gate: every benchmark operation at seed 1 gives the answer,
the probe count and the evidence hash recorded in
`tests/data/op_digest_seed1.txt`, the output of

    PYTHONPATH=src python3 tests/op_digest.py --seed 1

A change that moves a count on purpose (a probe, a verdict, a witness, a
trace) regenerates the file with that command and logs the diff in
CHANGES.md; a change that keeps every count leaves the file as it is."""

import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "data" / "op_digest_seed1.txt"


def test_every_benchmark_operation_matches_the_recorded_digest():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "op_digest.py"), "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    recorded = RECORDED.read_text()
    if done.stdout != recorded:
        diff = difflib.unified_diff(
            recorded.splitlines(), done.stdout.splitlines(), "recorded", "fresh", lineterm="", n=0
        )
        raise AssertionError("digest differs from %s:\n%s" % (RECORDED.name, "\n".join(list(diff)[:40])))
