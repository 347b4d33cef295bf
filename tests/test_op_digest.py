"""The identity gate: every benchmark operation at seeds 1 and 2 gives the
answer, the probe count and the evidence hash recorded in
`tests/data/op_digest_seed1.txt` and `tests/data/op_digest_seed2.txt`, the
output of

    PYTHONPATH=src python3 tests/op_digest.py --seed N

A change that moves a count on purpose (a probe, a verdict, a witness, a
trace) regenerates the files with that command and logs the diff in
CHANGES.md; a change that keeps every count leaves the files as they are."""

import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_matches_recorded_digest(seed: int) -> None:
    recorded_file = ROOT / "tests" / "data" / ("op_digest_seed%d.txt" % seed)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "op_digest.py"), "--seed", str(seed)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    recorded = recorded_file.read_text()
    if done.stdout != recorded:
        diff = difflib.unified_diff(
            recorded.splitlines(), done.stdout.splitlines(), "recorded", "fresh", lineterm="", n=0
        )
        raise AssertionError(
            "digest differs from %s:\n%s" % (recorded_file.name, "\n".join(list(diff)[:40]))
        )


def test_every_benchmark_operation_matches_the_recorded_digest():
    _assert_matches_recorded_digest(1)


def test_every_benchmark_operation_matches_the_recorded_digest_at_seed_2():
    _assert_matches_recorded_digest(2)
