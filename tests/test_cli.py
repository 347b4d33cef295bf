import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chase_sentinel import cli

from fixtures import DATALOG_FIRST_PAIR, HANDSHAKE, HANDSHAKE_TRUSTED, WALK


@pytest.fixture()
def handshake_file(tmp_path):
    f = tmp_path / "handshake.dlgp"
    f.write_text(HANDSHAKE + "typeB(t,r).\n", encoding="utf-8")
    return str(f)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_exit_codes(handshake_file, capsys):
    code, out, _ = run(capsys, "analyze", handshake_file, "--condition", "wa", "--k", "1")
    assert code == 0 and "Terminating" in out
    code, out, _ = run(capsys, "analyze", handshake_file, "--condition", "wa", "--k", "0")
    assert code == 1 and "NotProven" in out


def test_analyze_json_stable(handshake_file, capsys):
    args = ("analyze", handshake_file, "--condition", "wa", "--k", "1", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical without --timings
    payload = json.loads(out1)
    assert payload["status"] == "Terminating"
    assert payload["schema_version"] == 1
    assert "elapsed_s" not in payload
    assert payload["reason"] is None


def test_analyze_names_the_exhausted_budget(tmp_path, capsys):
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(f), "--k", "1", "--max-probes", "1")
    assert code == 2 and "budget exhausted: probes" in out
    code, out, _ = run(capsys, "analyze", str(f), "--k", "1", "--max-cycles", "0", "--json")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "ResourceExhausted"
    assert payload["reason"] == "cycles"


@pytest.mark.parametrize("flag, reason", [("--max-height", "height"), ("--max-steps", "steps")])
def test_count_budget_flags_reach_the_chained_search(tmp_path, capsys, flag, reason):
    # at k >= 1 these limits end the chained trigger search, not only MFA
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(f), "--k", "1", flag, "0", "--json")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "ResourceExhausted"
    assert payload["reason"] == reason
    assert payload["witness"] is None


def test_analyze_parse_error_exit_three(tmp_path, capsys):
    f = tmp_path / "bad.dlgp"
    f.write_text("p(a,b).\np(a).\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 3
    assert "line 2" in err


def test_analyze_datalog_first_flag(tmp_path, capsys):
    f = tmp_path / "dlf.dlgp"
    f.write_text(DATALOG_FIRST_PAIR, encoding="utf-8")
    code, _, _ = run(capsys, "analyze", str(f), "--condition", "wa", "--k", "1")
    assert code == 1
    code, _, _ = run(capsys, "analyze", str(f), "--condition", "wa", "--k", "1", "--datalog-first")
    assert code == 0


def test_check_command(handshake_file, capsys):
    code, out, _ = run(capsys, "check", handshake_file, "--condition", "wa", "--json")
    assert code == 1
    assert json.loads(out)["value"] is False
    code, _, _ = run(capsys, "check", handshake_file, "--condition", "mfa")
    assert code == 1  # cyclic skolem term under the skolem chase


def test_check_names_the_exhausted_budget(tmp_path, capsys):
    f = tmp_path / "keys.dlgp"
    f.write_text(
        "[r2] enters(X,U), keyOpens(Y,U) :- hasKey(X,Y).\n"
        "[r3] hasKey(X,V), keyOpens(V,Y) :- enters(X,Y).\n",
        encoding="utf-8",
    )
    args = ("check", f.as_posix(), "--condition", "mfa", "--max-steps", "1")
    code, out, _ = run(capsys, *args)
    assert code == 2
    assert out.splitlines()[1:] == ["  budget exhausted: steps"]
    code, out, _ = run(capsys, *args, "--json")
    assert code == 2
    assert out == (
        '{"condition": "mfa", "file": "%s", "schema_version": 1, "value": null, '
        '"witness": "steps"}\n' % f.as_posix()
    )


def test_chase_command_restricted(tmp_path, capsys):
    f = tmp_path / "trusted.dlgp"
    f.write_text(HANDSHAKE_TRUSTED + "typeB(t,r).\n", encoding="utf-8")
    code, out, _ = run(capsys, "chase", f.as_posix(), "--variant", "restricted")
    assert code == 0
    assert "no active trigger" in out
    code, out, _ = run(capsys, "chase", f.as_posix(), "--variant", "skolem",
                       "--max-steps", "10", "--json")
    assert code == 2
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["step"] == 1 and "rule" in lines[0]
    assert lines[-1] == {"outcome": "BudgetExhausted", "reason": "steps"}


def test_chase_cyclic_detection(tmp_path, capsys):
    f = tmp_path / "keys.dlgp"
    f.write_text(
        "[r2] enters(X,U), keyOpens(Y,U) :- hasKey(X,Y).\n"
        "[r3] hasKey(X,V), keyOpens(V,Y) :- enters(X,Y).\n"
        "hasKey(a,b).\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "chase", f.as_posix(), "--variant", "skolem",
                       "--detect-cyclic", "--max-steps", "50")
    assert code == 0
    assert "cyclic skolem term" in out


def test_chase_walk_budget_exhaustion(tmp_path, capsys):
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK + "e(a,b).\n", encoding="utf-8")
    code, out, _ = run(capsys, "chase", f.as_posix(), "--variant", "restricted",
                       "--max-steps", "10")
    assert code == 2
    assert out.count("step ") == 10
    assert "budget exhausted (steps)" in out


def test_chase_prints_deeply_nested_skolem_terms(tmp_path, capsys):
    # each skolem step nests the null one level deeper than the last
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK + "e(a,b).\n", encoding="utf-8")
    code, out, _ = run(capsys, "chase", f.as_posix(), "--variant", "skolem",
                       "--max-steps", "300")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 301
    assert all(line.startswith("step ") for line in lines[:300])
    assert lines[-1] == "budget exhausted (steps) after 300 steps"


def test_default_skolem_chase_of_the_walk_ends_on_the_height_budget(tmp_path, capsys):
    # without budget flags the run gets the default height limit, before
    # the printed terms grow too long to write out
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK + "e(a,b).\n", encoding="utf-8")
    code, out, _ = run(capsys, "chase", f.as_posix(), "--variant", "skolem")
    assert code == 2
    assert out.rsplit("\n", 2)[-2] == "budget exhausted (height) after 999 steps"


def test_cycles_command(tmp_path, capsys):
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK, encoding="utf-8")
    code, out, _ = run(capsys, "cycles", f.as_posix(), "--k", "1")
    assert code == 0
    assert out.splitlines() == ["r -> r"]


@pytest.mark.parametrize("n,k", [(600, 1), (400, 2)])
def test_cycles_on_a_long_ring_is_not_a_traceback(tmp_path, n, k):
    # the first cycle of the ring has k * n + 1 elements, so a search that
    # recursed per path element would overflow the stack
    f = tmp_path / "ring.dlgp"
    f.write_text("".join("[r%d] p%d(X) :- p%d(X).\n" % (i, (i + 1) % n, i) for i in range(n)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "chase_sentinel", "cycles", str(f), "--k", str(k), "--max-cycles", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    cycle, marker = done.stdout.splitlines()
    ids = cycle.split(" -> ")
    assert ids[0] == ids[-1] == "r0"
    assert marker == "... truncated at 1 cycles"


def test_bounded_command(handshake_file, capsys):
    code, out, _ = run(capsys, "bounded", handshake_file, "--delta", "const:3", "--json")
    assert code == 0
    assert json.loads(out)["value"] is True
    assert json.loads(out)["bound_clamped"] is False
    assert json.loads(out)["reason"] is None
    code, out, _ = run(capsys, "bounded", handshake_file, "--delta", "const:2", "--json")
    assert code == 1
    assert json.loads(out)["value"] is False


def test_bounded_names_the_exhausted_budget(tmp_path, capsys):
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK, encoding="utf-8")
    args = ("bounded", f.as_posix(), "--delta", "const:1", "--max-steps", "0")
    code, out, _ = run(capsys, *args)
    assert code == 2
    assert out.splitlines()[1:] == ["  budget exhausted: steps"]
    code, out, _ = run(capsys, *args, "--json")
    payload = json.loads(out)
    assert code == 2
    assert (payload["value"], payload["phase"], payload["reason"]) == (None, 1, "steps")


@pytest.mark.parametrize("kappa", [3, 4])
def test_bounded_tower_on_walk_is_clamped_not_a_traceback(tmp_path, capsys, kappa):
    # exptower:3 is 2^65536 on the walk rule; exptower:4 is never built
    f = tmp_path / "walk.dlgp"
    f.write_text(WALK, encoding="utf-8")
    delta = "exptower:%d" % kappa
    code, out, err = run(capsys, "bounded", f.as_posix(), "--delta", delta, "--max-steps", "200")
    assert code == 2 and err == ""
    assert "bound=201 (clamped to the height the budget can reach), phase 1" in out
    code, out, err = run(
        capsys, "bounded", f.as_posix(), "--delta", delta, "--max-steps", "200", "--json"
    )
    payload = json.loads(out)
    assert code == 2 and err == ""
    assert (payload["bound"], payload["bound_clamped"], payload["value"]) == (201, True, None)


def test_generate_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.dlgp"
    code, _, _ = run(capsys, "generate", "--preset", "chained", "--count", "5",
                     "--seed", "11", "-o", out_file.as_posix())
    assert code == 0
    from chase_sentinel import dlgp

    doc = dlgp.parse(out_file.read_text(encoding="utf-8"))
    assert len(doc.rules) == 5
    # determinism: regenerating gives identical text
    out2 = tmp_path / "gen2.dlgp"
    run(capsys, "generate", "--preset", "chained", "--count", "5", "--seed", "11",
        "-o", out2.as_posix())
    assert out_file.read_text() == out2.read_text()


def test_report_grid(tmp_path, capsys):
    (tmp_path / "a.dlgp").write_text(HANDSHAKE, encoding="utf-8")
    (tmp_path / "b.dlgp").write_text(WALK, encoding="utf-8")
    (tmp_path / "c.dlgp").write_text("[d] q(X) :- p(X).\n", encoding="utf-8")
    code, out, _ = run(capsys, "report", tmp_path.as_posix(), "--conditions", "wa",
                       "--k-min", "0", "--k-max", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "file,wa@k=0,wa@k=1"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert rows["a.dlgp"] == ["N", "T"]
    assert rows["b.dlgp"] == ["N", "N"]
    assert rows["c.dlgp"] == ["T", "T"]


def test_report_names_the_exhausted_budget(tmp_path, capsys):
    (tmp_path / "a.dlgp").write_text(HANDSHAKE, encoding="utf-8")
    code, out, _ = run(capsys, "report", tmp_path.as_posix(), "--conditions", "wa",
                       "--k-min", "1", "--k-max", "1", "--max-probes", "10")
    assert code == 0
    assert out.strip().splitlines() == ["file,wa@k=1", "a.dlgp,R:probes"]
    code, out, _ = run(capsys, "analyze", (tmp_path / "a.dlgp").as_posix(), "--k", "1",
                       "--condition", "wa", "--max-probes", "10")
    assert code == 2
    assert "budget exhausted: probes" in out


def test_report_empty_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "report", tmp_path.as_posix(), "--conditions", "wa",
                       "--k-min", "0", "--k-max", "0")
    assert code == 0
    assert out.strip() == "file,wa@k=0"


def test_graph_dot(handshake_file, capsys):
    code, out, _ = run(capsys, "graph", handshake_file)
    assert code == 0
    assert out.startswith("digraph") and '"r1" -> "r2";' in out


# Bad invocations, at least one per command: each is reported on stderr and
# exits 3, whether argparse, the loader or the command itself rejects it.
BAD_USAGE = {
    "analyze": ("analyze", "{rules}", "--k", "-1"),
    "analyze-jobs": ("analyze", "{rules}", "--jobs", "2"),
    "check": ("check", "{missing}", "--condition", "wa"),
    "chase": ("chase", "{rules}", "--database", "{missing}"),
    "cycles": ("cycles", "{rules}", "--k", "0"),
    "bounded": ("bounded", "{rules}", "--delta", "exptower:-1"),
    "generate": ("generate", "--count", "3", "--arity", "0"),
    "report": ("report", "{dir}", "--k-min", "-1"),
    "report-k-order": ("report", "{dir}", "--k-min", "2", "--k-max", "1"),
    "report-conditions": ("report", "{dir}", "--conditions", "wa,xx"),
    "bounded-const-zero": ("bounded", "{rules}", "--delta", "const:0"),
    "bounded-const-negative": ("bounded", "{rules}", "--delta", "const:-3"),
    "bounded-linear-negative": ("bounded", "{rules}", "--delta", "linear:-1,0"),
    "bounded-linear-zero": ("bounded", "{rules}", "--delta", "linear:0,0"),
    # with no rules ||R|| = 0, and both specs map 0 to 0
    "bounded-linear-no-rules": ("bounded", "{facts}", "--delta", "linear:1,0"),
    "bounded-exptower-no-rules": ("bounded", "{facts}", "--delta", "exptower:0"),
    "budget-max-steps": ("chase", "{rules}", "--max-steps", "-1"),
    "budget-max-height": ("bounded", "{rules}", "--delta", "const:3", "--max-height", "-1"),
    "budget-max-atoms": ("check", "{rules}", "--condition", "mfa", "--max-atoms", "-1"),
    "budget-max-probes": ("analyze", "{rules}", "--max-probes", "-1"),
    "budget-max-cycles": ("analyze", "{rules}", "--max-cycles", "-1"),
    "budget-timeout-negative": ("analyze", "{rules}", "--timeout", "-1"),
    "budget-timeout-nan": ("chase", "{rules}", "--timeout", "nan"),
    "budget-timeout-inf": ("report", "{dir}", "--timeout", "inf"),
    "cycles-max-cycles": ("cycles", "{rules}", "--max-cycles", "-1"),
    "graph": ("graph", "{bad}"),
    "graph-output": ("graph", "{rules}", "-o", "{unwritable}"),
    "generate-output": ("generate", "--count", "3", "-o", "{unwritable}"),
}


@pytest.mark.parametrize("case", sorted(BAD_USAGE))
def test_bad_usage_exits_three(tmp_path, capsys, case):
    rules = tmp_path / "walk.dlgp"
    rules.write_text(WALK, encoding="utf-8")
    bad = tmp_path / "bad.dlgp"
    bad.write_text("p(a,b).\np(a).\n", encoding="utf-8")
    facts = tmp_path / "facts.dlgp"
    facts.write_text("p(a).\n", encoding="utf-8")
    paths = {
        "rules": rules.as_posix(),
        "bad": bad.as_posix(),
        "facts": facts.as_posix(),
        "missing": (tmp_path / "missing.dlgp").as_posix(),
        "dir": tmp_path.as_posix(),
        "unwritable": (tmp_path / "missing" / "out.txt").as_posix(),
    }
    argv = [arg.format(**paths) for arg in BAD_USAGE[case]]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_python_dash_m_runs_the_cli(tmp_path):
    # a checkout runs the CLI as `python -m chase_sentinel`, with no
    # installed script; the walk rule is not 1-safe, so analyze exits 1
    rules = tmp_path / "walk.dlgp"
    rules.write_text(WALK + "e(a,b).\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "chase_sentinel", "analyze", str(rules), "--k", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "NotProven" in done.stdout
