"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import json
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def lib():
    return workloads.import_library()


ANSWERS = {
    "k_safe": {"Terminating", "NotProven"},
    "check_condition": {"holds", "fails"},
    "memb_check": {"T", "F"},
}

# Cheap operations per workload, for the traced-count test.
CHEAP = {
    "fixtures": (
        "k_safe/handshake/wa/k1",
        "k_safe/triad/wa/k1",
        "check_condition/handshake/mfa",
        "memb_check/handshake/const:3",
        "memb_check/handshake/const:2",
    ),
    "generated": tuple("k_safe/gen%03d/wa/k1" % i for i in (0, 1, 16, 28, 69)),
    "chase": (
        "skolem_chase/walk/steps50",
        "greedy_restricted/walk/steps20",
        "greedy_restricted/access30.0",
        "skolem_chase/access30.0",
    ),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operation_list(lib, workload):
    ops = workloads.build_ops(lib, workload, 7)
    assert workloads.build_ops(lib, workload, 7) == ops
    other = workloads.build_ops(lib, workload, 8)
    assert other != ops
    assert sorted(op.name for op in other) == sorted(op.name for op in ops)
    assert len({op.name for op in ops}) == len(ops)


def _traced_counts(lib, workload):
    ops = [op for op in workloads.build_ops(lib, workload, 3) if op.name in CHEAP[workload]]
    assert len(ops) == len(CHEAP[workload])
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(lib, ops, tracer, repeat=False)
    finally:
        tracer.uninstall()
    return {
        name: value
        for name, (value, unit, _) in tracer.metrics().items()
        if unit not in ("s", "1/s")
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_traced_counts(lib, workload):
    first = _traced_counts(lib, workload)
    assert first == _traced_counts(lib, workload)
    assert first["dlgp.parse_calls"] == len(CHEAP[workload])
    assert first["hom.probes"] > 0


def test_tracer_patches_every_namespace_and_restores_them(lib):
    hom = lib.hom
    original = hom.find_homomorphisms
    tracer = Tracer()
    tracer.install()
    try:
        for module in (lib.hom, lib.activeness, lib.chase, lib.deps, lib):
            assert module.find_homomorphisms is not original
    finally:
        tracer.uninstall()
    for module in (lib.hom, lib.activeness, lib.chase, lib.deps, lib):
        assert module.find_homomorphisms is original


def test_every_fixture_operation_has_an_expected_answer_or_none(lib):
    ops = workloads.build_ops(lib, "fixtures", 0)
    names = {op.name for op in ops}
    assert set(workloads.FIXTURE_EXPECTED) <= names
    for op in ops:
        assert op.expect == workloads.FIXTURE_EXPECTED.get(op.name)
        if op.expect is not None:
            assert op.expect in ANSWERS[op.call], op.name


def test_known_failures_name_operations(lib):
    names = {op.name for w in workloads.WORKLOADS for op in workloads.build_ops(lib, w, 0)}
    assert workloads.KNOWN_FAILURES <= names


def test_gate_counts_a_contradicted_expectation_as_failed(lib):
    budget = workloads.BUDGETS["fixtures"]
    op = workloads._op(
        "k_safe/walk/wa/k1", "k_safe", workloads.WALK_RULE, budget, "Terminating", k=1, condition="wa"
    )
    res = run.run_op(lib, op)
    assert res.answer == "NotProven" and res.failure is None
    run.gate(lib, op, res)
    assert res.failure == "answered NotProven, expected Terminating"


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (27, 50.0), (39, 50.0), (40, 75.0), (90, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_operations_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 41)]
    assert run.percentile(values, 50.0) == 20.0
    assert run.percentile(values, 75.0) == 30.0
    assert run.percentile(values, None) == 40.0
    assert run.percentile([3.0], 95.0) == 3.0


def test_wall_clock_budgets_are_refused():
    for budget in workloads.BUDGETS.values():
        workloads.check_budget(budget)
    with pytest.raises(workloads.WallClockBudget):
        workloads.check_budget(None)
    for field in workloads.WALL_CLOCK_FIELDS:
        with pytest.raises(workloads.WallClockBudget):
            workloads.check_budget(dict(workloads.BUDGETS["chase"], **{field: 60.0}))


def test_every_budget_field_is_spelled_out(lib):
    fields = set(lib.Budget.__dataclass_fields__)
    for budget in workloads.BUDGETS.values():
        assert set(budget) == fields


def test_baseline_records_the_budgets():
    baseline = json.loads((Path(__file__).parent / "baseline.json").read_text())
    assert baseline["budgets"] == workloads.BUDGETS
