"""The traced benchmark run (bench/tracer.py) patches library functions by
module and name, and bench/run.py calls k_safe with jobs=; a library change
that breaks either must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import chase_sentinel as cs
from chase_sentinel.chase import Budget, Meter

from fixtures import WALK

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_in_the_library():
    tracer = _load_tracer()
    assert tracer.PACKAGE == "chase_sentinel"
    for module_name, attribute, _, _ in tracer.SPANS:
        target = importlib.import_module("chase_sentinel." + module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attribute)


def test_benchmark_calls_keep_their_signatures():
    assert "jobs" in inspect.signature(cs.k_safe).parameters
    assert list(inspect.signature(Meter).parameters) == ["budget"]
    assert callable(Meter.charge_probe)


def test_tracer_counts_a_chase_and_restores_the_library():
    tracer = _load_tracer().Tracer()
    original = cs.chase.skolem_chase
    tracer.install()
    try:
        doc = cs.parse(WALK + "e(a,b).\n")
        trace = cs.skolem_chase(doc.database(), doc.rule_set(), budget=Budget(max_steps=3))
    finally:
        tracer.uninstall()
    assert cs.chase.skolem_chase is original and cs.skolem_chase is original
    metrics = tracer.metrics()
    assert metrics["chase.runs"][0] == 1
    assert metrics["chase.steps"][0] == len(trace.steps) == 3
    assert metrics["hom.probes"][0] > 0
