"""Checks on the benchmark itself.

Every layer a workload lists must record at least one call when that
workload runs traced; without this a rename in the program would silently
report 0 s.  Run from the root of a checkout (about a minute, mostly psi-k4):

    OPENBLAS_NUM_THREADS=1 python3 -m pytest perfbench/test_layers.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every value bound in an effapprox module or in one of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "effapprox" or name.startswith("effapprox."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        out[(name, key, attr)] = raw
    return out


def test_benchmark_json_matches_tracer():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, _ in tracing.PER_LAYER]
    names = sorted(w["name"] for w in spec["workloads"])
    assert names == sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("cli.main", 0.0, 10.0, None),
        tracing.Span("cli.run", 1.0, 9.0, 0),
        tracing.Span("achievement.approximate_psi", 2.0, 8.0, 1),
        tracing.Span("sdp.solve", 3.0, 7.0, 2),
    ]
    m = tracer.metrics(batches=2)
    assert m["cli.self_s"] == pytest.approx(2.0)  # (10 - 6) / 2 batches
    assert m["achievement.self_s"] == pytest.approx(1.0)
    assert m["cli.run_s"] == pytest.approx(4.0)
    assert m["sdp.solve_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_listed_layers_record_calls(name):
    workload = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    inputs = workload.prepare(ROOT, 0, workdir)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = workload.run(inputs)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())

    calls = tracer.calls()
    missing = [layer for layer in workload.layers if not calls.get(layer)]
    assert not missing, f"{name}: no calls recorded for {missing}"
    tally = workloads.Tally()
    workload.check(inputs, outputs, reference, tally)
    assert tally.failed == 0, tally.notes
