"""Smoke test of the benchmark harness at tiny m.

    python3 -m pytest bench/test_smoke.py

Runs every workload at 1% of its size (at least 2000 hypotheses), with
tracing off and on, and checks that each metric BENCHMARK.json names is
emitted with its unit, that the tracer puts camt's module attributes
back, and that the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace, group):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # tiny inputs can legitimately fail checks (EM at m=2000 may hit max_iter),
    # so only the shape of the result is pinned here
    assert isinstance(result["correct"], bool)
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[group]}


def test_tracer_leaves_camt_unpatched():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import camt.pipeline
    import camt.simulation
    from tracing import TARGETS, Tracer, _resolve

    originals = {(path, attr): getattr(_resolve(path), attr) for path, attr, *_ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(_resolve(p), a) is not f for (p, a), f in originals.items())
        data = camt.simulation.generate(camt.simulation.SimulationConfig(m=2000, seed=1))
        camt.pipeline.run_camt(data.pvals, data.covariates, alpha=0.1)
    finally:
        tracer.uninstall()
    assert all(getattr(_resolve(p), a) is f for (p, a), f in originals.items())
    names = {s.name for s in tracer.spans}
    assert {"pipeline.run_camt", "em.fit", "threshold.select_plain", "kernel.psi"} <= names
    fit = next(s for s in tracer.spans if s.name == "em.fit")
    assert tracer.spans[fit.parent].name == "pipeline.fit_camt"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
