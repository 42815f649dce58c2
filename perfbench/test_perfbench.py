"""Tests of the benchmark command itself.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs twice traced and once untraced with ``--seconds 0`` (one
unit per phase), so the module takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer metrics that must not depend on timing
EXACT = {"bench.error_rate", "bench.fail_ratio", "operators.bundle_mb"} | {
    m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parse(out: subprocess.CompletedProcess, kind: str) -> dict:
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert sorted(printed) == sorted(declared)
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_non_time_fields(workload):
    first = parse(run(workload, 5, 1), "per_layer")["metrics"]
    second = parse(run(workload, 5, 1), "per_layer")["metrics"]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["trace.overhead_s"]["value"] != 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = run(workload, 6, 0)
    metrics = parse(out, "end_to_end")["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())
    env = json.loads(next(line for line in out.stdout.splitlines()
                          if line.startswith("env "))[4:])
    assert env["seed"] == 6 and env["cores"] >= 1
    assert env["openblas"] and all(lib["threads"] >= 1 for lib in env["openblas"].values())
    assert env["python"] and env["numpy"] and env["scipy"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import kerlap
    import kerlap.bench
    import kerlap.estimator
    import kerlap.pencil
    from spans import Tracer, layer_metrics, self_times

    original = kerlap.pencil.gevd
    tracer = Tracer()
    tracer.install()
    try:
        assert kerlap.estimator.gevd is kerlap.pencil.gevd is kerlap.gevd
        assert kerlap.estimator.gevd is not original
        assert kerlap.bench.fit is kerlap.estimator.fit is kerlap.fit
        X = np.random.default_rng(0).standard_normal((40, 3))
        ds = kerlap.SemiDataset(inputs=X, labels=np.sign(X[:8, 0]))
        model = kerlap.fit(ds, kerlap.GaussianKernel(1.0), 10, 0.1,
                           kerlap.FilterSpec("tikhonov", 1.0), 0)
        kerlap.predict(model, X)
    finally:
        tracer.uninstall()
    assert kerlap.estimator.gevd is original and kerlap.pencil.gevd is original

    names = [s.name for s in tracer.spans]
    assert names[0] == "estimator.fit" and "estimator.predict" in names
    assert {s.fit for s in tracer.spans} == {1}
    fit_span = tracer.spans[0]
    children = [s for s in tracer.spans if s.parent == 0]
    assert [s.name for s in children] == [
        "operators.select_landmarks", "operators.assemble", "pencil.gevd",
        "filters.filter_coefficients"]
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(fit_span.duration - sum(s.duration for s in children))
    metrics = layer_metrics(tracer.spans, 0, len(tracer.spans), wall_s=1.0)
    assert metrics["pencil.gevd_calls"] == 1 and metrics["estimator.predict_rows"] == 40
    assert metrics["operators.bundle_mb"] > 0 and metrics["kernel.grad1_gram_calls"] == 1
