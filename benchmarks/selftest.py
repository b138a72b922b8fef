"""Tiny-size self-test of the benchmark; not part of the package's test suite.

    python3 -m pytest -q benchmarks/selftest.py

Runs every workload through the runner at small sizes (both trace
modes), then hands each output check a corrupted result and expects it
to fail. Takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import UNITS, Tracer  # noqa: E402

END_TO_END = {"setup_s", "trials_per_s", "trials_per_s_2w", "peak_rss_mb"}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_every_metric(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace, "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == (set(UNITS) if trace == "1" else END_TO_END)
    assert all(isinstance(m["value"], float) and m["unit"] for m in result["metrics"].values())


def test_benchmark_json_matches_runner():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "phase-grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def rounds_of(workload, modes=(("serial", 1), ("2w", 2))):
    workload.prepare()
    return {0: {mode: workload.round(0, workers) for mode, workers in modes}}


def test_phase_grid_checks_catch_corruption(tmp_path):
    wl = workloads.PhaseGrid(4, tmp_path, tiny=True)
    rounds = rounds_of(wl)
    assert wl.check(copy.deepcopy(rounds)) == []

    bad = copy.deepcopy(rounds)  # 2-worker body differs
    bad[0]["2w"].payload[0]["cells"][0]["results"]["n_errors"] = 1
    assert wl.check(bad)

    bad = copy.deepcopy(rounds)  # simple_agg clusters where it should not
    for cell in bad[0]["serial"].payload[0]["cells"]:
        cell["results"]["clustering"]["simple_agg"]["hamming"]["mean"] = 0.0
    assert any("ratio 2.0" in m for m in wl.check(bad))

    bad = copy.deepcopy(rounds)  # one selected column dropped from every recovery
    for cell in bad[0]["serial"].payload[0]["cells"]:
        cell["results"]["recovery"]["recover_if_star"]["support_size"]["mean"] -= 1
    assert any("recover_if_star" in m for m in wl.check(bad))

    X = np.random.default_rng(0).standard_normal((20, 50))
    s0 = np.linalg.svd(X, compute_uv=False)[0]
    assert checks.singular_value(X, s0) == [] and checks.singular_value(X, s0 * (1 + 1e-3))


def test_screen_checks_catch_corruption(tmp_path, monkeypatch):
    wl = workloads.ScreenLargeP(5, tmp_path, tiny=True)
    rounds = rounds_of(wl)
    assert wl.check(copy.deepcopy(rounds)) == []

    bad = copy.deepcopy(rounds)  # a selected column dropped
    for cell in bad[0]["serial"].payload[0]["cells"]:
        cell["results"]["clustering"]["if_pca"]["n_selected"]["mean"] -= 1
        cell["results"]["recovery"]["recover_if_q"]["support_size"]["mean"] -= 1
    msgs = wl.check(bad)
    assert any("if_pca" in m for m in msgs) and any("recover_if_q" in m for m in msgs)

    bad = copy.deepcopy(rounds)  # perturbed statistics
    for cell in bad[0]["serial"].payload[0]["cells"]:
        cell["results"]["tests"]["higher_criticism"]["statistic"]["mean"] *= 1 + 1e-6
        cell["results"]["tests"]["agg_chi2"]["statistic"]["mean"] += 1e-6
    msgs = wl.check(bad)
    assert any("HC" in m for m in msgs) and any("agg_chi2" in m for m in msgs)

    real = workloads.hyptest.column_pvalues

    def perturbed(X):  # one P-value off by a relative 1e-6
        pv = real(X)
        pv[int(np.argmin(pv))] *= 1 + 1e-6
        return pv

    monkeypatch.setattr(workloads.hyptest, "column_pvalues", perturbed)
    assert any("column_pvalues" in m for m in wl.check(copy.deepcopy(rounds)))


def test_aggregation_checks_catch_corruption(tmp_path, monkeypatch):
    wl = workloads.AggregationSearch(6, tmp_path, tiny=True)
    rounds = rounds_of(wl)
    assert wl.check(copy.deepcopy(rounds)) == []

    bad = copy.deepcopy(rounds)  # exact statistic no longer the optimum
    for cell in bad[0]["serial"].payload[1]["cells"]:
        cell["results"]["tests"]["sparse_agg_l1"]["statistic"]["mean"] *= 0.99
    assert any("sparse_agg_l1" in m for m in wl.check(bad))

    real = workloads.cluster.sparse_aggregation_greedy

    def worse(X, N, **kw):  # swap the best column for the first unused one
        res = real(X, N, **kw)
        res.selected = np.sort(np.r_[res.selected[1:], np.setdiff1d(np.arange(X.shape[1]), res.selected)[0]])
        return res

    monkeypatch.setattr(workloads.cluster, "sparse_aggregation_greedy", worse)
    msgs = wl.check(copy.deepcopy(rounds))
    assert any("objective" in m for m in msgs)

    w = np.zeros(12)
    w[[0, 1, 2]] = [1.0, -1.0, 0.5]
    assert checks.signed_weights(w, 3)
    assert checks.greedy_vs_exact([(2.0, 1.0, False)])
    assert checks.greedy_vs_exact([(1.0, 1.0, True)] * 8 + [(0.9, 1.0, False)] * 2)


def test_one_swap_check_finds_an_improving_swap():
    X = np.zeros((4, 5))
    X[:, 4] = 10.0  # the best single column, left out
    X[:, 0] = 1.0
    w = np.zeros(5)
    w[0] = 1.0
    assert checks.one_swap_optimal(X, w, (1,), "x")
    w = np.zeros(5)
    w[4] = 1.0
    assert checks.one_swap_optimal(X, w, (1,), "x") == []


def test_applied_checks_catch_corruption(tmp_path):
    wl = workloads.AppliedPipeline(7, tmp_path, tiny=True)
    rounds = rounds_of(wl)
    assert wl.check(copy.deepcopy(rounds)) == []

    lines = wl.labels_path.read_text().splitlines()  # one label flipped in the input file
    lines[0] = "AML" if lines[0] == "ALL" else "ALL"
    wl.labels_path.write_text("\n".join(lines) + "\n")
    flipped = {0: {"serial": wl.round(0, 1)}}
    assert any("errors" in m for m in wl.check(flipped))

    bad = copy.deepcopy(rounds)  # a selected feature dropped
    bad[0]["serial"].payload[0]["fdr"][0]["n_selected"] -= 1
    assert any("features selected" in m for m in wl.check(bad))

    assert checks.bh_count(np.full(12, 0.5), 0.05) == 0
    assert checks.bh_count(np.r_[np.full(3, 1e-6), np.full(9, 0.9)], 0.05) == 3


def test_layer_metrics_cover_self_times():
    tracer = Tracer()
    with tracer.span("cli.sweep"):
        with tracer.span("harness.run_sweep"):
            with tracer.span("harness.run_trial"):
                with tracer.span("model.gen_dataset"):
                    pass
    metrics = tracer.layer_metrics(units=1, overhead_pct=0.0)
    assert set(metrics) == set(UNITS)
    assert all(metrics[k]["value"] >= 0 for k in ("harness.trial_self_ms", "harness.sweep_self_ms", "cli.sweep_self_ms"))
