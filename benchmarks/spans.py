"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` swaps each traced function for a wrapper in every
``rareweak`` module that holds a reference to it (so calls made through
``from .x import f`` are caught too) and puts the originals back on
exit. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function): span name is "<module>.<function>"
TRACED = (
    ("model", "gen_dataset"),
    ("spectral", "chi2_scores"),
    ("spectral", "leading_left_singular"),
    ("numerics", "chisq_sf_vec"),
    ("hyptest", "column_pvalues"),
    ("hyptest", "higher_criticism_test"),
    ("hyptest", "simple_agg_test"),
    ("hyptest", "sparse_agg_test"),
    ("cluster", "simple_aggregation"),
    ("cluster", "classical_pca"),
    ("cluster", "if_pca"),
    ("cluster", "sparse_aggregation_greedy"),
    ("cluster", "sparse_aggregation_exact"),
    ("cluster", "signed_sparse_aggregation"),
    ("cluster", "kmeans_1d_two"),
    ("recover", "recover_sa_star"),
    ("recover", "recover_if_star"),
    ("recover", "recover_signed_pca"),
    ("recover", "recover_if_q"),
    ("recover", "recover_sa_N"),
    ("harness", "run_trial"),
    ("harness", "run_sweep"),
    ("harness", "canonical_json"),
    ("ifpca", "load_labeled_csv"),
    ("ifpca", "mad_normalize"),
    ("ifpca", "ifpca_pipeline"),
    ("ifpca", "baseline_kmeans"),
)

# per-layer metric -> span; each is the mean inclusive time per call of that span
TIMED = {
    "model.gen_dataset_ms": "model.gen_dataset",
    "spectral.chi2_scores_ms": "spectral.chi2_scores",
    "spectral.leading_left_singular_ms": "spectral.leading_left_singular",
    "numerics.chisq_sf_vec_ms": "numerics.chisq_sf_vec",
    "hyptest.column_pvalues_ms": "hyptest.column_pvalues",
    "hyptest.higher_criticism_test_ms": "hyptest.higher_criticism_test",
    "hyptest.simple_agg_test_ms": "hyptest.simple_agg_test",
    "hyptest.sparse_agg_test_ms": "hyptest.sparse_agg_test",
    "cluster.simple_aggregation_ms": "cluster.simple_aggregation",
    "cluster.classical_pca_ms": "cluster.classical_pca",
    "cluster.if_pca_ms": "cluster.if_pca",
    "cluster.sparse_aggregation_greedy_ms": "cluster.sparse_aggregation_greedy",
    "cluster.signed_sparse_aggregation_ms": "cluster.signed_sparse_aggregation",
    "cluster.sparse_aggregation_exact_ms": "cluster.sparse_aggregation_exact",
    "cluster.signed_sparse_aggregation_exact_ms": "cluster.signed_sparse_aggregation_exact",
    "cluster.kmeans_1d_two_ms": "cluster.kmeans_1d_two",
    "recover.recover_sa_star_ms": "recover.recover_sa_star",
    "recover.recover_if_star_ms": "recover.recover_if_star",
    "recover.recover_signed_pca_ms": "recover.recover_signed_pca",
    "recover.recover_if_q_ms": "recover.recover_if_q",
    "recover.recover_sa_N_ms": "recover.recover_sa_N",
    "harness.run_trial_ms": "harness.run_trial",
    "harness.canonical_json_ms": "harness.canonical_json",
    "ifpca.load_labeled_csv_ms": "ifpca.load_labeled_csv",
    "ifpca.mad_normalize_ms": "ifpca.mad_normalize",
    "ifpca.ifpca_pipeline_ms": "ifpca.ifpca_pipeline",
    "ifpca.baseline_kmeans_ms": "ifpca.baseline_kmeans",
}

UNITS = {name: "ms" for name in TIMED} | {
    "spectral.power_iterations": "count",
    "spectral.unconverged": "count",
    "spectral.gram_gflop": "GFLOP",
    "cluster.if_pca_selected": "count",
    "cluster.exact_configs_per_s": "configs/s",
    "cluster.signed_exact_configs_per_s": "configs/s",
    "harness.trial_self_ms": "ms",
    "harness.sweep_self_ms": "ms",
    "cli.sweep_self_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _counts(name: str, args: tuple, kwargs: dict, out) -> tuple[str, dict]:
    """Span name and work counts read off a call's arguments and result."""
    if name == "spectral.leading_left_singular":
        n, m = args[0].shape
        flops = 2.0 * n * n * m + 2.0 * n * n + 4.0 * n * n * out.iterations
        return name, {"iterations": out.iterations, "unconverged": int(not out.converged), "gflop": flops / 1e9}
    if name == "cluster.if_pca":
        return name, {"selected": int(out.selected.size)}
    if name == "cluster.sparse_aggregation_exact":
        p, N = args[0].shape[1], int(args[1])
        return name, {"configs": math.comb(p, N)}
    if name == "cluster.signed_sparse_aggregation" and not kwargs.get("greedy", False):
        p, N = args[0].shape[1], int(args[1])
        return name + "_exact", {"configs": 2 ** (N - 1) * math.comb(p, N)}
    return name, {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into the package."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, parent=stack[-1] if stack else None))
        stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            span.name, span.counts = _counts(name, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Trace every function in TRACED until the block exits."""
        modules = [m for k, m in sys.modules.items() if k == "rareweak" or k.startswith("rareweak.")]
        undo = []
        try:
            for mod_name, fn_name in TRACED:
                fn = getattr(sys.modules[f"rareweak.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, fn))
            yield
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Calls, total and self milliseconds and summed counts per span name."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        out: dict[str, dict] = {}
        for s, kids in zip(self.spans, child_ms):
            row = out.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "counts": {}})
            row["calls"] += 1
            row["total_ms"] += s.ms
            row["self_ms"] += s.ms - kids
            for k, v in s.counts.items():
                row["counts"][k] = row["counts"].get(k, 0) + v
        return out

    def _self_minus(self, name: str, child_name: str | None) -> tuple[float, int]:
        """Total of ``name`` spans minus their direct children (only ``child_name`` ones if given), and their count."""
        idx = {i for i, s in enumerate(self.spans) if s.name == name}
        total = sum(self.spans[i].ms for i in idx)
        total -= sum(s.ms for s in self.spans if s.parent in idx and (child_name is None or s.name == child_name))
        return total, len(idx)

    def layer_metrics(self, units: int, overhead_pct: float) -> dict:
        """Per-layer metrics; counts are per unit of work (trial or pipeline run)."""
        summ = self.summary()

        def per_call(span: str) -> float:
            row = summ.get(span)
            return row["total_ms"] / row["calls"] if row else 0.0

        def count(span: str, key: str) -> float:
            row = summ.get(span)
            return row["counts"].get(key, 0) if row else 0

        def rate(span: str) -> float:
            row = summ.get(span)
            return count(span, "configs") / (row["total_ms"] / 1e3) if row else 0.0

        def self_ms(name: str, child: str | None) -> float:
            total, calls = self._self_minus(name, child)
            return total / calls if calls else 0.0

        lls = "spectral.leading_left_singular"
        if_calls = summ.get("cluster.if_pca", {}).get("calls", 0)
        values = {metric: per_call(span) for metric, span in TIMED.items()}
        values |= {
            "spectral.power_iterations": count(lls, "iterations") / units,
            "spectral.unconverged": count(lls, "unconverged") / units,
            "spectral.gram_gflop": count(lls, "gflop") / units,
            "cluster.if_pca_selected": count("cluster.if_pca", "selected") / if_calls if if_calls else 0.0,
            "cluster.exact_configs_per_s": rate("cluster.sparse_aggregation_exact"),
            "cluster.signed_exact_configs_per_s": rate("cluster.signed_sparse_aggregation_exact"),
            # run_trial minus the generation and method calls it makes directly
            "harness.trial_self_ms": self_ms("harness.run_trial", None),
            "harness.sweep_self_ms": self_ms("harness.run_sweep", "harness.run_trial"),
            "cli.sweep_self_ms": self_ms("cli.sweep", "harness.run_sweep"),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
