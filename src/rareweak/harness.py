"""Monte Carlo orchestration: single trials and phase-plane sweeps.

A TrialSpec pins everything needed to reproduce one replication: the
calibration, the noise model, the methods to run (with their options),
and a seed. run_trial never aborts on a per-method failure (for
example an enumeration budget): the failure is recorded under that
method and the rest of the trial continues.

Sweeps lay cells out on a (beta, strength) grid. Per-trial seeds are
derived as SeedSequence(master_seed, spawn_key=(cell_index, rep)), so
adding cells or reps never perturbs existing trials, and parallel
execution cannot change any result. Sweep JSON output is canonical
(sorted keys, strict JSON); everything time-dependent lives in a separate "meta"
block so reruns are byte-identical outside it.

Each trial runs numpy's OpenBLAS on one thread; sweeps get their
parallelism from running trials on ``workers`` threads. Two trials on
the default two BLAS threads each oversubscribe a two-core host, and
the bits of a large product such as X @ X.T depend on the BLAS thread
count, so the pin also makes sweep bodies independent of the host's
BLAS setting.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import math
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import cluster, hyptest, recover, spectral
from .metrics import Z95, cos_angle, hamming_clustering, hamming_recovery, hamming_recovery_signed, wilson_interval
from .model import ArwParams, Dataset, NoiseSpec, _check_calibration, _check_count, _check_type, gen_dataset
from .model import _float_if_real, _from_json, _is_integer, _is_real
from .phase import BOUND_KINDS, PROBLEMS, PhaseQuery, boundary, region, rho_star_theta

__all__ = [
    "TrialSpec",
    "TrialRecord",
    "SweepSpec",
    "run_trial",
    "run_sweep",
    "trial_seed",
    "sweep_csv_rows",
]

# Preset bundles for the two natural pipeline orders: estimate labels first
# and read the support off the label-weighted means (works in the denser
# regimes), or estimate the support first and cluster on the selected
# columns (works in the sparser regimes).
METHOD_PRESETS = {
    "cluster-then-recover": {
        "simple_agg": {},
        "classical_pca": {},
        "recover_sa_star": {},
        "recover_if_star": {},
    },
    "recover-then-cluster": {
        "sparse_agg_greedy": {},
        "if_pca": {},
        "recover_sa_n": {},
        "recover_if_q": {},
    },
}


# what each method option may be besides null; its range is checked when the method runs
_OPTION_TYPES = {
    "N": ("an integer", _is_integer),
    "q": ("a real number", _is_real),
}


def _check_methods(methods: dict) -> None:
    """Reject a method map that is not a dict or is empty, an unknown method,
    or an option its method does not take or of the wrong type."""
    if not isinstance(methods, dict):
        raise ValueError(f"methods must be an object mapping method names to options, got {methods!r}")
    if not methods:
        raise ValueError("at least one method is required")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}; available: {sorted(METHODS)}")
    for name, opts in methods.items():
        if not isinstance(opts, (dict, type(None))):
            raise ValueError(f"options of method {name!r} must be an object, got {type(opts).__name__}")
        bad = sorted(set(opts or {}) - METHODS[name].options)
        if bad:
            raise ValueError(f"method {name!r} does not accept {bad}; it accepts {sorted(METHODS[name].options)}")
        for key, value in (opts or {}).items():
            what, ok = _OPTION_TYPES[key]
            if value is not None and not ok(value):
                raise ValueError(f"option {key!r} of method {name!r} must be {what} or null, got {value!r}")


@dataclass(frozen=True)
class TrialSpec:
    params: ArwParams
    methods: dict
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec.white)

    def __post_init__(self):
        _check_type(self, "params", lambda v: isinstance(v, ArwParams), "an ArwParams")
        _check_type(self, "noise", lambda v: isinstance(v, NoiseSpec), "a NoiseSpec")
        _check_count(self, "seed", 0)
        _check_methods(self.methods)
        self.noise.check_shapes(self.params.n, self.params.p)

    def to_dict(self) -> dict:
        """The spec's record form; a coloring matrix is named by its digest (see NoiseSpec.to_dict)."""
        return {
            "params": self.params.to_dict(),
            "methods": self.methods,
            "seed": self.seed,
            "noise": self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialSpec":
        """A TrialSpec from a spec file, which lists any coloring matrix as rows;
        a white-noise record's ``spec`` loads back. Bad input raises ValueError."""
        return _from_json(cls, d, params=ArwParams.from_dict, noise=NoiseSpec.from_dict)

    def spec_hash(self) -> str:
        """Hash of to_dict() (see _dict_hash)."""
        return _dict_hash(self.to_dict())


def _dict_hash(d: dict) -> str:
    """The first 16 hex digits of the SHA-256 of d as compact sorted JSON."""
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TrialRecord:
    spec_hash: str
    seed: int
    clustering: dict
    recovery: dict
    tests: dict
    wall_time: float
    spec: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def has_errors(self) -> bool:
        return any(
            "error" in entry
            for group in (self.clustering, self.recovery, self.tests)
            for entry in group.values()
        )


@dataclass(frozen=True)
class MethodArgs:
    """What a method-table entry reads: its spec options, the calibration,
    the seed and the trial's memo. A missing or None option takes its default."""

    opts: dict
    params: ArwParams
    seed: int
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def once(self, fn: Callable, X: np.ndarray, *args, **kwargs):
        """fn(X, *args, **kwargs), computed once per trial.

        The memo belongs to one trial, so X is always that trial's data and
        the key is fn with the other arguments. Entries pass fn as read off
        its module at call time, so a patched function is the one that runs
        and is keyed. Only results are kept: a call that raises raises again
        for every method that asks for it.
        """
        key = (fn, args, tuple(sorted(kwargs.items())))
        if key not in self.memo:
            self.memo[key] = fn(X, *args, **kwargs)
        return self.memo[key]

    def _get(self, key: str, default):
        value = self.opts.get(key)
        return default if value is None else value

    @property
    def N(self) -> int:
        return int(self._get("N", cluster.default_sparsity(self.params.expected_signals)))

    @property
    def q(self) -> float:
        pr = self.params
        if self.opts.get("q") is None and pr.r is not None and 0.5 < pr.beta < 1 - pr.theta / 2:
            return spectral.q_star(pr.theta, pr.beta, pr.r)
        return float(self._get("q", 3.0))

    def greedy(self, signed: bool = False) -> bool:
        """The one exact-or-greedy rule of the N-column aggregation searches:
        whether exhaustive enumeration would exceed cluster.DEFAULT_ENUM_BUDGET."""
        return cluster.enum_configs(self.params.p, self.N, signed) > cluster.DEFAULT_ENUM_BUDGET


@dataclass(frozen=True)
class Method:
    """One row of the method table. ``run(X, args)`` returns a ClusterResult,
    RecoveryResult or TestOutcome; ``group`` names the record field it lands in."""

    group: str
    options: frozenset
    run: Callable


def _unsigned_search(X: np.ndarray, a: MethodArgs, greedy: bool) -> cluster.ClusterResult:
    """The trial's one unsigned N-column search with this solver and N."""
    if greedy:
        return a.once(cluster.sparse_aggregation_greedy, X, a.N, seed=a.seed)
    return a.once(cluster.sparse_aggregation_exact, X, a.N)


# Entries call the library through its module attributes, so a function
# patched on its module (by a tracer, say) is the one that runs. Results
# that several methods read (the unsigned search, classical PCA, the
# row-sum labels, the chi-square column scores) go through MethodArgs.once
# and are computed once per trial.
METHODS = {
    "simple_agg": Method("clustering", frozenset(), lambda X, a: a.once(cluster.simple_aggregation, X)),
    "sparse_agg_exact": Method("clustering", frozenset({"N"}), lambda X, a: _unsigned_search(X, a, greedy=False)),
    "sparse_agg_greedy": Method("clustering", frozenset({"N"}), lambda X, a: _unsigned_search(X, a, greedy=True)),
    "classical_pca": Method("clustering", frozenset(), lambda X, a: a.once(cluster.classical_pca, X)),
    "if_pca": Method(
        "clustering", frozenset({"q"}), lambda X, a: cluster.screened_pca(X, a.once(spectral.chi2_scores, X), a.q)
    ),
    "signed_sparse_agg": Method(
        "clustering",
        frozenset({"N"}),
        lambda X, a: cluster.signed_sparse_aggregation(X, a.N, greedy=a.greedy(signed=True), seed=a.seed),
    ),
    "recover_sa_star": Method(
        "recovery",
        frozenset(),
        lambda X, a: recover.threshold_weighted_means(X, a.once(cluster.simple_aggregation, X).labels),
    ),
    "recover_if_star": Method(
        "recovery",
        frozenset(),
        lambda X, a: recover.threshold_weighted_means(X, a.once(cluster.classical_pca, X).labels),
    ),
    "recover_sa_n": Method(
        "recovery",
        frozenset({"N"}),
        lambda X, a: recover.RecoveryResult(support=_unsigned_search(X, a, a.greedy()).selected),
    ),
    "recover_if_q": Method(
        "recovery",
        frozenset({"q"}),
        lambda X, a: recover.RecoveryResult(support=spectral.select_features(a.once(spectral.chi2_scores, X), a.q)),
    ),
    "recover_signed_pca": Method(
        "recovery",
        frozenset(),
        lambda X, a: recover.signed_weighted_means(X, a.once(cluster.classical_pca, X).labels),
    ),
    "agg_chi2": Method("tests", frozenset(), lambda X, a: hyptest.simple_agg_test(X)),
    "sparse_agg_l1": Method(
        "tests",
        frozenset({"N"}),
        lambda X, a: hyptest.sparse_agg_outcome(_unsigned_search(X, a, a.greedy()).objective, *X.shape, a.N),
    ),
    "higher_criticism": Method(
        "tests",
        frozenset(),
        lambda X, a: hyptest.higher_criticism_outcome(a.once(spectral.chi2_scores, X), X.shape[0]),
    ),
}


def _entry(res, ds: Dataset, params: ArwParams) -> dict:
    """The trial-record entry of one method's result."""
    if isinstance(res, hyptest.TestOutcome):
        return {"statistic": res.statistic, "threshold": res.threshold, "reject": bool(res.reject)}
    if isinstance(res, recover.RecoveryResult):
        entry = {
            "hamming": hamming_recovery(res.support, ds.support, params.expected_signals),
            "support_size": int(res.support.size),
        }
        if res.signs is not None:
            entry["signed_hamming"] = hamming_recovery_signed(res.signs, ds.mu, params.expected_signals)
        return entry
    X = ds.X
    if res.singular is not None:
        score = res.singular.vector
    elif res.mu_hat is not None:
        score = X @ res.mu_hat
    elif res.selected is not None:
        score = X[:, res.selected].sum(axis=1)
    else:
        score = X.sum(axis=1)
    entry = {
        "hamming": hamming_clustering(res.labels, ds.labels),
        "cosine": cos_angle(score, ds.labels.astype(float)) if np.any(score) else 0.0,
        "fallback": bool(res.fallback_used),
    }
    if res.selected is not None:
        entry["n_selected"] = int(res.selected.size)
    if res.objective is not None:
        entry["objective"] = float(res.objective)
    return entry


@functools.cache
def _openblas() -> tuple[Callable, Callable] | None:
    """(get_num_threads, set_num_threads) of the OpenBLAS that numpy's wheel
    bundles, or None when none is found."""
    pkg = Path(np.__file__).parent
    for path in sorted([*pkg.parent.glob("numpy.libs/*openblas*"), *pkg.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_pin_lock = threading.Lock()
_pin = {"inside": 0, "saved": None}


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread.

    The thread count is global to the process, so one count covers every
    body that runs under the pin (trials here, ``ifpca`` pipeline and
    k-means runs there): the first body in saves the count and sets 1,
    and the last body out restores it, also when the body raises.
    Without OpenBLAS this does nothing.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _pin_lock:
        if _pin["inside"] == 0:
            _pin["saved"] = get()
            set_(1)
        _pin["inside"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["inside"] -= 1
            if _pin["inside"] == 0:
                set_(_pin["saved"])


def run_trial(spec: TrialSpec) -> TrialRecord:
    """Generate one dataset and run every requested method on it, with
    BLAS on one thread (see the module docstring).

    Results that several methods share are computed once (see
    MethodArgs.once). Per-method failures become {"error": message}
    entries; the other methods still run. The record's spec dict is built
    once, and spec_hash is its hash.
    """
    t0 = time.perf_counter()
    groups = {"clustering": {}, "recovery": {}, "tests": {}}
    memo: dict = {}
    with _one_blas_thread():
        ds = gen_dataset(spec.params, spec.noise, spec.seed)
        for name, opts in spec.methods.items():
            method = METHODS[name]
            try:
                entry = _entry(method.run(ds.X, MethodArgs(opts or {}, spec.params, spec.seed, memo)), ds, spec.params)
            except ValueError as exc:  # cluster.EnumerationBudgetError included
                entry = {"error": str(exc)}
            groups[method.group][name] = entry
    spec_dict = spec.to_dict()
    return TrialRecord(
        spec_hash=_dict_hash(spec_dict),
        seed=spec.seed,
        **groups,
        wall_time=time.perf_counter() - t0,
        spec=spec_dict,
    )


def trial_seed(master_seed: int, cell_index: int, rep: int) -> int:
    """Stable per-trial seed; new cells/reps never disturb existing ones."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(cell_index, rep))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (beta, strength) cells, each replicated ``reps`` times.

    ``strength_kind`` is "alpha" (plain exponents), "r" (log-adjusted
    calibration), or "alpha_ratio" (values are multiples of a reference
    phase boundary, resolved per beta; the reference defaults to the
    statistical clustering curve).
    """

    p: int
    theta: float
    betas: tuple
    strength_kind: str
    strengths: tuple
    reps: int = 20
    methods: dict = field(default_factory=lambda: {"simple_agg": {}})
    master_seed: int = 0
    sign_mix_a: float = 0.0
    ratio_reference: tuple = ("clustering", "statistical")

    def __post_init__(self):
        # stored as tuples, so that a spec read from JSON lists equals one built from tuples
        for name in ("betas", "strengths", "ratio_reference"):
            _check_type(self, name, lambda v: isinstance(v, (list, tuple)), "a list")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.betas or not self.strengths:
            raise ValueError("grids must be nonempty")
        for name in ("betas", "strengths"):
            bad = [v for v in getattr(self, name) if not _is_real(v)]
            if bad:
                raise ValueError(f"{name} entries must be real numbers, got {bad[0]!r}")
        # checked per cell too, by ArwParams and PhaseQuery; here so that a bad value fails the spec once
        _check_calibration(self)
        _check_count(self, "reps", 1)
        _check_count(self, "master_seed", 0)
        if self.strength_kind not in ("alpha", "r", "alpha_ratio"):
            raise ValueError(f"bad strength_kind {self.strength_kind!r}")
        if len(self.ratio_reference) != 2:
            raise ValueError(f"ratio_reference must be a (problem, bound kind) pair, got {list(self.ratio_reference)!r}")
        PhaseQuery(*self.ratio_reference)  # raises on an unknown problem or bound kind
        _check_methods(self.methods)

    def to_dict(self) -> dict:
        """The fields as JSON, tuples written as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        """Inverse of to_dict and canonical_json: theta and sign_mix_a are read as floats,
        grid entries as given but "inf", "-inf" and "nan" as floats. Bad input raises ValueError."""
        grid = lambda v: [float(x) if x in ("inf", "-inf", "nan") else x for x in v] if isinstance(v, list) else v
        return _from_json(cls, d, theta=_float_if_real, sign_mix_a=_float_if_real, betas=grid, strengths=grid)

    @property
    def variant(self) -> str:
        """Phase-curve variant of the sweep's sign mix: balanced signs are 'signed'."""
        return "signed" if self.sign_mix_a == 0.5 else "one_sided"

    def cell_params(self, beta: float, strength: float) -> ArwParams:
        if self.strength_kind == "r":
            return ArwParams(p=self.p, theta=self.theta, beta=beta, r=strength, sign_mix_a=self.sign_mix_a)
        if self.strength_kind == "alpha_ratio":
            problem, kind = self.ratio_reference
            ref = boundary(PhaseQuery(problem, kind, self.variant, self.theta, beta)).alpha_boundary
            strength = strength * ref
        return ArwParams(p=self.p, theta=self.theta, beta=beta, alpha=strength, sign_mix_a=self.sign_mix_a)


def _mean_ci(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {
        "mean": mean,
        "median": float(np.median(arr)),
        "ci_low": mean - Z95 * se,
        "ci_high": mean + Z95 * se,
        "n": int(arr.size),
    }


def _summarize(group: str, good: list[dict]) -> dict:
    """Cell statistics of one method from its error-free trial entries."""
    if group == "tests":
        k = int(np.sum([e["reject"] for e in good]))
        lo, hi = wilson_interval(k, len(good))
        return {
            "rejection_rate": k / len(good),
            "ci_low": lo,
            "ci_high": hi,
            "statistic": _mean_ci([e["statistic"] for e in good]),
            "n": len(good),
        }
    agg = {"hamming": _mean_ci([e["hamming"] for e in good])}
    if group == "clustering":
        agg["cosine"] = _mean_ci([e["cosine"] for e in good])
        agg["fallback_rate"] = float(np.mean([e["fallback"] for e in good]))
        if all("n_selected" in e for e in good):
            agg["n_selected"] = _mean_ci([float(e["n_selected"]) for e in good])
    else:
        agg["support_size"] = _mean_ci([float(e["support_size"]) for e in good])
        if all("signed_hamming" in e for e in good):
            agg["signed_hamming"] = _mean_ci([e["signed_hamming"] for e in good])
    return agg


def _aggregate_cell(records: list[TrialRecord]) -> dict:
    """Per-method statistics of a cell's trials, which all ran the same methods."""
    out = {"clustering": {}, "recovery": {}, "tests": {}, "n_errors": 0}
    for group in ("clustering", "recovery", "tests"):
        for name in sorted(getattr(records[0], group)):
            entries = [getattr(r, group)[name] for r in records]
            good = [e for e in entries if "error" not in e]
            out["n_errors"] += len(entries) - len(good)
            out[group][name] = _summarize(group, good) if good else {"error": entries[0]["error"]}
    return out


def _classify_cell(sweep: SweepSpec, beta: float, params: ArwParams) -> dict:
    regions = {}
    if params.alpha is not None and not math.isinf(params.alpha):
        for problem in PROBLEMS:
            for kind in BOUND_KINDS:
                ref = boundary(PhaseQuery(problem, kind, sweep.variant, sweep.theta, beta)).alpha_boundary
                regions[f"{problem}:{kind}"] = region(ref - params.alpha)
    elif params.r is not None and 0.5 < beta < 1 - sweep.theta / 2:
        regions["ifpca_cosine"] = region(params.r - rho_star_theta(sweep.theta, beta))
    return regions


def run_sweep(sweep: SweepSpec, workers: int = 1) -> dict:
    """Run every cell of the sweep and aggregate per-cell statistics.

    Returns {"spec", "cells", "meta"}; everything outside "meta" is a
    pure function of the spec. Failed cells are recorded and do not
    stop the sweep. ``workers`` threads run trials at once; it must be a
    positive integer. Every sweep, ``workers=1`` included, runs its
    trials on a pool thread, so an interrupt cancels the trials not yet
    started and takes effect once the running ones finish.
    ``meta["blas_pinned"]`` says whether each trial ran OpenBLAS on one
    thread, which makes the body independent of the host's BLAS thread
    count.
    """
    if not _is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    t0 = time.perf_counter()
    cells, specs = [], []
    for cell_index, (beta, strength) in enumerate(itertools.product(sweep.betas, sweep.strengths)):
        cell = {"cell": cell_index, "beta": beta, "strength": strength}
        cells.append(cell)
        try:
            params = sweep.cell_params(beta, strength)
        except ValueError as exc:
            cell["error"] = str(exc)
            continue
        cell |= {
            "alpha": None if params.alpha is None or math.isinf(params.alpha) else params.alpha,
            "r": params.r,
            "n": params.n,
            "expected_signals": params.expected_signals,
            "regions": _classify_cell(sweep, beta, params),
        }
        seeds = (trial_seed(sweep.master_seed, cell_index, rep) for rep in range(sweep.reps))
        specs += [TrialSpec(params=params, methods=sweep.methods, seed=seed) for seed in seeds]
    # Every trial finishes before any cell aggregates: aggregating on this thread
    # while trials run contends for the GIL, which slowed serial sweeps by ~6%.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = iter(list(pool.map(run_trial, specs)))
    # map keeps submission order, so each valid cell takes the next reps records
    for cell in cells:
        if "error" not in cell:
            cell["results"] = _aggregate_cell([next(records) for _ in range(sweep.reps)])
    return {
        "spec": sweep.to_dict(),
        "cells": cells,
        "meta": {
            "wall_time": time.perf_counter() - t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "blas_pinned": _openblas() is not None,
        },
    }


def _spell_nonfinite(value):
    """value with each non-finite float replaced by its str(): "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _spell_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_nonfinite(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def canonical_json(payload: dict, drop_meta: bool = False) -> str:
    """payload as strict JSON (see _spell_nonfinite), with sorted keys and indent 1."""
    body = {k: v for k, v in payload.items() if not (drop_meta and k == "meta")}
    return json.dumps(_spell_nonfinite(body), sort_keys=True, indent=1, allow_nan=False)


def sweep_csv_rows(result: dict) -> list[dict]:
    """One flat summary row per cell, ready for a CSV writer."""
    rows = []
    for cell in result["cells"]:
        row = {
            "cell": cell["cell"],
            "beta": cell.get("beta"),
            "strength": cell.get("strength"),
            "alpha": cell.get("alpha"),
            "r": cell.get("r"),
        }
        if "error" in cell:
            row["error"] = cell["error"]
            rows.append(row)
            continue
        for problem_kind, region in cell["regions"].items():
            row[f"region:{problem_kind}"] = region
        for name, agg in cell["results"]["clustering"].items():
            if "hamming" in agg:
                row[f"clustering_hamming:{name}"] = agg["hamming"]["mean"]
                row[f"cosine:{name}"] = agg["cosine"]["mean"]
        for name, agg in cell["results"]["recovery"].items():
            if "hamming" in agg:
                row[f"recovery_hamming:{name}"] = agg["hamming"]["mean"]
        for name, agg in cell["results"]["tests"].items():
            if "rejection_rate" in agg:
                row[f"rejection_rate:{name}"] = agg["rejection_rate"]
        rows.append(row)
    return rows
