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
parallelism from running ``workers`` trials at once. Two trials on
the default two BLAS threads each oversubscribe a two-core host, and
the bits of a large product such as X @ X.T depend on the BLAS thread
count, so the pin also makes sweep bodies independent of the host's
BLAS setting.

A sweep with ``workers=1`` runs its trials one after another on the
calling thread, so Ctrl-C stops the running trial at once. With
``workers >= 2`` each trial is one job on a pool of worker processes: a
greedy search makes thousands of small numpy calls, which threads would
serialize on the GIL. The process has one such pool. It is started by
``spawn`` on first use, which costs about a quarter of a second, and
kept for later sweeps; a sweep with another worker count replaces it,
and so does the next sweep after a worker died (the sweep it died in
raises BrokenProcessPool). Specs and records cross as pickles, which
keep every bit, so the body does not depend on the worker count. Each
worker holds its own interpreter and its trial's X. Workers ignore
SIGINT once started, so Ctrl-C in the parent cancels the trials not yet
handed to a worker and lets the running ones finish. A process that
exits joins its workers first; one that is killed leaves them to notice
and exit. A script that runs a sweep on two or more workers must guard
its top level with ``if __name__ == "__main__":``, because each spawned
worker imports the script's main module.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import signal
import threading
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from . import cluster, hyptest, recover, spectral
from .metrics import Z95, cos_angle, hamming_clustering, hamming_recovery, hamming_recovery_signed, wilson_interval
from .model import ArwParams, Dataset, NoiseSpec, _check_calibration, _check_count, _check_type, gen_dataset
from .model import _float_if_real, _from_json, _is_integer, _is_real, _read_nonfinite, _spell_nonfinite
from .phase import BOUND_KINDS, PROBLEMS, PhaseQuery, _in_ifpca_range, boundary, region, rho_star_theta

__all__ = [
    "TrialSpec",
    "TrialRecord",
    "SweepSpec",
    "run_trial",
    "run_sweep",
    "trial_seed",
    "sweep_csv_rows",
]

GROUPS = ("clustering", "recovery", "tests")  # the record fields that hold method entries, by Method.group

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
        """The record form: params as strict JSON (_spell_nonfinite), each coloring matrix by digest."""
        return {
            "params": _spell_nonfinite(self.params.to_dict()),
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
        return any("error" in entry for group in GROUPS for entry in getattr(self, group).values())


@dataclass(eq=False)
class TrialStats:
    """One trial's X, calibration and seed, and the results that several
    method-table entries read: each is a named member, computed on first use
    through its module attribute (so a patched function is the one that runs).
    Only results are kept: a call that raises raises again for every method
    that reads it. A method's missing or None option takes its default."""

    X: np.ndarray
    params: ArwParams
    seed: int
    _row_sums: cluster.ClusterResult | None = None
    _pca: cluster.ClusterResult | None = None
    _scores: np.ndarray | None = None
    _searches: dict = field(default_factory=dict)

    @property
    def simple_aggregation(self) -> cluster.ClusterResult:
        """The row-sum labels: simple_agg and recover_sa_star."""
        if self._row_sums is None:
            self._row_sums = cluster.simple_aggregation(self.X)
        return self._row_sums

    @property
    def classical_pca(self) -> cluster.ClusterResult:
        """Classical PCA: classical_pca, recover_if_star and recover_signed_pca."""
        if self._pca is None:
            self._pca = cluster.classical_pca(self.X)
        return self._pca

    @property
    def chi2_scores(self) -> np.ndarray:
        """The chi-square column scores: if_pca, recover_if_q and higher_criticism."""
        if self._scores is None:
            self._scores = spectral.chi2_scores(self.X)
        return self._scores

    def unsigned_search(self, opts: dict, greedy: bool | None = None) -> cluster.ClusterResult:
        """The unsigned search at the options' N, kept per (N, solver); greedy None picks the solver
        by the enumeration budget. sparse_agg_exact, sparse_agg_greedy, sparse_agg_l1, recover_sa_n."""
        N = self.N(opts)
        greedy = self.greedy(opts) if greedy is None else greedy
        if (N, greedy) not in self._searches:
            if greedy:
                self._searches[N, greedy] = cluster.sparse_aggregation_greedy(self.X, N, seed=self.seed)
            else:
                self._searches[N, greedy] = cluster.sparse_aggregation_exact(self.X, N)
        return self._searches[N, greedy]

    def N(self, opts: dict) -> int:
        N = opts.get("N")
        return int(cluster.default_sparsity(self.params.expected_signals) if N is None else N)

    def q(self, opts: dict) -> float:
        pr, q = self.params, opts.get("q")
        if q is None and pr.r is not None and _in_ifpca_range(pr.theta, pr.beta):
            return spectral.q_star(pr.theta, pr.beta, pr.r)
        return float(3.0 if q is None else q)

    def greedy(self, opts: dict, signed: bool = False) -> bool:
        """Whether the N-column aggregation searches run greedy: see cluster._over_budget."""
        return cluster._over_budget(self.params.p, self.N(opts), signed)

    def screen(self, opts: dict) -> np.ndarray:
        """The chi-square screen at the options' q: the columns that if_pca and recover_if_q keep."""
        return spectral.select_features(self.chi2_scores, self.q(opts))


@dataclass(frozen=True)
class Method:
    """One row of the method table. ``run(stats, opts)`` reads the trial's TrialStats and
    the method's options; it returns a ClusterResult, RecoveryResult or TestOutcome, and
    ``group`` names the record field it lands in."""

    group: str
    options: frozenset
    run: Callable


# Entries call the library through its module attributes, as TrialStats does.
METHODS = {
    "simple_agg": Method("clustering", frozenset(), lambda s, o: s.simple_aggregation),
    "sparse_agg_exact": Method("clustering", frozenset({"N"}), lambda s, o: s.unsigned_search(o, greedy=False)),
    "sparse_agg_greedy": Method("clustering", frozenset({"N"}), lambda s, o: s.unsigned_search(o, greedy=True)),
    "classical_pca": Method("clustering", frozenset(), lambda s, o: s.classical_pca),
    "if_pca": Method("clustering", frozenset({"q"}), lambda s, o: cluster.screened_pca(s.X, s.screen(o))),
    "signed_sparse_agg": Method(
        "clustering",
        frozenset({"N"}),
        lambda s, o: cluster.signed_sparse_aggregation(s.X, s.N(o), greedy=s.greedy(o, signed=True), seed=s.seed),
    ),
    "recover_sa_star": Method(
        "recovery", frozenset(), lambda s, o: recover.threshold_weighted_means(s.X, s.simple_aggregation.labels)
    ),
    "recover_if_star": Method(
        "recovery", frozenset(), lambda s, o: recover.threshold_weighted_means(s.X, s.classical_pca.labels)
    ),
    "recover_sa_n": Method(
        "recovery", frozenset({"N"}), lambda s, o: recover.RecoveryResult(support=s.unsigned_search(o).selected)
    ),
    "recover_if_q": Method("recovery", frozenset({"q"}), lambda s, o: recover.RecoveryResult(support=s.screen(o))),
    "recover_signed_pca": Method(
        "recovery", frozenset(), lambda s, o: recover.signed_weighted_means(s.X, s.classical_pca.labels)
    ),
    "agg_chi2": Method("tests", frozenset(), lambda s, o: hyptest.simple_agg_test(s.X)),
    "sparse_agg_l1": Method(
        "tests",
        frozenset({"N"}),
        lambda s, o: hyptest.sparse_agg_outcome(s.unsigned_search(o).objective, *s.X.shape, s.N(o)),
    ),
    "higher_criticism": Method(
        "tests", frozenset(), lambda s, o: hyptest.higher_criticism_outcome(s.chi2_scores, s.X.shape[0])
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
    entry = {
        "hamming": hamming_clustering(res.labels, ds.labels),
        "cosine": cos_angle(res.score, ds.labels.astype(float)) if np.any(res.score) else 0.0,
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

    Every method reads one TrialStats, so a result that several methods
    share is computed once. Per-method failures become {"error": message}
    entries; the other methods still run. The record's spec dict is built
    once, and spec_hash is its hash.
    """
    t0 = time.perf_counter()
    groups = {group: {} for group in GROUPS}
    with _one_blas_thread():
        ds = gen_dataset(spec.params, spec.noise, spec.seed)
        stats = TrialStats(ds.X, spec.params, spec.seed)
        for name, opts in spec.methods.items():
            method = METHODS[name]
            try:
                entry = _entry(method.run(stats, opts or {}), ds, spec.params)
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
        grid entries as given or as spelled by _spell_nonfinite. Bad input raises ValueError."""
        grid = lambda v: list(map(_read_nonfinite, v)) if isinstance(v, list) else v
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


_AVERAGED = ("hamming", "cosine", "n_selected", "support_size", "signed_hamming", "statistic")


def _summarize(good: list[dict]) -> dict:
    """Cell statistics of one method from its error-free trial entries: _mean_ci of each
    _AVERAGED field they all have, the rate of a "fallback" flag, and the rate, Wilson
    interval and count of "reject" verdicts."""
    agg = {key: _mean_ci([e[key] for e in good]) for key in _AVERAGED if all(key in e for e in good)}
    if "fallback" in good[0]:
        agg["fallback_rate"] = float(np.mean([e["fallback"] for e in good]))
    if "reject" in good[0]:
        k = int(np.sum([e["reject"] for e in good]))
        agg["rejection_rate"] = k / len(good)
        agg["ci_low"], agg["ci_high"] = wilson_interval(k, len(good))
        agg["n"] = len(good)
    return agg


def _aggregate_cell(records: list[TrialRecord]) -> dict:
    """Per-method statistics of a cell's trials, which all ran the same methods."""
    out = {group: {} for group in GROUPS} | {"n_errors": 0}
    for group in GROUPS:
        for name in sorted(getattr(records[0], group)):
            entries = [getattr(r, group)[name] for r in records]
            good = [e for e in entries if "error" not in e]
            out["n_errors"] += len(entries) - len(good)
            out[group][name] = _summarize(good) if good else {"error": entries[0]["error"]}
    return out


def _classify_cell(sweep: SweepSpec, cell: dict) -> dict:
    """The regions of a cell with its alpha (None for r cells and the null cell) and r set."""
    regions, beta = {}, cell["beta"]
    if cell["alpha"] is not None:
        for problem in PROBLEMS:
            for kind in BOUND_KINDS:
                ref = boundary(PhaseQuery(problem, kind, sweep.variant, sweep.theta, beta)).alpha_boundary
                regions[f"{problem}:{kind}"] = region(ref - cell["alpha"])
    elif cell["r"] is not None and _in_ifpca_range(sweep.theta, beta):
        regions["ifpca_cosine"] = region(cell["r"] - rho_star_theta(sweep.theta, beta))
    return regions


def _init_worker() -> None:
    """Start a pool worker: leave Ctrl-C to the parent, and exit when the parent
    is gone, which a worker blocked on its job queue would otherwise never see."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: parent.join() or os._exit(1), daemon=True).start()


_workers_lock = threading.Lock()
_workers: tuple[int, ProcessPoolExecutor] | None = None  # the process's one worker pool, with its size


def _stop_workers() -> None:
    """At exit: join the workers, then stop and reap the resource tracker that the
    pool's named semaphores started. Left alone, the tracker sees this process
    exit only after it has gone, and then outlives it as an orphan."""
    _workers[1].shutdown()
    resource_tracker._resource_tracker._stop()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of ``workers`` workers, made on first use and then kept;
    the caller holds ``_workers_lock``. A pool of another size is shut down once
    the jobs queued on it finish, and a broken one (a worker died) is replaced."""
    global _workers
    if _workers is None or _workers[0] != workers or _workers[1]._broken:
        if _workers is None:
            atexit.register(_stop_workers)
        else:
            _workers[1].shutdown()
        context = multiprocessing.get_context("spawn")
        _workers = workers, ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker)
    return _workers[1]


def run_sweep(sweep: SweepSpec, workers: int = 1) -> dict:
    """Run every cell of the sweep and aggregate per-cell statistics.

    Returns {"spec", "cells", "meta"}; everything outside "meta" is a
    pure function of the spec. Failed cells are recorded and do not stop
    the sweep. ``workers`` trials run at once; it must be a positive
    integer. One runs the trials on the calling thread, where Ctrl-C
    stops the running trial at once; more run them on the process's pool
    of worker processes. ``meta["blas_pinned"]`` says whether each trial
    ran OpenBLAS on one thread. The module docstring has the details.
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
        }
        cell["regions"] = _classify_cell(sweep, cell)
        seeds = (trial_seed(sweep.master_seed, cell_index, rep) for rep in range(sweep.reps))
        specs += [TrialSpec(params=params, methods=sweep.methods, seed=seed) for seed in seeds]
    # collect every record before aggregating: aggregating beside the process pool's
    # result thread would contend for the GIL
    if workers == 1:
        results = map(run_trial, specs)
    else:
        with _workers_lock:  # every job is queued before another sweep can replace the pool
            results = _worker_pool(workers).map(run_trial, specs)
    records = iter(list(results))
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


def canonical_json(payload: dict) -> str:
    """payload as strict JSON (see _spell_nonfinite), with sorted keys and indent 1."""
    return json.dumps(_spell_nonfinite(payload), sort_keys=True, indent=1, allow_nan=False)


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
