"""Two-class clustering methods.

Four routes to a +-1 label vector, in increasing appetite for sparsity:

* simple_aggregation  - sign of the row sums; no selection at all.
* sparse_aggregation_* - pick N columns maximizing the L1 norm of their
  sum, then take the sign of that sum. The exact solver enumerates all
  supports (and is budget-capped); the greedy solver does forward
  selection plus 1-swap local search.
* classical_pca       - sign of the top left singular vector of X.
* if_pca              - chi-square screen first, then classical PCA on
  the survivors; falls back to classical PCA on an empty screen.

signed_sparse_aggregation extends sparse aggregation to sign-valued
weights for the model where feature effects carry mixed signs, and
kmeans_1d_two is the exact two-cluster split of scalar scores used by
the applied pipeline.

sgn(0) is taken as +1 throughout: a zero is not a legal class label, so
it is collapsed deterministically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import SingularPair, chi2_scores, leading_left_singular, select_features

__all__ = [
    "ClusterResult",
    "EnumerationBudgetError",
    "simple_aggregation",
    "sparse_aggregation_exact",
    "sparse_aggregation_greedy",
    "classical_pca",
    "if_pca",
    "signed_sparse_aggregation",
    "kmeans_1d_two",
    "default_sparsity",
    "enum_configs",
]

DEFAULT_ENUM_BUDGET = 2_000_000


class EnumerationBudgetError(ValueError):
    """Raised when exact subset enumeration would exceed its budget."""


@dataclass
class ClusterResult:
    labels: np.ndarray
    method: str
    selected: np.ndarray | None = None
    singular: SingularPair | None = None
    fallback_used: bool = False
    objective: float | None = None
    mu_hat: np.ndarray | None = None


def _sgn(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, 1, -1).astype(np.int64)


def _require_finite(values: np.ndarray) -> None:
    """Reject X through ``values``, X itself or a reduction of it that any NaN or inf entry reaches."""
    if not np.isfinite(values).all():
        raise ValueError("X must be finite")


def default_sparsity(expected_signals: float) -> int:
    """Ceiling of the expected signal count; the canonical choice of N."""
    return max(1, math.ceil(expected_signals))


def enum_configs(p: int, N: int, signed: bool = False) -> int:
    """Budget charge of an exact N-of-p search: C(p, N), times 2^N when signed."""
    return math.comb(p, N) * (2**N if signed else 1)


def simple_aggregation(X: np.ndarray) -> ClusterResult:
    """Sign of the row sums of X."""
    sums = np.sum(X, axis=1)
    _require_finite(sums)
    return ClusterResult(labels=_sgn(sums), method="simple_agg")


def _check_enum_budget(n_configs: int, budget: int, solver_hint: str) -> None:
    if n_configs > budget:
        raise EnumerationBudgetError(
            f"{n_configs} configurations exceed the enumeration budget {budget}; "
            f"use {solver_hint} instead"
        )


def sparse_aggregation_exact(
    X: np.ndarray, N: int, budget: int = DEFAULT_ENUM_BUDGET
) -> ClusterResult:
    """Globally optimal N-column aggregation by exhaustive enumeration.

    Ties go to the lexicographically smallest index set. Refuses to run
    when comb(p, N) exceeds ``budget``.
    """
    n, p = X.shape
    if not 1 <= N <= p:
        raise ValueError(f"N must lie in [1, {p}], got {N}")
    _check_enum_budget(enum_configs(p, N), budget, "sparse_aggregation_greedy")
    _require_finite(X)
    best_obj = -math.inf
    best_set = None
    combos = itertools.combinations(range(p), N)
    chunk_size = max(1, 200_000 // max(n * N, 1))
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        idx = np.array(chunk)  # (c, N)
        sums = X[:, idx].sum(axis=2)  # (n, c)
        objs = np.abs(sums).sum(axis=0)
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best_set = idx[k]
    agg = X[:, best_set].sum(axis=1)
    return ClusterResult(
        labels=_sgn(agg),
        method="sparse_agg",
        selected=np.asarray(best_set),
        objective=best_obj,
    )


def _l1_objective(running: np.ndarray) -> float:
    return float(np.abs(running).sum())


def _greedy_forward(X: np.ndarray, N: int, first: int | None) -> tuple[list[int], np.ndarray]:
    n, p = X.shape
    selected: list[int] = []
    running = np.zeros(n)
    if first is not None:
        selected.append(first)
        running = running + X[:, first]
    while len(selected) < N:
        cand = np.abs(running[:, None] + X).sum(axis=0)
        _require_finite(cand)
        cand[selected] = -np.inf
        j = int(np.argmax(cand))
        selected.append(j)
        running = running + X[:, j]
    return selected, running


def _one_swap_local_search(
    X: np.ndarray, selected: list[int], running: np.ndarray, max_sweeps: int
) -> tuple[list[int], np.ndarray, float]:
    p = X.shape[1]
    obj = _l1_objective(running)
    for _ in range(max_sweeps):
        best_gain = 1e-9
        best_move = None
        in_set = np.zeros(p, dtype=bool)
        in_set[selected] = True
        for pos, i in enumerate(selected):
            base = running - X[:, i]
            vals = np.abs(base[:, None] + X).sum(axis=0)
            vals[in_set] = -np.inf
            j = int(np.argmax(vals))
            gain = vals[j] - obj
            if gain > best_gain:
                best_gain = gain
                best_move = (pos, j)
        if best_move is None:
            break
        pos, j = best_move
        running = running - X[:, selected[pos]] + X[:, j]
        selected[pos] = j
        obj = _l1_objective(running)
    return selected, running, obj


def sparse_aggregation_greedy(
    X: np.ndarray,
    N: int,
    restarts: int = 8,
    seed: int = 0,
    max_sweeps: int = 50,
) -> ClusterResult:
    """Forward selection plus 1-swap local search for the N-column objective.

    Restart 0 is the pure greedy run; each further restart seeds the
    first column at random. The best objective wins, ties going to the
    lowest restart index, so results are deterministic given the seed.
    """
    n, p = X.shape
    if not 1 <= N <= p:
        raise ValueError(f"N must lie in [1, {p}], got {N}")
    rng = np.random.default_rng(seed)
    firsts: list[int | None] = [None] + [int(rng.integers(p)) for _ in range(max(0, restarts - 1))]
    best = None
    for first in firsts:
        selected, running = _greedy_forward(X, N, first)
        selected, running, obj = _one_swap_local_search(X, selected, running, max_sweeps)
        if best is None or obj > best[0] + 1e-12:
            best = (obj, sorted(selected), running)
    obj, selected, running = best
    return ClusterResult(
        labels=_sgn(running),
        method="sparse_agg_greedy",
        selected=np.asarray(selected),
        objective=obj,
    )


def classical_pca(X: np.ndarray) -> ClusterResult:
    """Sign of the top left singular vector of the full matrix."""
    pair = leading_left_singular(X)
    return ClusterResult(labels=_sgn(pair.vector), method="classical_pca", singular=pair)


def if_pca(X: np.ndarray, q: float) -> ClusterResult:
    """Chi-square screen, then PCA clustering on the surviving columns.

    An empty screen falls back to classical PCA with fallback_used set.
    """
    n, p = X.shape
    res = select_features(chi2_scores(X), p, q)
    if res.selected.size == 0:
        fallback = classical_pca(X)
        return ClusterResult(
            labels=fallback.labels,
            method="if_pca",
            selected=res.selected,
            singular=fallback.singular,
            fallback_used=True,
        )
    pair = leading_left_singular(X[:, res.selected])
    return ClusterResult(
        labels=_sgn(pair.vector),
        method="if_pca",
        selected=res.selected,
        singular=pair,
    )


def signed_sparse_aggregation(
    X: np.ndarray,
    N: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    greedy: bool = False,
    restarts: int = 8,
    seed: int = 0,
    max_sweeps: int = 50,
) -> ClusterResult:
    """Maximize ||X w||_1 over sign-valued N-sparse weight vectors w.

    Labels are the sign of X @ w. The weight vector doubles as a sign
    estimate of the feature effects (w and -w tie by symmetry; the
    returned one has its first nonzero weight positive).
    """
    n, p = X.shape
    if not 1 <= N <= p:
        raise ValueError(f"N must lie in [1, {p}], got {N}")
    if greedy:
        return _signed_greedy(X, N, restarts, seed, max_sweeps)
    _check_enum_budget(
        enum_configs(p, N, signed=True), budget, "signed_sparse_aggregation(greedy=True)"
    )
    _require_finite(X)
    best_obj = -math.inf
    best_support = None
    best_signs = None
    # first sign fixed +1: w and -w give identical objectives
    sign_patterns = [(1,) + rest for rest in itertools.product((1, -1), repeat=N - 1)]
    for support in itertools.combinations(range(p), N):
        cols = X[:, support]
        for signs in sign_patterns:
            obj = _l1_objective(cols @ np.asarray(signs, dtype=float))
            if obj > best_obj:
                best_obj = obj
                best_support = support
                best_signs = signs
    w = np.zeros(p)
    w[list(best_support)] = best_signs
    return ClusterResult(
        labels=_sgn(X @ w),
        method="signed_sparse_agg",
        selected=np.asarray(best_support),
        objective=best_obj,
        mu_hat=w,
    )


def _signed_greedy(X, N, restarts, seed, max_sweeps):
    n, p = X.shape
    rng = np.random.default_rng(seed)
    firsts: list[tuple[int, int] | None] = [None] + [
        (int(rng.integers(p)), 1) for _ in range(max(0, restarts - 1))
    ]
    best = None
    for first in firsts:
        w = np.zeros(p)
        running = np.zeros(n)
        if first is not None:
            j0, s0 = first
            w[j0] = s0
            running = running + s0 * X[:, j0]
        while int(np.count_nonzero(w)) < N:
            plus = np.abs(running[:, None] + X).sum(axis=0)
            minus = np.abs(running[:, None] - X).sum(axis=0)
            _require_finite(plus)
            plus[w != 0] = -np.inf
            minus[w != 0] = -np.inf
            jp, jm = int(np.argmax(plus)), int(np.argmax(minus))
            if plus[jp] >= minus[jm]:
                w[jp] = 1
                running = running + X[:, jp]
            else:
                w[jm] = -1
                running = running - X[:, jm]
        obj = _l1_objective(running)
        for _ in range(max_sweeps):
            improved = False
            support = np.flatnonzero(w)
            for i in support:
                base = running - w[i] * X[:, i]
                plus = np.abs(base[:, None] + X).sum(axis=0)
                minus = np.abs(base[:, None] - X).sum(axis=0)
                # the vacated slot may be refilled with either sign
                plus[support[support != i]] = -np.inf
                minus[support[support != i]] = -np.inf
                jp, jm = int(np.argmax(plus)), int(np.argmax(minus))
                cand_obj, j, s = max(
                    (float(plus[jp]), jp, 1), (float(minus[jm]), jm, -1)
                )
                if cand_obj > obj + 1e-9:
                    w[i] = 0.0
                    w[j] = s
                    running = base + s * X[:, j]
                    obj = cand_obj
                    improved = True
                    break
            if not improved:
                break
        if best is None or obj > best[0] + 1e-12:
            best = (obj, w.copy(), running.copy())
    obj, w, running = best
    nz = np.flatnonzero(w)
    if nz.size and w[nz[0]] < 0:
        w = -w
        running = -running
    return ClusterResult(
        labels=_sgn(running),
        method="signed_sparse_agg_greedy",
        selected=np.flatnonzero(w),
        objective=obj,
        mu_hat=w,
    )


def kmeans_1d_two(values: np.ndarray) -> np.ndarray:
    """Exact two-cluster k-means on scalars via a sorted prefix scan.

    The optimal two-cluster partition of points on a line is a split of
    the sorted order, so scanning all n-1 splits with prefix sums finds
    the global optimum in O(n log n). The lower cluster is labeled -1,
    the upper +1; ties in the objective go to the smallest split index.
    Constant input collapses to a single all-+1 cluster.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    order = np.argsort(v, kind="stable")
    s = v[order]
    if s[0] == s[-1]:
        return np.ones(n, dtype=np.int64)
    csum = np.cumsum(s)
    csq = np.cumsum(s * s)
    total_sum, total_sq = csum[-1], csq[-1]
    k = np.arange(1, n)  # left cluster size
    left_cost = csq[:-1] - csum[:-1] ** 2 / k
    right_cost = (total_sq - csq[:-1]) - (total_sum - csum[:-1]) ** 2 / (n - k)
    costs = left_cost + right_cost
    split = int(np.argmin(costs))  # first minimum = smallest split index
    labels = np.empty(n, dtype=np.int64)
    labels[order[: split + 1]] = -1
    labels[order[split + 1 :]] = 1
    return labels
