"""Two-class clustering methods.

Four routes to a +-1 label vector, in increasing appetite for sparsity:

* simple_aggregation  - sign of the row sums; no selection at all.
* sparse_aggregation_* - pick N columns maximizing the L1 norm of their
  sum, then take the sign of that sum.
* classical_pca       - sign of the top left singular vector of X.
* if_pca              - chi-square screen first, then classical PCA on
  the survivors; falls back to classical PCA on an empty screen.

signed_sparse_aggregation extends sparse aggregation to sign-valued
weights for the model where feature effects carry mixed signs, and
kmeans_1d_two is the exact two-cluster split of scalar scores used by
the applied pipeline.

Both aggregation objectives run on one search engine over a sign set:
(1,) for the plain column sum, (1, -1) for sign-valued weights. The sign
loop is the only place the two objectives differ. The engine has an
exact solver, which enumerates every (support, sign pattern) pair in
chunks and is budget-capped, and a greedy solver, which does forward
selection plus best-improvement 1-swap local search from several
restarts. The greedy solver scores all p candidate columns of a step in
one n-by-p scratch array, allocated once per search and laid out like X,
so no candidate evaluation allocates an n-by-p temporary.

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
    "screened_pca",
    "signed_sparse_aggregation",
    "kmeans_1d_two",
    "default_sparsity",
    "enum_configs",
]

DEFAULT_ENUM_BUDGET = 2_000_000
_MAX_SWEEPS = 50  # cap on the greedy search's 1-swap improvement passes per restart


class EnumerationBudgetError(ValueError):
    """Raised when exact subset enumeration would exceed its budget."""


@dataclass
class ClusterResult:
    labels: np.ndarray
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
    """Budget charge of an exact N-of-p search: the (support, sign pattern)
    pairs it evaluates, C(p, N), times 2^(N-1) when signed (the first sign
    is fixed, since w and -w tie)."""
    return math.comb(p, N) * (2 ** (N - 1) if signed else 1)


def simple_aggregation(X: np.ndarray) -> ClusterResult:
    """Sign of the row sums of X."""
    sums = np.sum(X, axis=1)
    _require_finite(sums)
    return ClusterResult(labels=_sgn(sums))


def _check_sparsity(p: int, N: int) -> None:
    if not 1 <= N <= p:
        raise ValueError(f"N must lie in [1, {p}], got {N}")


def _l1_objective(running: np.ndarray) -> float:
    return float(np.abs(running).sum())


def _sign_patterns(signs: tuple, N: int, start: int, stop: int) -> np.ndarray:
    """Patterns start..stop-1 of (signs[0],) + rest, rest in itertools.product(signs, repeat=N-1) order."""
    digits = np.arange(start, stop)[:, None] // len(signs) ** np.arange(N - 2, -1, -1) % len(signs)
    patterns = np.empty((stop - start, N))
    patterns[:, 0] = signs[0]
    patterns[:, 1:] = np.asarray(signs, dtype=float)[digits]
    return patterns


def _exact_search(
    X: np.ndarray, N: int, signs: tuple, budget: int, solver_hint: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Best (support, sign pattern) pair by exhaustive enumeration.

    Supports come in itertools.combinations order, each with its sign
    patterns in itertools.product order and the first sign fixed at +1
    (w and -w tie). Ties go to the first pair, i.e. the lexicographically
    smallest support, then the first pattern. Returns the support, its
    pattern, the weighted column sum and its L1 norm.
    """
    n, p = X.shape
    _check_sparsity(p, N)
    n_configs = enum_configs(p, N, signed=len(signs) > 1)
    if n_configs > budget:
        raise EnumerationBudgetError(
            f"{n_configs} configurations exceed the enumeration budget {budget}; use {solver_hint} instead"
        )
    _require_finite(X)
    n_patterns = len(signs) ** (N - 1)
    # a chunk holds at most `pairs` (support, pattern) pairs, so its
    # (n, supports, patterns, N) product stays within 200_000 entries:
    # whole supports with all their patterns, or one support's patterns
    # in slices when they alone overflow the chunk (up to 2^19 at N = 20)
    pairs = max(1, 200_000 // max(n * N, 1))
    per_chunk = max(1, pairs // n_patterns)
    step = max(1, pairs // per_chunk)
    best_obj = -math.inf
    best = None
    combos = itertools.combinations(range(p), N)
    while chunk := list(itertools.islice(combos, per_chunk)):
        cols = X[:, np.array(chunk)]  # (n, c, N)
        for start in range(0, n_patterns, step):
            patterns = _sign_patterns(signs, N, start, min(start + step, n_patterns))
            sums = (cols[:, :, None, :] * patterns).sum(axis=3)  # (n, c, m)
            objs = np.abs(sums).sum(axis=0).ravel()
            k = int(np.argmax(objs))
            if objs[k] > best_obj:
                c, m = divmod(k, len(patterns))
                best_obj = float(objs[k])
                best = (chunk[c], patterns[m].copy(), sums[:, c, m].copy())
    support, pattern, running = best
    return np.asarray(support), pattern, running, best_obj


def _best_candidate(
    base: np.ndarray, X: np.ndarray, signs: tuple, blocked: list[int], buf: np.ndarray
) -> tuple[float, int, int]:
    """(value, column, sign) maximizing ||base + sign * x_j||_1 over unblocked j.

    Ties go to the first sign, then the lowest column. Each sign writes
    |base + X| or |base - X| into ``buf``, an n-by-p scratch array laid
    out like X (so the column sums reduce in the same order as over a
    fresh temporary), with no n-by-p copy of sign * X.
    """
    best = None
    for s in signs:
        (np.add if s > 0 else np.subtract)(base[:, None], X, out=buf)
        vals = np.abs(buf, out=buf).sum(axis=0)
        _require_finite(vals)
        vals[blocked] = -np.inf
        j = int(np.argmax(vals))
        if best is None or vals[j] > best[0]:
            best = (float(vals[j]), j, s)
    return best


def _greedy_search(
    X: np.ndarray, N: int, signs: tuple, restarts: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Forward selection plus best-improvement 1-swap search over (column, sign) picks.

    Restart 0 is the pure greedy run; each further restart seeds the
    first column at random with sign +1. A swap empties one slot and
    refills it from every column outside the other slots, so a signed
    search may refill it with the same column of the opposite sign. The
    best objective wins, ties going to the lowest restart index, so
    results are deterministic given the seed. Returns the sorted support,
    its signs (first one positive: w and -w tie), the weighted column sum
    and its L1 norm.
    """
    n, p = X.shape
    _check_sparsity(p, N)
    rng = np.random.default_rng(seed)
    buf = np.empty_like(X, dtype=float)
    firsts: list[int | None] = [None] + [int(rng.integers(p)) for _ in range(max(0, restarts - 1))]
    best = None
    for first in firsts:
        chosen: list[int] = []
        weights: list[int] = []
        running = np.zeros(n)
        if first is not None:
            chosen, weights = [first], [1]
            running = running + X[:, first]
        while len(chosen) < N:
            _, j, s = _best_candidate(running, X, signs, chosen, buf)
            chosen.append(j)
            weights.append(s)
            running = running + s * X[:, j]
        obj = _l1_objective(running)
        for _ in range(_MAX_SWEEPS):
            best_gain = 1e-9
            best_move = None
            for pos, i in enumerate(chosen):
                base = running - weights[pos] * X[:, i]
                val, j, s = _best_candidate(base, X, signs, chosen[:pos] + chosen[pos + 1 :], buf)
                if val - obj > best_gain:
                    best_gain = val - obj
                    best_move = (pos, j, s)
            if best_move is None:
                break
            pos, j, s = best_move
            running = running - weights[pos] * X[:, chosen[pos]] + s * X[:, j]
            chosen[pos], weights[pos] = j, s
            obj = _l1_objective(running)
        if best is None or obj > best[0] + 1e-12:
            best = (obj, chosen, weights, running)
    obj, chosen, weights, running = best
    order = np.argsort(chosen)
    support = np.asarray(chosen)[order]
    pattern = np.asarray(weights, dtype=float)[order]
    if pattern[0] < 0:
        pattern, running = -pattern, -running
    return support, pattern, running, obj


def sparse_aggregation_exact(
    X: np.ndarray, N: int, budget: int = DEFAULT_ENUM_BUDGET
) -> ClusterResult:
    """Globally optimal N-column aggregation by exhaustive enumeration.

    Ties go to the lexicographically smallest index set. Refuses to run
    when comb(p, N) exceeds ``budget``.
    """
    support, _, running, obj = _exact_search(X, N, (1,), budget, "sparse_aggregation_greedy")
    return ClusterResult(labels=_sgn(running), selected=support, objective=obj)


def sparse_aggregation_greedy(
    X: np.ndarray,
    N: int,
    restarts: int = 8,
    seed: int = 0,
) -> ClusterResult:
    """Forward selection plus 1-swap local search for the N-column objective.

    Restart 0 is the pure greedy run; each further restart seeds the
    first column at random. The best objective wins, ties going to the
    lowest restart index, so results are deterministic given the seed.
    """
    support, _, running, obj = _greedy_search(X, N, (1,), restarts, seed)
    return ClusterResult(labels=_sgn(running), selected=support, objective=obj)


def classical_pca(X: np.ndarray) -> ClusterResult:
    """Sign of the top left singular vector of the full matrix."""
    pair = leading_left_singular(X)
    return ClusterResult(labels=_sgn(pair.vector), singular=pair)


def if_pca(X: np.ndarray, q: float) -> ClusterResult:
    """Chi-square screen, then PCA clustering on the surviving columns.

    An empty screen falls back to classical PCA with fallback_used set.
    """
    return screened_pca(X, chi2_scores(X), q)


def screened_pca(X: np.ndarray, scores: np.ndarray, q: float) -> ClusterResult:
    """if_pca on known column scores ``scores = chi2_scores(X)``."""
    selected = select_features(scores, X.shape[1], q)
    if selected.size == 0:
        fallback = classical_pca(X)
        return ClusterResult(labels=fallback.labels, selected=selected, singular=fallback.singular, fallback_used=True)
    pair = leading_left_singular(X[:, selected])
    return ClusterResult(labels=_sgn(pair.vector), selected=selected, singular=pair)


def signed_sparse_aggregation(
    X: np.ndarray,
    N: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    greedy: bool = False,
    restarts: int = 8,
    seed: int = 0,
) -> ClusterResult:
    """Maximize ||X w||_1 over sign-valued N-sparse weight vectors w.

    Labels are the sign of X @ w. The weight vector doubles as a sign
    estimate of the feature effects (w and -w tie by symmetry; the
    returned one has its first nonzero weight positive). The exact
    solver evaluates comb(p, N) 2^(N-1) (support, pattern) pairs and is
    budget-capped by that count; ``greedy`` runs the same search as
    sparse_aggregation_greedy over both signs.
    """
    if greedy:
        support, pattern, running, obj = _greedy_search(X, N, (1, -1), restarts, seed)
    else:
        support, pattern, running, obj = _exact_search(
            X, N, (1, -1), budget, "signed_sparse_aggregation(greedy=True)"
        )
    w = np.zeros(X.shape[1])
    w[support] = pattern
    return ClusterResult(labels=_sgn(running), selected=support, objective=obj, mu_hat=w)


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
