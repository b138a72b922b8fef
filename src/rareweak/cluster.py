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
restarts. The greedy solver scores candidates in batches of bases: a
forward step scores one running sum per restart, and a swap sweep the N
sums of one restart with one slot emptied each. With t = sgn(b),
|b + s x| = |b| + s t x + 2 max(0, -|b| - s t x), so every candidate's
value comes from one product T^T X plus a correction that is nonzero
only on rows where |b_i| is below that row's largest |x_ij|. Those rows
are gathered whole bases at a time, at most n rows per chunk, into one
n-by-p buffer kept for the search.

Neither solver multiplies by a sign. Each builds one pre-negated stack
of X and -X (2 n p doubles, twice the size of X) and reads -x by index
instead: the exact solver picks column j + p for a weight of -1, and the
greedy solver gathers row i + n when -s t_i < 0. Negation is exact, so
the values are those of the multiply.

Each ClusterResult keeps the n-vector whose signs are its labels as
``score``: the row sums, the leading left singular vector, or the
chosen columns' sum, X[:, support].sum(axis=1) or X @ w, formed afresh
from X read C-ordered, so that X's memory layout cannot change its bits.

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

DEFAULT_ENUM_BUDGET = 2_000_000  # most (support, sign pattern) pairs an exact search enumerates
_MAX_SWEEPS = 50  # cap on the greedy search's 1-swap improvement passes per restart


class EnumerationBudgetError(ValueError):
    """Raised when exact subset enumeration would exceed its budget."""


@dataclass
class ClusterResult:
    """A method's labels are the signs of ``score`` (see the module docstring)."""

    score: np.ndarray
    selected: np.ndarray | None = None
    singular: SingularPair | None = None
    fallback_used: bool = False
    objective: float | None = None
    mu_hat: np.ndarray | None = None

    @property
    def labels(self) -> np.ndarray:
        return _sgn(self.score)


def _sgn(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, 1, -1).astype(np.int64)


def _require_finite(values: np.ndarray) -> None:
    """Reject X through ``values``, X itself or a reduction of it that any NaN or inf entry reaches."""
    if not np.isfinite(values).all():
        raise ValueError("X must be finite")


def _checked_row_max(X: np.ndarray, N: int) -> np.ndarray:
    """max_j |x_ij| of each row of X, once X is known to be finite and its N-column sums to fit.

    With S the sum of these row maxima, every sum of at most N signed
    columns, its L1 norm and every term of the greedy scorer are at most
    3 N S in size; X is rejected with ValueError, before any of them is
    formed, when 4 N S is not finite.
    """
    _require_finite(X)
    row_max = np.maximum(X.max(axis=1), -X.min(axis=1))
    with np.errstate(over="ignore"):
        bound = 4.0 * N * row_max.sum()
    if not np.isfinite(bound):
        raise ValueError(f"sums of {N} columns of X may overflow: entries too large")
    return row_max


def default_sparsity(expected_signals: float) -> int:
    """Ceiling of the expected signal count; the canonical choice of N."""
    return max(1, math.ceil(expected_signals))


def _check_sparsity(p: int, N: int) -> None:
    if not 1 <= N <= p:
        raise ValueError(f"N must lie in [1, {p}], got {N}")


def enum_configs(p: int, N: int, signed: bool = False) -> int:
    """Budget charge of an exact N-of-p search: the (support, sign pattern)
    pairs it evaluates, C(p, N), times 2^(N-1) when signed (the first sign
    is fixed, since w and -w tie). N outside [1, p] raises ValueError."""
    _check_sparsity(p, N)
    return math.comb(p, N) * (2 ** (N - 1) if signed else 1)


def _over_budget(p: int, N: int, signed: bool = False) -> bool:
    """Whether an exact N-of-p search would enumerate more pairs than DEFAULT_ENUM_BUDGET."""
    return enum_configs(p, N, signed) > DEFAULT_ENUM_BUDGET


def simple_aggregation(X: np.ndarray) -> ClusterResult:
    """Sign of the row sums of X."""
    sums = np.sum(X, axis=1)
    _require_finite(sums)
    return ClusterResult(score=sums)


def _l1_objective(running: np.ndarray) -> float:
    return float(np.abs(running).sum())


def _sign_patterns(signs: tuple, N: int, start: int, stop: int) -> np.ndarray:
    """Patterns start..stop-1 of (signs[0],) + rest, rest in itertools.product(signs, repeat=N-1) order."""
    digits = np.arange(start, stop)[:, None] // len(signs) ** np.arange(N - 2, -1, -1) % len(signs)
    patterns = np.empty((stop - start, N))
    patterns[:, 0] = signs[0]
    patterns[:, 1:] = np.asarray(signs, dtype=float)[digits]
    return patterns


def _exact_search(X: np.ndarray, N: int, signs: tuple, solver_hint: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Best (support, sign pattern) pair by exhaustive enumeration.

    Supports come in itertools.combinations order, each with its sign
    patterns in itertools.product order and the first sign fixed at +1
    (w and -w tie). Ties go to the first pair, i.e. the lexicographically
    smallest support, then the first pattern. Returns the support, its
    pattern and the L1 norm of the weighted column sum.

    The signed columns are read from the stack [X, -X] (n by 2p, 2 n p
    doubles): the column of weight -1 on j is column j + p.
    """
    n, p = X.shape
    signed = len(signs) > 1
    if _over_budget(p, N, signed):
        raise EnumerationBudgetError(
            f"{enum_configs(p, N, signed)} configurations exceed the enumeration budget {DEFAULT_ENUM_BUDGET}; "
            f"use {solver_hint} instead"
        )
    _checked_row_max(X, N)
    XS = np.concatenate([X, -X], axis=1)
    n_patterns = len(signs) ** (N - 1)
    # a chunk holds at most `pairs` (support, pattern) pairs, so its
    # (n, supports, patterns, N) block stays within 200_000 entries:
    # whole supports with all their patterns, or one support's patterns
    # in slices when they alone overflow the chunk (up to 2^19 at N = 20)
    pairs = max(1, 200_000 // max(n * N, 1))
    per_chunk = max(1, pairs // n_patterns)
    step = max(1, pairs // per_chunk)
    best_obj = -math.inf
    best = None
    # the supports in itertools.combinations order, flattened: per_chunk of them are per_chunk * N indices
    indices = itertools.chain.from_iterable(itertools.combinations(range(p), N))
    while (chunk := np.fromiter(itertools.islice(indices, per_chunk * N), dtype=np.intp).reshape(-1, N)).size:
        for start in range(0, n_patterns, step):
            patterns = _sign_patterns(signs, N, start, min(start + step, n_patterns))
            sums = XS[:, chunk[:, None, :] + p * (patterns < 0)].sum(axis=3)  # (n, c, m)
            objs = np.abs(sums).sum(axis=0).ravel()
            k = int(np.argmax(objs))
            if objs[k] > best_obj:
                c, m = divmod(k, len(patterns))
                best_obj = float(objs[k])
                best = (chunk[c].copy(), patterns[m].copy())
    support, pattern = best
    return support, pattern, best_obj


def _candidate_values(
    B: np.ndarray, XX: np.ndarray, signs: tuple, row_max: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """||B[:, k] + s x_j||_1 for every base k, sign s and column j, as an (m, len(signs), p) array.

    ``XX`` is the C-ordered stack [X; -X] (2n by p, 2 n p doubles). With
    a = |b| and t = sgn(b), |b + s x| = a + s t x + 2 max(0, -a - s t x).
    Summed over rows, the first two terms are one product T^T X for all
    bases. The last term is nonzero only on rows where a is below
    ``row_max``, the largest |x_ij| of the row; there it is
    2 max(-s t x, a) - 2a. Only those rows are gathered, into ``buf``
    (n by p), a chunk of whole bases holding at most n rows at a time.
    Row i of -s t x is gathered as row i of XX when -s t_i > 0 and as
    row n + i otherwise, so no sign is multiplied in.
    """
    n, m = B.shape
    A = np.abs(B)
    T = np.where(B >= 0, 1.0, -1.0)
    need = A < row_max[:, None]
    # vals[k, s] first sums max(-s t x, a) over the needed rows of base k
    vals = np.empty((m, len(signs), XX.shape[1]))
    ends = np.cumsum(need.sum(axis=0))
    lo = 0
    while lo < m:
        # as many bases as fit in n gathered rows; one base needs at most n
        hi = int(np.searchsorted(ends, ends[lo] - need[:, lo].sum() + n, side="right"))
        ks, rows = np.nonzero(need[:, lo:hi].T)  # rows grouped by base
        ks += lo
        a = A[rows, ks][:, None]
        up = B[rows, ks] >= 0  # t = +1
        bounds = np.searchsorted(ks, np.arange(lo, hi + 1))
        gathered = buf[: rows.size]
        for si, s in enumerate(signs):
            # row i of -s t x is row i of XX where s t_i < 0 and row n + i where s t_i > 0;
            # the rows are in range, and mode="clip" lets take write to ``out`` without a temporary
            np.take(XX, rows + n * (up == (s > 0)), axis=0, out=gathered, mode="clip")
            np.maximum(gathered, a, out=gathered)
            for k in range(lo, hi):
                np.add.reduce(gathered[bounds[k - lo] : bounds[k - lo + 1]], axis=0, out=vals[k, si])
        lo = hi
    vals *= 2
    vals += np.where(need, -A, A).sum(axis=0)[:, None, None]  # a, less 2a on the needed rows
    linear = T.T @ XX[:n]
    for si, s in enumerate(signs):
        (np.add if s > 0 else np.subtract)(vals[:, si], linear, out=vals[:, si])
    return vals


def _best_moves(vals: np.ndarray, blocked: np.ndarray, signs: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per base k, the largest vals[k, s, j] with blocked[k, j] False: (values, columns, signs).

    Ties go to the first sign, then the lowest column.
    """
    m, _, p = vals.shape
    np.copyto(vals, -np.inf, where=blocked[:, None, :])
    flat = vals.reshape(m, -1)
    best = flat.argmax(axis=1)
    sign_index, cols = np.divmod(best, p)
    return flat[np.arange(m), best], cols, np.asarray(signs)[sign_index]


def _greedy_search(
    X: np.ndarray, N: int, signs: tuple, restarts: int, seed: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Forward selection plus best-improvement 1-swap search over (column, sign) picks.

    Restart 0 is the pure greedy run; each further restart seeds the
    first column at random with sign +1. A swap empties one slot and
    refills it from every column outside the other slots, so a signed
    search may refill it with the same column of the opposite sign. The
    best objective wins, ties going to the lowest restart index, so
    results are deterministic given the seed. Returns the sorted support,
    its signs (first one positive: w and -w tie) and the L1 norm of the
    weighted column sum.

    The restarts' forward steps are scored together, one base per
    restart; each restart's swap sweeps score its N slots together. The
    scorer reads the stack [X; -X], built once per search: 2 n p doubles
    besides the n-by-p gather buffer, 1.4 MB at n = 45, p = 2000 and
    506 MB at n = 316, p = 10^5. restarts below 1 raise ValueError.
    """
    n, p = X.shape
    _check_sparsity(p, N)
    if restarts < 1:
        raise ValueError(f"restarts must be an integer of at least 1, got {restarts}")
    X = np.ascontiguousarray(X, dtype=float)
    row_max = _checked_row_max(X, N)
    XX = np.concatenate([X, -X])
    buf = np.empty((n, p))
    rng = np.random.default_rng(seed)
    firsts = [None] + [int(rng.integers(p)) for _ in range(restarts - 1)]
    chosen = [[] if first is None else [first] for first in firsts]
    weights = [[] if first is None else [1] for first in firsts]
    running = [np.zeros(n) if first is None else np.zeros(n) + X[:, first] for first in firsts]
    while growing := [r for r in range(len(firsts)) if len(chosen[r]) < N]:
        blocked = np.zeros((len(growing), p), dtype=bool)
        for k, r in enumerate(growing):
            blocked[k, chosen[r]] = True
        bases = np.stack([running[r] for r in growing], axis=1)
        _, cols, sgns = _best_moves(_candidate_values(bases, XX, signs, row_max, buf), blocked, signs)
        for r, j, s in zip(growing, cols.tolist(), sgns.tolist()):
            chosen[r].append(j)
            weights[r].append(s)
            running[r] = running[r] + s * X[:, j]
    best = None
    for r in range(len(firsts)):
        obj = _l1_objective(running[r])
        for _ in range(_MAX_SWEEPS):
            # base k is the running sum with slot k emptied; it may refill
            # from any column outside the other slots
            bases = running[r][:, None] - X[:, chosen[r]] * np.asarray(weights[r])
            blocked = np.zeros((N, p), dtype=bool)
            blocked[:, chosen[r]] = True
            blocked[np.arange(N), chosen[r]] = False
            vals, cols, sgns = _best_moves(_candidate_values(bases, XX, signs, row_max, buf), blocked, signs)
            pos = int(np.argmax(vals))  # the first slot with the largest gain
            if vals[pos] - obj <= 1e-9:
                break
            j, s = int(cols[pos]), int(sgns[pos])
            running[r] = running[r] - weights[r][pos] * X[:, chosen[r][pos]] + s * X[:, j]
            chosen[r][pos], weights[r][pos] = j, s
            obj = _l1_objective(running[r])
        if best is None or obj > best[0] + 1e-12:
            best = (obj, chosen[r], weights[r])
    obj, chosen, weights = best
    order = np.argsort(chosen)
    pattern = np.asarray(weights, dtype=float)[order]
    if pattern[0] < 0:
        pattern = -pattern
    return np.asarray(chosen)[order], pattern, obj


def sparse_aggregation_exact(X: np.ndarray, N: int) -> ClusterResult:
    """Globally optimal N-column aggregation by exhaustive enumeration.

    Ties go to the lexicographically smallest index set. Refuses to run
    when comb(p, N) exceeds DEFAULT_ENUM_BUDGET.
    """
    X = np.ascontiguousarray(X, dtype=float)
    support, _, obj = _exact_search(X, N, (1,), "sparse_aggregation_greedy")
    return ClusterResult(score=X[:, support].sum(axis=1), selected=support, objective=obj)


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
    X = np.ascontiguousarray(X, dtype=float)
    support, _, obj = _greedy_search(X, N, (1,), restarts, seed)
    return ClusterResult(score=X[:, support].sum(axis=1), selected=support, objective=obj)


def classical_pca(X: np.ndarray) -> ClusterResult:
    """Sign of the top left singular vector of the full matrix."""
    pair = leading_left_singular(X)
    return ClusterResult(score=pair.vector, singular=pair)


def if_pca(X: np.ndarray, q: float) -> ClusterResult:
    """Chi-square screen, then PCA clustering on the surviving columns (see screened_pca)."""
    return screened_pca(X, select_features(chi2_scores(X), q))


def screened_pca(X: np.ndarray, selected: np.ndarray) -> ClusterResult:
    """PCA clustering on the columns ``selected`` of X; an empty selection
    falls back to classical PCA on every column, with fallback_used set."""
    fallback = selected.size == 0
    pair = leading_left_singular(X if fallback else X[:, selected])
    return ClusterResult(score=pair.vector, selected=selected, singular=pair, fallback_used=fallback)


def signed_sparse_aggregation(
    X: np.ndarray,
    N: int,
    greedy: bool = False,
    restarts: int = 8,
    seed: int = 0,
) -> ClusterResult:
    """Maximize ||X w||_1 over sign-valued N-sparse weight vectors w.

    Labels are the sign of X @ w. The weight vector doubles as a sign
    estimate of the feature effects (w and -w tie by symmetry; the
    returned one has its first nonzero weight positive). The exact
    solver evaluates comb(p, N) 2^(N-1) (support, pattern) pairs and
    refuses to run when that count exceeds DEFAULT_ENUM_BUDGET;
    ``greedy`` runs the same search as sparse_aggregation_greedy over
    both signs.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if greedy:
        support, pattern, obj = _greedy_search(X, N, (1, -1), restarts, seed)
    else:
        support, pattern, obj = _exact_search(X, N, (1, -1), "signed_sparse_aggregation(greedy=True)")
    w = np.zeros(X.shape[1])
    w[support] = pattern
    return ClusterResult(score=X @ w, selected=support, objective=obj, mu_hat=w)


def kmeans_1d_two(values: np.ndarray) -> np.ndarray:
    """Exact two-cluster k-means on scalars via a sorted prefix scan.

    The optimal two-cluster partition of points on a line is a split of
    the sorted order, so scanning all n-1 splits with prefix sums finds
    the global optimum in O(n log n). The lower cluster is labeled -1,
    the upper +1; ties in the objective go to the smallest split index.
    Constant input collapses to a single all-+1 cluster. A NaN or inf
    value raises ValueError.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
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
