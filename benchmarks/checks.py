"""Independent oracles for the benchmark's output checks.

Every function here recomputes a result without going through the
package (numpy, scipy and brute force only) and compares it with what
the package reported. Each returns a list of failure messages; an empty
list means the output passed. They take plain values, so the self-test
can hand them corrupted results and see them fail.

scipy is imported inside the functions that use it: the set-up probe
imports this module, and scipy's import time is not the package's.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

MAD_TO_SD = 0.6745
PVALUE_RTOL = 1e-9
# Power iteration with a 2000-step cap leaves the Rayleigh quotient within
# about 1/(2 e k) of the top eigenvalue even on a flat spectrum, so the
# singular value matches the dense SVD to well under this tolerance.
SINGULAR_RTOL = 1e-4


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def sign_labels(v: np.ndarray) -> np.ndarray:
    """sgn with sgn(0) = +1, the package's label convention."""
    return np.where(np.asarray(v) >= 0, 1, -1)


def recovery_hamming(est: np.ndarray, truth: np.ndarray, expected_signals: float) -> float:
    return len(set(est.tolist()) ^ set(truth.tolist())) / expected_signals


# ---------------------------------------------------------------- phase-grid


def criterion1_rule(ratio_errors: dict) -> list[str]:
    """simple_agg error per strength ratio against criterion 1's bars.

    ``ratio_errors`` maps each ratio to the per-trial errors of every
    beta at that ratio. Pooling over beta keeps the bar a property of the
    method rather than of the draw: at beta=0.21, ratio=1.5 the mean error
    is 0.383 with a per-trial spread of 0.055 (200 reps), so a per-cell
    bar of 0.35 needs about 40 reps per cell to hold reliably.
    """
    bad = []
    for ratio, errs in sorted(ratio_errors.items()):
        mean = float(np.mean(errs))
        if ratio <= 0.8 and not mean < 0.10:
            bad.append(f"simple_agg error {mean:.3f} at ratio {ratio}; want < 0.10")
        if ratio >= 1.25 and not mean > 0.35:
            bad.append(f"simple_agg error {mean:.3f} at ratio {ratio}; want > 0.35")
    return bad


def same_body(json_a: dict, json_b: dict, what: str) -> list[str]:
    """Two sweep payloads must serialize identically once meta is dropped."""
    a = {k: v for k, v in json_a.items() if k != "meta"}
    b = {k: v for k, v in json_b.items() if k != "meta"}
    if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
        return [f"{what}: serial and 2-worker sweep bodies differ outside meta"]
    return []


def singular_value(X: np.ndarray, reported: float) -> list[str]:
    s0 = float(np.linalg.svd(X, compute_uv=False)[0])
    if not _close(reported, s0, SINGULAR_RTOL):
        return [f"classical_pca singular value {reported!r} != dense SVD {s0!r}"]
    return []


def leading_vector(X: np.ndarray) -> np.ndarray:
    """Dense-SVD top left singular vector, first nonzero entry positive (the package's sign convention)."""
    u = np.linalg.svd(X, full_matrices=False)[0][:, 0]
    return -u if u[np.flatnonzero(u)[0]] < 0 else u


def threshold_support(X: np.ndarray, labels: np.ndarray, cut: float, strict: bool) -> np.ndarray:
    """Columns whose |X.T @ labels| / sqrt(n) clears ``cut``."""
    y = np.abs(X.T @ labels.astype(float)) / math.sqrt(X.shape[0])
    return np.flatnonzero(y > cut if strict else y >= cut)


def recovery_entry(name: str, entry: dict, support: np.ndarray, truth: np.ndarray, expected: float) -> list[str]:
    """A sweep's recovery entry (reps=1) against an independent support."""
    bad = []
    size = entry["support_size"]["mean"]
    if size != support.size:
        bad.append(f"{name}: support size {size} != independent {support.size}")
    ham = recovery_hamming(support, truth, expected)
    if not _close(entry["hamming"]["mean"], ham, 1e-12):
        bad.append(f"{name}: recovery hamming {entry['hamming']['mean']} != independent {ham}")
    return bad


# ------------------------------------------------------------ screen-large-p


def column_square_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", X, X)


def column_pvalues(X: np.ndarray, reported: np.ndarray) -> list[str]:
    """P(chi2_n >= ||x_j||^2) from scipy against the package's values."""
    from scipy import stats

    ref = stats.chi2.sf(column_square_norms(X), X.shape[0])
    reported = np.asarray(reported, dtype=float)
    if reported.shape != ref.shape:
        return [f"column_pvalues shape {reported.shape} != {ref.shape}"]
    # below ~1e-290 the package flushes to 0 where scipy keeps denormals
    tiny = ref < 1e-290
    rel = np.abs(reported - ref) / np.maximum(ref, 1e-300)
    worst = float(np.max(np.where(tiny, 0.0, rel)))
    if worst > PVALUE_RTOL or np.any(np.abs(reported[tiny] - ref[tiny]) > 1e-290):
        return [f"column_pvalues differ from scipy.stats.chi2.sf by relative {worst:.2e}"]
    return []


def hc_statistic(pvalues: np.ndarray) -> float:
    """Higher criticism over the lower half of the sorted P-values."""
    pv = np.sort(pvalues)
    p = pv.size
    best = -math.inf
    for i in range(1, p // 2 + 1):
        pi = pv[i - 1]
        if 0.0 < pi < 1.0:
            best = max(best, math.sqrt(p) * (i / p - pi) / math.sqrt(pi * (1.0 - pi)))
    return best


def hc_matches(X: np.ndarray, reported: float) -> list[str]:
    from scipy import stats

    ref = hc_statistic(stats.chi2.sf(column_square_norms(X), X.shape[0]))
    if not _close(reported, ref, 1e-8):
        return [f"HC statistic {reported!r} != scipy recomputation {ref!r}"]
    return []


def screen_selection(X: np.ndarray, q: float) -> np.ndarray:
    """Columns with standardized squared norm >= sqrt(2 q log p)."""
    n, p = X.shape
    scores = (column_square_norms(X) - n) / math.sqrt(2 * n)
    return np.flatnonzero(scores >= math.sqrt(2 * q * math.log(p)))


def agg_chi2(X: np.ndarray, reported: float) -> list[str]:
    """(p ||xbar||^2 - n) / sqrt(2n) with xbar the row means."""
    n, p = X.shape
    xbar = X.sum(axis=1) / p
    ref = (p * float(np.dot(xbar, xbar)) - n) / math.sqrt(2 * n)
    if not _close(reported, ref, 1e-9):
        return [f"agg_chi2 statistic {reported!r} != closed form {ref!r}"]
    return []


# -------------------------------------------------------- aggregation-search


def l1_objective(X: np.ndarray, weights: np.ndarray) -> float:
    return float(np.abs(X @ weights).sum())


def objective_matches(X: np.ndarray, weights: np.ndarray, reported: float, what: str) -> list[str]:
    ref = l1_objective(X, weights)
    if not _close(reported, ref, 1e-10):
        return [f"{what}: objective {reported!r} != recomputed L1 norm {ref!r}"]
    return []


def signed_weights(w: np.ndarray, N: int) -> list[str]:
    nz = w[w != 0]
    if nz.size != N or not np.all(np.abs(nz) == 1.0):
        return [f"signed weights: {nz.size} nonzero entries with values {sorted(set(nz.tolist()))}; want {N} entries of +-1"]
    return []


def one_swap_optimal(X: np.ndarray, weights: np.ndarray, signs: tuple, what: str) -> list[str]:
    """No exchange of one chosen column for another (with any allowed sign) helps.

    For the signed objective the vacated slot may also be refilled by the
    same column with the opposite sign.
    """
    chosen = np.flatnonzero(weights)
    obj = l1_objective(X, weights)
    running = X @ weights
    for i in chosen:
        base = running - weights[i] * X[:, i]
        others = np.setdiff1d(chosen, [i])
        for s in signs:
            vals = np.abs(base[:, None] + s * X).sum(axis=0)
            vals[others] = -np.inf
            j = int(np.argmax(vals))
            if vals[j] > obj + 1e-9:
                return [f"{what}: swapping column {i} for {s:+d}*column {j} raises the objective "
                        f"from {obj:.6f} to {vals[j]:.6f}"]
    return []


def exact_unsigned(X: np.ndarray, N: int) -> float:
    """Best N-column L1 aggregation by full enumeration."""
    best = -math.inf
    for support in itertools.combinations(range(X.shape[1]), N):
        best = max(best, float(np.abs(X[:, support].sum(axis=1)).sum()))
    return best


def exact_signed(X: np.ndarray, N: int) -> float:
    """Best sign-weighted N-column L1 aggregation by full enumeration."""
    patterns = np.array([(1,) + rest for rest in itertools.product((1, -1), repeat=N - 1)], dtype=float).T
    best = -math.inf
    for support in itertools.combinations(range(X.shape[1]), N):
        best = max(best, float(np.abs(X[:, support] @ patterns).sum(axis=0).max()))
    return best


def greedy_vs_exact(pairs: list[tuple[float, float, bool]], bar: float = 0.9) -> list[str]:
    """(greedy objective, exact objective, same support) per small instance."""
    bad = [f"greedy objective {g!r} beats exact {e!r}" for g, e, _ in pairs if g > e + 1e-9]
    agree = sum(same for _, _, same in pairs)
    if agree < bar * len(pairs):
        bad.append(f"greedy matches exact on {agree}/{len(pairs)} small instances; want >= {bar:.0%}")
    return bad


# ---------------------------------------------------------- applied-pipeline


def mad_normalize(X: np.ndarray) -> np.ndarray:
    med = np.median(X, axis=0)
    mad = np.median(np.abs(X - med), axis=0)
    keep = mad > 0
    return MAD_TO_SD * (X[:, keep] - X[:, keep].mean(axis=0)) / mad[keep]


def two_sided_scores(Xs: np.ndarray) -> np.ndarray:
    n = Xs.shape[0]
    return np.abs(np.einsum("ij,ij->j", Xs, Xs) - n) / math.sqrt(2 * n)


def bh_count(pvalues: np.ndarray, level: float) -> int:
    """Benjamini-Hochberg step-up rejection count."""
    pv = np.sort(pvalues)
    ok = np.flatnonzero(pv <= level * np.arange(1, pv.size + 1) / pv.size)
    return 0 if ok.size == 0 else int(ok[-1]) + 1


def fdr_selection(scores: np.ndarray, n: int, level: float) -> np.ndarray:
    from scipy import stats

    diff = scores * math.sqrt(2 * n)
    pv = np.minimum(stats.chi2.sf(n + diff, n) + stats.chi2.cdf(np.maximum(n - diff, 0.0), n), 1.0)
    order = np.argsort(pv, kind="stable")
    return np.sort(order[: bh_count(pv, level)])


def best_split_errors(Xs: np.ndarray, selected: np.ndarray, truth: np.ndarray) -> int:
    """Errors of the brute-force best 2-means split of the dense-SVD leading vector."""
    sub = Xs if selected.size == 0 else Xs[:, selected]
    u = np.linalg.svd(sub, full_matrices=False)[0][:, 0]
    order = np.argsort(u, kind="stable")
    s = u[order]
    best, split = math.inf, 0
    for k in range(1, s.size):
        cost = float(((s[:k] - s[:k].mean()) ** 2).sum() + ((s[k:] - s[k:].mean()) ** 2).sum())
        if cost < best:
            best, split = cost, k
    pred = np.ones(s.size, dtype=int)
    pred[order[:split]] = -1
    wrong = int(np.sum(pred != truth))
    return min(wrong, truth.size - wrong)


def pipeline_row(what: str, row: dict, selected: np.ndarray, errors: int) -> list[str]:
    bad = []
    if row["n_selected"] != selected.size:
        bad.append(f"{what}: {row['n_selected']} features selected; independent screen gives {selected.size}")
    if row["errors"] != errors:
        bad.append(f"{what}: {row['errors']} errors; dense-SVD best split gives {errors}")
    return bad
