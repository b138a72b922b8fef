"""Global tests of "pure noise" against the rare/weak signal model.

Three statistics, each with a fixed rejection threshold (no data-driven
tuning):

* simple_agg_test      - chi-square of the column-average vector,
  standardized; rejects when it clears 2 sqrt(2 log p).
* sparse_agg_test      - scaled L1 value of the best N-column
  aggregation, against a folded-normal concentration level.
* higher_criticism_test - sorted column P-values compared with uniform
  quantiles, maximized over the lower half order statistics.

All three depend on the data only through column norms or column sums,
so they are invariant under row permutations. HC reads its column
norms through chi2_scores, which makes no n-by-p temporary, and
evaluates the chi-square tail only for the half of the columns whose
P-values it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import _require_finite, sparse_aggregation_exact
from .spectral import _score_tail, _standardize, chi2_scores

__all__ = [
    "TestOutcome",
    "simple_agg_test",
    "sparse_agg_test",
    "sparse_agg_outcome",
    "higher_criticism_test",
    "higher_criticism_outcome",
    "column_pvalues",
]


@dataclass
class TestOutcome:
    statistic: float
    threshold: float

    @property
    def reject(self) -> bool:
        return self.statistic >= self.threshold


def simple_agg_test(X: np.ndarray) -> TestOutcome:
    """Standardized squared norm of the column average.

    xbar = (1/p) sum_j x_j has null law N(0, I_n / p), so
    p ||xbar||^2 is chi-square with n degrees of freedom; the statistic
    (p ||xbar||^2 - n) / sqrt(2n) is compared with 2 sqrt(2 log p).
    """
    n, p = X.shape
    xbar = X.mean(axis=1)
    _require_finite(xbar)
    return TestOutcome(_standardize(p * float(xbar @ xbar), n), 2.0 * math.sqrt(2 * math.log(p)))


def sparse_agg_test(X: np.ndarray, N: int) -> TestOutcome:
    """Exact best N-column aggregation value against its null concentration level.

    The statistic is N^(-1/2) max_S ||sum_{j in S} x_j||_1; under noise
    each candidate behaves like a sum of folded normals with mean
    sqrt(2/pi) n, and the threshold adds the union-bound deviation
    sqrt(2 n (N + 2) log p).
    """
    return sparse_agg_outcome(sparse_aggregation_exact(X, N).objective, *X.shape, N)


def sparse_agg_outcome(objective: float, n: int, p: int, N: int) -> TestOutcome:
    """sparse_agg_test's verdict on a known best N-column L1 value of an n-by-p X."""
    stat = objective / math.sqrt(N)
    threshold = math.sqrt(2 / math.pi) * n + math.sqrt(2 * n * (N + 2) * math.log(p))
    return TestOutcome(stat, threshold)


def column_pvalues(X: np.ndarray) -> np.ndarray:
    """Per-column P-values of the standardized squared norms.

    pi_j = P(chi2_n >= n + sqrt(2n) Q(j)), clipped below at the
    distribution's support (scores so negative that the quantile would
    be below zero get P-value 1). A NaN or inf entry raises ValueError:
    its column's P-value would be 0 or undefined.
    """
    Q = chi2_scores(X)
    _require_finite(Q)
    return _score_tail(Q, X.shape[0])


def _hc_max(ps: np.ndarray, p: int) -> float:
    """Higher-criticism maximum given ps, the p // 2 smallest of p P-values, sorted.

    A P-value of exactly 0 is a tail that underflowed: it counts as the
    smallest positive double, so its term is the strongest. Terms whose
    sorted P-value is exactly 1 are skipped. Returns -inf if every term
    is skipped.
    """
    i = np.arange(1, ps.size + 1)
    ps = np.where(ps == 0.0, np.nextafter(0.0, 1.0), ps)
    ok = ps < 1.0
    if not ok.any():
        return -math.inf
    vals = math.sqrt(p) * (i[ok] / p - ps[ok]) / np.sqrt(ps[ok] * (1.0 - ps[ok]))
    return float(vals.max())


def higher_criticism_test(X: np.ndarray) -> TestOutcome:
    """HC of the column chi-square P-values versus 2 sqrt(2 log log p)."""
    return higher_criticism_outcome(chi2_scores(X), X.shape[0])


def higher_criticism_outcome(scores: np.ndarray, n: int) -> TestOutcome:
    """higher_criticism_test on known column scores ``scores = chi2_scores(X)`` of an n-row X.

    A P-value falls as its score rises, so the p // 2 smallest P-values
    that HC reads belong to the p // 2 largest scores: only those get a
    chi-square tail, and the statistic is HC of all p column_pvalues(X).
    """
    p = scores.size
    if p < 8:
        raise ValueError("need p >= 8 so that log log p is positive")
    _require_finite(scores)
    top = np.partition(scores, p - p // 2)[p - p // 2 :]
    stat = _hc_max(np.sort(_score_tail(top, n)), p)
    return TestOutcome(stat, 2.0 * math.sqrt(2 * math.log(math.log(p))))
