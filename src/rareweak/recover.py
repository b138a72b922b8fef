"""Signal-support estimators.

Two families. In the less sparse regimes, cluster first and threshold
the label-weighted column means y = X' labels / sqrt(n) at the
universal level sqrt(2 log p). In the sparser regimes, go after the
support directly: either the N-column aggregation optimizer or the
chi-square screen. recover_signed_pca additionally estimates the sign
of each feature effect for the mixed-sign model.

The empirical losses reported elsewhere condition on the realized
support of each trial and average across trials; they estimate the
model-averaged error that the theory bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import classical_pca, simple_aggregation, sparse_aggregation_exact
from .spectral import chi2_scores, select_features

__all__ = [
    "RecoveryResult",
    "recover_sa_star",
    "recover_if_star",
    "recover_sa_N",
    "recover_if_q",
    "recover_signed_pca",
    "threshold_weighted_means",
    "signed_weighted_means",
]


@dataclass
class RecoveryResult:
    support: np.ndarray
    signs: np.ndarray | None = None


def threshold_weighted_means(X: np.ndarray, labels: np.ndarray) -> RecoveryResult:
    """Columns whose label-weighted mean y = X' labels / sqrt(n) has |y_j| >= sqrt(2 log p)."""
    n, p = X.shape
    y = X.T @ labels / math.sqrt(n)
    cut = math.sqrt(2 * math.log(p))
    return RecoveryResult(support=np.flatnonzero(np.abs(y) >= cut))


def recover_sa_star(X: np.ndarray) -> RecoveryResult:
    """Cluster by row-sum signs, then keep columns with |y_j| >= sqrt(2 log p)."""
    return threshold_weighted_means(X, simple_aggregation(X).labels)


def recover_if_star(X: np.ndarray) -> RecoveryResult:
    """Same thresholding rule, with labels from classical PCA."""
    return threshold_weighted_means(X, classical_pca(X).labels)


def recover_sa_N(X: np.ndarray, N: int) -> RecoveryResult:
    """Support of the exact best N-column aggregation (sparse_aggregation_exact)."""
    return RecoveryResult(support=sparse_aggregation_exact(X, N).selected)


def recover_if_q(X: np.ndarray, q: float) -> RecoveryResult:
    """Thresholded chi-square screen (same rule the clustering screen uses)."""
    return RecoveryResult(support=select_features(chi2_scores(X), q))


def signed_weighted_means(X: np.ndarray, labels: np.ndarray) -> RecoveryResult:
    """Signed support estimate from class labels.

    y = X' labels / sqrt(n), so noise coordinates are unit scale;
    feature j enters with sign sgn(y_j) whenever |y_j| > 2 sqrt(log p).
    """
    n, p = X.shape
    y = X.T @ labels / math.sqrt(n)
    cut = 2.0 * math.sqrt(math.log(p))
    keep = np.abs(y) > cut
    signs = np.where(keep, np.sign(y), 0.0)
    return RecoveryResult(support=np.flatnonzero(keep), signs=signs)


def recover_signed_pca(X: np.ndarray) -> RecoveryResult:
    """Signed support estimate from PCA labels (see signed_weighted_means)."""
    return signed_weighted_means(X, classical_pca(X).labels)
