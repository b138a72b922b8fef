"""Loss functions for clustering, support recovery, and testing.

Clustering error is the label mismatch rate minimized over the global
flip (the only nontrivial relabeling with two classes). Recovery error
is the symmetric set difference against the true support, normalized by
the calibrated expected signal count rather than the realized one.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hamming_clustering",
    "hamming_recovery",
    "hamming_recovery_signed",
    "cos_angle",
    "empirical_test_error",
    "wilson_interval",
]

Z95 = 1.959964  # two-sided 95% standard normal quantile


def hamming_clustering(est: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of mismatched labels, minimized over the global flip."""
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {truth.shape}")
    if not (np.all(np.isin(est, (-1, 1))) and np.all(np.isin(truth, (-1, 1)))):
        raise ValueError("labels must be +-1")
    mism = int(np.sum(est != truth))
    return min(mism, est.size - mism) / est.size


def hamming_recovery(est_support, true_support, expected_signals: float) -> float:
    """|est symmetric-difference truth| / expected signal count."""
    if expected_signals <= 0:
        raise ValueError("expected_signals must be positive")
    est = set(np.asarray(est_support, dtype=int).tolist())
    true = set(np.asarray(true_support, dtype=int).tolist())
    return len(est ^ true) / expected_signals


def hamming_recovery_signed(est_signs, true_mu, expected_signals: float) -> float:
    """Count of sign mismatches sgn(est) != sgn(truth), normalized as above."""
    if expected_signals <= 0:
        raise ValueError("expected_signals must be positive")
    est = np.sign(np.asarray(est_signs, dtype=float))
    true = np.sign(np.asarray(true_mu, dtype=float))
    if est.shape != true.shape:
        raise ValueError("length mismatch")
    return int(np.sum(est != true)) / expected_signals


def cos_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Absolute cosine of the angle between two finite nonzero vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("cos_angle needs finite vectors")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ValueError("cos_angle needs nonzero vectors")
    return min(1.0, abs(float(x @ y)) / (nx * ny))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def empirical_test_error(null_decisions, alt_decisions):
    """Type I rate, type II rate, their sum, and Wilson 95% intervals.

    ``null_decisions`` and ``alt_decisions`` are reject/accept booleans
    from batches run under the null and the alternative.
    """
    null_d = np.asarray(null_decisions, dtype=bool)
    alt_d = np.asarray(alt_decisions, dtype=bool)
    if null_d.size == 0 or alt_d.size == 0:
        raise ValueError("both decision batches must be nonempty")
    type1 = float(null_d.mean())
    type2 = float((~alt_d).mean())
    return {
        "type1": type1,
        "type2": type2,
        "sum": type1 + type2,
        "type1_ci": wilson_interval(int(null_d.sum()), null_d.size),
        "type2_ci": wilson_interval(int((~alt_d).sum()), alt_d.size),
    }
