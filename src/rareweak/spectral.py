"""Column screening and leading-singular-vector machinery.

The screen keeps the columns whose standardized squared norm
Q(j) = (||x_j||^2 - n) / sqrt(2n) clears sqrt(2 q log p). The cluster
direction is then read off the top left singular vector of the
surviving submatrix, computed by a dense symmetric eigendecomposition
of the small n-by-n Gram matrix (n << p makes the Gram product the
dominant cost).

Closed-form predictions for the screen are also provided: survival
probabilities of null and signal columns, the expected selected count,
the fat/skinny crossover exponent, and the eigenvalue band that the
post-selection noise Gram matrix should occupy. These are what the
Monte Carlo harness checks empirical spectra against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ArwParams, _sample_size
from .numerics import chisq_sf, chisq_sf_vec, noncentral_chisq_sf

__all__ = [
    "SingularPair",
    "SpectralPrediction",
    "chi2_scores",
    "select_features",
    "screen_threshold",
    "leading_left_singular",
    "predict_selection",
    "predict_null_selection",
    "q_star",
    "q_tilde",
]


@dataclass
class SingularPair:
    vector: np.ndarray  # unit top left singular vector
    value: float  # top singular value
    iterations: int  # always 0: the eigensolver is direct, not iterative
    converged: bool  # top eigenvalue strictly above the second (vector unique up to sign)


@dataclass
class SpectralPrediction:
    pi0: float
    pi1: float
    m_q: float
    q_tilde: float
    regime: str  # "fat" or "skinny"
    eigen_range: tuple[float, float]


def chi2_scores(X: np.ndarray) -> np.ndarray:
    """Standardized squared column norms (mean 0, variance 1 under noise).

    The squared norms are one ``einsum`` reduction, with no n-by-p
    ``X * X`` temporary. On C-ordered X it accumulates row by row, like
    ``np.sum(X * X, axis=0)``, and gives the same bits; on other layouts
    the two may differ in the last place.
    """
    return _standardize(np.einsum("ij,ij->j", X, X), X.shape[0])


def _standardize(sq_norms, n: int):
    """Q = (S - n) / sqrt(2n) of squared norms S (a scalar or an array) over n coordinates."""
    return (sq_norms - n) / math.sqrt(2 * n)


def _score_tail(Q: np.ndarray, n: int) -> np.ndarray:
    """P(chi2_n >= n + sqrt(2n) Q), the inverse of _standardize clipped at the support's 0."""
    return chisq_sf_vec(np.maximum(n + math.sqrt(2 * n) * Q, 0.0), n)


def screen_threshold(p: int, q: float) -> float:
    if not q > 0:
        raise ValueError("q must be positive")
    return math.sqrt(2 * q * math.log(p))


def _threshold_q(t, p: int):
    """The q whose screen_threshold(p, q) is t."""
    return t**2 / (2 * math.log(p))


def select_features(scores: np.ndarray, q: float) -> np.ndarray:
    """Sorted indices with score >= sqrt(2 q log p), p = scores.size; equality is kept.

    An empty selection is a legal result and is returned as such. A NaN
    or infinite score (from a non-finite column) raises ValueError rather
    than being silently dropped or kept.
    """
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (X has a NaN or inf)")
    return np.flatnonzero(scores >= screen_threshold(scores.size, q))


def leading_left_singular(M: np.ndarray) -> SingularPair:
    """Top left singular vector of M from one eigendecomposition of M @ M.T.

    The n-by-n Gram matrix is small (n << p), so a dense symmetric
    eigensolver gives the exact leading pair. ``converged`` is False when
    the top two eigenvalues tie: the vector is then one valid unit vector
    of the top eigenspace rather than unique up to sign.

    Sign convention: the first nonzero coordinate is made positive.

    Raises ValueError for a zero, empty, non-2-d or non-finite M.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0 or not np.any(M):
        raise ValueError("M must be a nonzero 2-d matrix")
    if not np.isfinite(M).all():
        raise ValueError("M must be finite")
    evals, evecs = np.linalg.eigh(M @ M.T)
    v = evecs[:, -1]
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return SingularPair(
        vector=v,
        value=math.sqrt(max(evals[-1], 0.0)),
        iterations=0,
        converged=evals.size == 1 or bool(evals[-1] > evals[-2]),
    )


def q_star(theta: float, beta: float, r: float) -> float:
    """Screening exponent that optimizes the post-selection signal share."""
    low = (beta - theta / 2) / 3
    if r < low:
        return 4 * r
    return (beta - theta / 2 + r) ** 2 / (4 * r)


def q_tilde(beta: float, theta: float, r: float) -> float:
    """Fat/skinny crossover: selected count and sample count balance here."""
    if beta > 1 - theta:
        return 1 - theta
    return max(1 - theta, (math.sqrt(1 - beta - theta) + math.sqrt(r)) ** 2)


_BAND_CONSTANT = 3.0  # half-width of the predicted noise band, in units of sqrt(n m_q log p)


def _prediction(n: int, p: int, q: float, s: float, lam: float, qt: float) -> SpectralPrediction:
    """Screen predictions for n samples and p columns, s of them signal with noncentrality lam.

    The screen keeps a column whose squared norm clears
    n + sqrt(2n) screen_threshold(p, q), the cut select_features applies.
    With s = 0 there are no signal columns and pi1 is 0.
    """
    cut = n + math.sqrt(2 * n) * screen_threshold(p, q)
    pi0 = chisq_sf(cut, n)
    pi1 = noncentral_chisq_sf(cut, n, lam) if s else 0.0
    m_q = (p - s) * pi0 + s * pi1
    regime = "fat" if q < qt else "skinny"
    center = m_q if regime == "fat" else float(n)
    half = _BAND_CONSTANT * math.sqrt(n * m_q * math.log(p))
    band = (center - half, center + half)
    return SpectralPrediction(pi0=pi0, pi1=pi1, m_q=m_q, q_tilde=qt, regime=regime, eigen_range=band)


def predict_selection(params: ArwParams, q: float) -> SpectralPrediction:
    """Closed-form screen predictions under the log-adjusted calibration.

    pi0/pi1 are exact chi-square survival values at the screening cut
    (pi1 through the noncentral series). The expected selected count mixes
    them by the expected signal count, and the eigenvalue band uses the
    expected count as a stand-in for its trace-weighted counterpart
    (the two agree to first order).
    """
    if params.r is None:
        raise ValueError("predict_selection needs the log-adjusted (r) calibration")
    qt = q_tilde(params.beta, params.theta, params.r)
    return _prediction(params.n, params.p, q, params.expected_signals, params.n * params.tau**2, qt)


def predict_null_selection(p: int, theta: float, q: float) -> SpectralPrediction:
    """Screen predictions for pure-noise data (no signal columns at all).

    The crossover reduces to 1 - theta and the expected count to p * pi0.
    """
    return _prediction(_sample_size(p, theta), p, q, 0, 0.0, 1 - theta)
