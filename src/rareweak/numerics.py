"""Special functions and statistical primitives.

Everything here is a pure function of its arguments. Chi-square tails
have one engine, ``chisq_sf_vec``: the regularized upper incomplete
gamma function Q(dof/2, x/2), by its power series below the switch
point x/2 < dof/2 + 1 and by the Lentz continued fraction above it, run
as array iterations over every (x, dof) pair at once. ``chisq_sf`` is
its scalar form, and ``noncentral_chisq_sf`` is one call of it over a
window of Poisson-mixture terms. The normal survival function goes
through the complementary error function. Both are accurate enough that
Monte Carlo noise always dominates.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "std_normal_sf",
    "chisq_sf",
    "chisq_sf_vec",
    "noncentral_chisq_sf",
    "folded_mean",
    "bh_threshold",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# internal tolerance of the incomplete-gamma iterations
_GAMMA_TOL = 1e-14
_TINY = 1e-300


def std_normal_sf(x: float) -> float:
    """Upper tail P(Z > x) of the standard normal distribution.

    Absolute error is below 1e-12 on the whole real line (the heavy
    lifting is done by ``erfc``).
    """
    return 0.5 * math.erfc(x / _SQRT2)


def chisq_sf(x: float, dof: int) -> float:
    """Survival function P(chi2_dof > x); the scalar form of ``chisq_sf_vec``.

    Relative error is below 1e-10 for x up to dof + 40*sqrt(dof).

    Raises ValueError as ``chisq_sf_vec`` does: for x < 0, NaN x, or a dof
    that is not a positive integer (inf included).
    """
    return float(chisq_sf_vec(x, dof))


def _lgamma(a: np.ndarray) -> np.ndarray:
    """math.lgamma of each entry, evaluated once per distinct value."""
    values, inverse = np.unique(a, return_inverse=True)
    return np.array([math.lgamma(v) for v in values])[inverse]


def _power_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k x^k / ((a+1) ... (a+k)) / a, for x > 0, each entry summed to tolerance.

    Entries leave the iteration as they converge, so later steps touch
    only the ones still running.
    """
    term = 1.0 / a
    total = term.copy()
    out = np.empty_like(x)
    pos = np.arange(x.size)
    m = 0.0
    while pos.size:
        m += 1.0
        term *= x / (a + m)
        total += term
        done = ~(np.abs(term) >= np.abs(total) * _GAMMA_TOL)  # a NaN step stops too
        if done.any():
            out[pos[done]] = total[done]
            keep = ~done
            pos, a, x, term, total = pos[keep], a[keep], x[keep], term[keep], total[keep]
    return out


def _continued_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(a, x) exp(x) x^-a Gamma(a) by the modified Lentz method, for x >= a + 1.

    Entries leave the iteration as they converge, as in ``_power_series``.
    """
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(x)
    pos = np.arange(x.size)
    i = 0
    while pos.size and i < 100_000:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = ~(np.abs(delta - 1.0) >= _GAMMA_TOL)  # a NaN step stops too
        if done.any():
            out[pos[done]] = h[done]
            keep = ~done
            pos, a, b, c, d, h = pos[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
    out[pos] = h
    return out


def _gamma_q(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) for x >= 0, entrywise; Q(a, inf) = 0."""
    out = np.where(x == np.inf, 0.0, 1.0)
    ser = (x > 0.0) & (x < a + 1.0)
    xs, s = x[ser], a[ser]
    log_p = s * np.log(xs) - xs - _lgamma(s) + np.log(_power_series(s, xs))
    out[ser] = 1.0 - np.exp(np.minimum(log_p, 0.0))

    cfm = (x >= a + 1.0) & (x < np.inf)
    xc, s = x[cfm], a[cfm]
    log_q = s * np.log(xc) - xc - _lgamma(s) + np.log(_continued_fraction(s, xc))
    out[cfm] = np.where(log_q > -745.0, np.exp(np.minimum(log_q, 0.0)), 0.0)
    return out


def chisq_sf_vec(x, dof) -> np.ndarray:
    """Survival function P(chi2_dof > x), elementwise.

    ``dof`` is a positive integer or an array of them that broadcasts
    against ``x``; the result has the broadcast shape. A whole column of
    scores, or a whole Poisson mixture of degrees of freedom, is one
    pass of array work instead of scalar calls.

    Raises ValueError for any x that is negative or NaN, or for any dof
    that is not a positive integer.
    """
    k = np.asarray(dof)
    if not (np.isfinite(k).all() and (k >= 1).all() and (k == np.floor(k)).all()):
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("x must be nonnegative")
    x, a = np.broadcast_arrays(x, 0.5 * k)
    return _gamma_q(a.ravel(), 0.5 * x.ravel()).reshape(x.shape)


def noncentral_chisq_sf(x: float, dof: int, noncentrality: float) -> float:
    """Survival function of the noncentral chi-square distribution.

    Poisson(noncentrality / 2)-weighted mixture of the central survival
    values P(chi2_{dof+2k} > x), over the window of k within
    12 sqrt(noncentrality) + 40 of the Poisson mode (about 17 Poisson
    standard deviations), all in one ``chisq_sf_vec`` call. Relative
    error is below 1e-10 for x up to 30 standard deviations above the
    mean.
    """
    if noncentrality < 0:
        raise ValueError("noncentrality must be nonnegative")
    if noncentrality == 0:
        return chisq_sf(x, dof)
    lam = 0.5 * noncentrality
    k0 = int(lam)
    width = int(12.0 * math.sqrt(noncentrality)) + 40
    ks = np.arange(max(0, k0 - width), k0 + width + 1)
    log_w = -lam + ks * math.log(lam) - _lgamma(ks + 1.0)
    return min(float(np.exp(log_w) @ chisq_sf_vec(x, dof + 2 * ks)), 1.0)


def folded_mean(h: float) -> float:
    """E|Z + h| for Z standard normal, h >= 0.

    Closed form: sqrt(2/pi) exp(-h^2/2) + h (1 - 2 Phi(-h)). Monotone
    increasing in h, with folded_mean(h) >= max(h, sqrt(2/pi)).
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h!r}")
    return _SQRT_2_OVER_PI * math.exp(-0.5 * h * h) + h * (1.0 - 2.0 * std_normal_sf(h))


def bh_threshold(pvalues, fdr_level: float) -> int:
    """Step-up false-discovery-rate cut: largest k with p_(k) <= k * level / m.

    Returns the number of rejections (0 if nothing passes). Ties in the
    p-values are immaterial for the count; callers that need the actual
    indices should stable-sort and take the k smallest.
    """
    pv = np.asarray(pvalues, dtype=float)
    if pv.size == 0:
        raise ValueError("pvalues must be nonempty")
    if np.any((pv < 0) | (pv > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < fdr_level < 1.0:
        raise ValueError(f"fdr_level must be in (0, 1), got {fdr_level!r}")
    m = pv.size
    ps = np.sort(pv, kind="stable")
    passing = np.nonzero(ps <= fdr_level * np.arange(1, m + 1) / m)[0]
    return 0 if passing.size == 0 else int(passing[-1] + 1)
