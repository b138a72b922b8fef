"""Scalar special functions and statistical primitives.

Everything here is a pure function of its arguments. The chi-square
survival function is computed from the regularized incomplete gamma
function (series expansion below the switch point, Lentz continued
fraction above it); the normal survival function goes through the
complementary error function. Both are accurate enough that Monte
Carlo noise always dominates.
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
    "folded_var",
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


def _gamma_q_series(a: float, x: float) -> float:
    # Q(a, x) = 1 - P(a, x) with P from the power series; use for x < a + 1.
    if x <= 0.0:
        return 1.0
    term = 1.0 / a
    total = term
    k = a
    for _ in range(100_000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _GAMMA_TOL:
            break
    log_p = a * math.log(x) - x - math.lgamma(a) + math.log(total)
    return 1.0 - math.exp(log_p) if log_p < 0 else 0.0


def _gamma_q_cf(a: float, x: float) -> float:
    # Q(a, x) by the modified Lentz continued fraction; use for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_TOL:
            break
    log_q = a * math.log(x) - x - math.lgamma(a) + math.log(h)
    return math.exp(log_q) if log_q > -745.0 else 0.0


def chisq_sf(x: float, dof: int) -> float:
    """Survival function P(chi2_dof > x).

    Relative error is below 1e-10 for x up to dof + 40*sqrt(dof).

    Raises ValueError for x < 0, NaN x or dof < 1.
    """
    if dof < 1 or int(dof) != dof:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    a = 0.5 * dof
    half_x = 0.5 * x
    if half_x < a + 1.0:
        return _gamma_q_series(a, half_x)
    return _gamma_q_cf(a, half_x)


def chisq_sf_vec(x, dof: int) -> np.ndarray:
    """Vectorized ``chisq_sf`` over an array of quantiles (one dof).

    Runs the series branch and the continued-fraction branch as masked
    array iterations, so a whole column of scores is one pass of numpy
    work instead of p scalar calls.

    Raises ValueError like ``chisq_sf``: for any x that is negative or
    NaN, or for dof < 1.
    """
    if dof < 1 or int(dof) != dof:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("x must be nonnegative")
    a = 0.5 * dof
    hx = 0.5 * x.ravel()
    out = np.empty_like(hx)

    ser = hx < a + 1.0
    if ser.any():
        xs = hx[ser]
        term = np.full_like(xs, 1.0 / a)
        total = term.copy()
        k = a
        active = xs > 0.0
        while active.any():
            k += 1.0
            term[active] *= xs[active] / k
            total[active] += term[active]
            active &= np.abs(term) >= np.abs(total) * _GAMMA_TOL
        with np.errstate(divide="ignore"):
            log_p = a * np.log(np.where(xs > 0, xs, 1.0)) - xs - math.lgamma(a) + np.log(total)
        res = 1.0 - np.exp(np.minimum(log_p, 0.0))
        res[xs <= 0.0] = 1.0
        out[ser] = res

    cfm = ~ser
    if cfm.any():
        xc = hx[cfm]
        b = xc + 1.0 - a
        c = np.full_like(xc, 1.0 / _TINY)
        d = 1.0 / b
        h = d.copy()
        active = np.ones(xc.shape, dtype=bool)
        i = 0
        while active.any() and i < 100_000:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d[active] = an * d[active] + b[active]
            np.copyto(d, _TINY, where=active & (np.abs(d) < _TINY))
            c[active] = b[active] + an / c[active]
            np.copyto(c, _TINY, where=active & (np.abs(c) < _TINY))
            d[active] = 1.0 / d[active]
            delta = d[active] * c[active]
            h[active] *= delta
            still = np.abs(delta - 1.0) >= _GAMMA_TOL
            active[active.nonzero()[0][~still]] = False
        log_q = a * np.log(xc) - xc - math.lgamma(a) + np.log(h)
        out[cfm] = np.where(log_q > -745.0, np.exp(np.minimum(log_q, 0.0)), 0.0)

    return out.reshape(x.shape)


def noncentral_chisq_sf(x: float, dof: int, noncentrality: float, rtol: float = 1e-10) -> float:
    """Survival function of the noncentral chi-square distribution.

    Poisson-weighted mixture of central survival values, summed outward
    from the Poisson mode and truncated once the remaining mass cannot
    move the result by more than ``rtol`` relatively.
    """
    if noncentrality < 0:
        raise ValueError("noncentrality must be nonnegative")
    if noncentrality == 0:
        return chisq_sf(x, dof)
    lam = 0.5 * noncentrality
    k0 = int(lam)
    log_w0 = -lam + k0 * math.log(lam) - math.lgamma(k0 + 1)
    w0 = math.exp(log_w0)

    total = w0 * chisq_sf(x, dof + 2 * k0)
    # upward from the mode
    w = w0
    k = k0
    while True:
        k += 1
        w *= lam / k
        total += w * chisq_sf(x, dof + 2 * k)
        if w < rtol * max(total, _TINY) and k > lam:
            break
    # downward from the mode
    w = w0
    k = k0
    while k > 0:
        w *= k / lam
        k -= 1
        total += w * chisq_sf(x, dof + 2 * k)
        if w < rtol * max(total, _TINY) and k < lam:
            break
    return min(total, 1.0)


def folded_mean(h: float) -> float:
    """E|Z + h| for Z standard normal, h >= 0.

    Closed form: sqrt(2/pi) exp(-h^2/2) + h (1 - 2 Phi(-h)). Monotone
    increasing in h, with folded_mean(h) >= max(h, sqrt(2/pi)).
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h!r}")
    return _SQRT_2_OVER_PI * math.exp(-0.5 * h * h) + h * (1.0 - 2.0 * std_normal_sf(h))


def folded_var(h: float) -> float:
    """Var|Z + h| = 1 + h^2 - folded_mean(h)^2, always in (0, 1]."""
    m = folded_mean(h)
    return 1.0 + h * h - m * m


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
