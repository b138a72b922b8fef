"""Phase-boundary curves in the (beta, alpha) plane and region classification.

For each problem (clustering, signal recovery, global testing), a fixed
sample-size exponent theta, and a sparsity exponent beta, there is a
critical strength exponent alpha below which the problem is solvable and
above which it is hopeless. Two kinds of curve are tracked: the
``statistical`` limit (any method allowed) and the ``ctub`` curve (best
known polynomial-time methods). The ``signed`` variant covers the model
where half of the nonzero feature effects are negative.

All curves are exact piecewise formulas; breakpoints are continuous and
membership uses half-open intervals, so the side chosen at a breakpoint
never changes the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PROBLEMS",
    "BOUND_KINDS",
    "VARIANTS",
    "PhaseQuery",
    "PhaseAnswer",
    "boundary",
    "region",
    "rho_star",
    "rho_star_theta",
    "hypothesis_segment_count",
]

PROBLEMS = ("clustering", "signal_recovery", "hypothesis_testing")
BOUND_KINDS = ("statistical", "ctub")
VARIANTS = ("one_sided", "signed")

_BREAK_EPS = 1e-12
_REGION_TOL = 1e-12


@dataclass(frozen=True)
class PhaseQuery:
    problem: str
    bound_kind: str = "statistical"
    variant: str = "one_sided"
    theta: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


@dataclass(frozen=True)
class PhaseAnswer:
    alpha_boundary: float
    segment: str


def _pick(beta, pieces):
    """Evaluate a piecewise curve given as [(upper_break, value, name), ...].

    The last entry must have upper_break = 1, so every beta < 1 (which
    PhaseQuery guarantees) lands in a piece. A beta within _BREAK_EPS of an
    interior breakpoint is reported with the segment marker 'breakpoint'
    (both sides agree in value there by continuity).
    """
    prev = 0.0
    for upper, value, name in pieces:
        if beta < upper:
            near_edge = (prev > 0.0 and abs(beta - prev) <= _BREAK_EPS) or (
                upper < 1.0 and abs(beta - upper) <= _BREAK_EPS
            )
            return value, ("breakpoint" if near_edge else name)
        prev = upper


def _clustering_stat(theta, beta, signed):
    left = (1 + theta - 2 * beta) / 4 if signed else (1 - 2 * beta) / 2
    pieces = [
        ((1 - theta) / 2, left, "pca_left" if signed else "simple_agg"),
        (1 - theta, theta / 2, "sparse_agg_flat"),
        (1.0, (1 - beta) / 2, "sparse_agg_tail"),
    ]
    return _pick(beta, pieces)


def _clustering_ctub(theta, beta, signed):
    if signed:
        pieces = [
            (0.5, (1 + theta - 2 * beta) / 4, "classical_pca"),
            (1 - theta / 2, theta / 4, "ifpca_flat"),
            (1.0, (1 - beta) / 2, "ifpca_tail"),
        ]
    else:
        pieces = [
            ((1 - theta) / 2, (1 - 2 * beta) / 2, "simple_agg"),
            (0.5, (1 + theta - 2 * beta) / 4, "classical_pca"),
            (1 - theta / 2, theta / 4, "ifpca_flat"),
            (1.0, (1 - beta) / 2, "ifpca_tail"),
        ]
    return _pick(beta, pieces)


def _recovery_stat(theta, beta, signed):
    # identical for both sign variants
    del signed
    pieces = [
        (1 - theta, theta / 2, "flat"),
        (1.0, (1 + theta - beta) / 4, "sloped"),
    ]
    return _pick(beta, pieces)


def _recovery_ctub(theta, beta, signed):
    del signed
    pieces = [
        ((1 - theta) / 2, theta / 2, "flat_left"),
        (0.5, (1 + theta - 2 * beta) / 4, "classical_pca"),
        (1.0, theta / 4, "flat_right"),
    ]
    return _pick(beta, pieces)


def _above_simple_agg(theta, beta, value, segment):
    """The larger of the simple-aggregation line and another line (value, segment).

    Within _BREAK_EPS of their crossing the segment is 'breakpoint'.
    """
    eta1 = (2 + theta - 4 * beta) / 4
    if abs(eta1 - value) <= _BREAK_EPS:
        return max(eta1, value), "breakpoint"
    if eta1 > value:
        return eta1, "simple_agg"
    return value, segment


def _hyp_stat(theta, beta, signed):
    if signed:
        pieces = [
            ((1 - theta) / 2, (1 + theta - 2 * beta) / 4, "pca_left"),
            (1 - theta, theta / 2, "sparse_agg_flat"),
            (1.0, (1 + theta - beta) / 4, "sparse_agg_sloped"),
        ]
        return _pick(beta, pieces)
    sloped = (1 + theta - beta) / 4
    if theta / 2 <= sloped:
        return _above_simple_agg(theta, beta, theta / 2, "sparse_agg_flat")
    return _above_simple_agg(theta, beta, sloped, "sparse_agg_sloped")


def _hyp_ctub(theta, beta, signed):
    if signed:
        pieces = [
            (0.5, (1 + theta - 2 * beta) / 4, "classical_pca"),
            (1.0, theta / 4, "hc_flat"),
        ]
        return _pick(beta, pieces)
    return _above_simple_agg(theta, beta, theta / 4, "hc_flat")


_CURVES = {
    ("clustering", "statistical"): _clustering_stat,
    ("clustering", "ctub"): _clustering_ctub,
    ("signal_recovery", "statistical"): _recovery_stat,
    ("signal_recovery", "ctub"): _recovery_ctub,
    ("hypothesis_testing", "statistical"): _hyp_stat,
    ("hypothesis_testing", "ctub"): _hyp_ctub,
}


def boundary(query: PhaseQuery) -> PhaseAnswer:
    """Exact boundary value and active segment for one phase-plane query."""
    curve = _CURVES[(query.problem, query.bound_kind)]
    value, segment = curve(query.theta, query.beta, query.variant == "signed")
    return PhaseAnswer(alpha_boundary=value, segment=segment)


def region(margin: float) -> str:
    """The side of a phase curve a point lies on, from its signed margin (boundary
    alpha minus alpha, or r minus the curve): 'possible' when positive,
    'impossible' when negative, 'on_boundary' within _REGION_TOL of zero."""
    if abs(margin) <= _REGION_TOL:
        return "on_boundary"
    return "possible" if margin > 0 else "impossible"


def rho_star(beta: float) -> float:
    """Standard detection phase function on 1/2 < beta < 1."""
    if not 0.5 < beta < 1.0:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta!r}")
    if beta < 0.75:
        return beta - 0.5
    return (1.0 - math.sqrt(1.0 - beta)) ** 2


def rho_star_theta(theta: float, beta: float) -> float:
    """Screen-then-PCA phase function: rescaled rho_star on 1/2 < beta < 1 - theta/2."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not 0.5 < beta < 1.0 - theta / 2:
        raise ValueError(f"beta must lie in (1/2, 1 - theta/2), got {beta!r}")
    return (1.0 - theta) * rho_star(0.5 + (beta - 0.5) / (1.0 - theta))


def hypothesis_segment_count(theta: float, bound_kind: str = "statistical", variant: str = "one_sided") -> int:
    """Number of distinct line segments making up the testing boundary.

    Counted by walking a fine beta grid and collapsing consecutive
    repeats of the active-segment label. Arguments are checked as in
    PhaseQuery.
    """
    labels = []
    for i in range(1, 20_000):
        seg = boundary(PhaseQuery("hypothesis_testing", bound_kind, variant, theta, i / 20_000)).segment
        if seg != "breakpoint" and (not labels or labels[-1] != seg):
            labels.append(seg)
    return len(labels)
