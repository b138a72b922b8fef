"""Phase-boundary curves in the (beta, alpha) plane and region classification.

For each problem (clustering, signal recovery, global testing), a fixed
sample-size exponent theta, and a sparsity exponent beta, there is a
critical strength exponent alpha below which the problem is solvable and
above which it is hopeless. Two kinds of curve are tracked: the
``statistical`` limit (any method allowed) and the ``ctub`` curve (best
known polynomial-time methods). The ``signed`` variant covers the model
where half of the nonzero feature effects are negative.

Every curve is a list of linear pieces (upper breakpoint, value, name),
built in ``_CURVES`` and evaluated by ``_pick``. A piece covers the
half-open interval from the previous breakpoint to its own, so at a
breakpoint the value is the right-hand piece's; the curves are
continuous, so the two sides agree there up to rounding. A piece can be
empty at some theta (the one-sided statistical testing curve's flat
piece for theta >= 2/3), and a curve's segments are its nonempty pieces.
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

    Each piece covers [previous upper, upper), and the last upper is 1, so
    every beta < 1 (which PhaseQuery guarantees) lands in a piece. A piece
    whose upper is not above every earlier one is empty at this theta and
    never chosen. At a breakpoint the value is the right-hand piece's (the
    two agree by continuity, up to rounding). A beta within _BREAK_EPS of
    an interior breakpoint is reported with the segment marker 'breakpoint'.
    """
    prev = 0.0
    for upper, value, name in pieces:
        if beta < upper:
            near_edge = (prev > 0.0 and abs(beta - prev) <= _BREAK_EPS) or (
                upper < 1.0 and abs(beta - upper) <= _BREAK_EPS
            )
            return value, ("breakpoint" if near_edge else name)
        prev = max(prev, upper)


def _clustering_stat(theta, beta, signed):
    left = (1 + theta - 2 * beta) / 4 if signed else (1 - 2 * beta) / 2
    return [
        ((1 - theta) / 2, left, "pca_left" if signed else "simple_agg"),
        (1 - theta, theta / 2, "sparse_agg_flat"),
        (1.0, (1 - beta) / 2, "sparse_agg_tail"),
    ]


def _clustering_ctub(theta, beta, signed):
    pieces = [
        (0.5, (1 + theta - 2 * beta) / 4, "classical_pca"),
        (1 - theta / 2, theta / 4, "ifpca_flat"),
        (1.0, (1 - beta) / 2, "ifpca_tail"),
    ]
    if signed:
        return pieces
    return [((1 - theta) / 2, (1 - 2 * beta) / 2, "simple_agg"), *pieces]


def _recovery_stat(theta, beta, signed):
    # identical for both sign variants
    del signed
    return [
        (1 - theta, theta / 2, "flat"),
        (1.0, (1 + theta - beta) / 4, "sloped"),
    ]


def _recovery_ctub(theta, beta, signed):
    del signed
    return [
        ((1 - theta) / 2, theta / 2, "flat_left"),
        (0.5, (1 + theta - 2 * beta) / 4, "classical_pca"),
        (1.0, theta / 4, "flat_right"),
    ]


def _hyp_stat(theta, beta, signed):
    # one-sided: the simple-aggregation line meets the flat piece at (2 - theta)/4 and the
    # sloped one at 1/3; for theta >= 2/3 it passes above the whole flat piece, which is empty
    if signed:
        first = ((1 - theta) / 2, (1 + theta - 2 * beta) / 4, "pca_left")
    else:
        first = (max((2 - theta) / 4, 1 / 3), (2 + theta - 4 * beta) / 4, "simple_agg")
    return [
        first,
        (1 - theta, theta / 2, "sparse_agg_flat"),
        (1.0, (1 + theta - beta) / 4, "sparse_agg_sloped"),
    ]


def _hyp_ctub(theta, beta, signed):
    if signed:
        first = (0.5, (1 + theta - 2 * beta) / 4, "classical_pca")
    else:
        first = (0.5, (2 + theta - 4 * beta) / 4, "simple_agg")
    return [first, (1.0, theta / 4, "hc_flat")]


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
    pieces = _CURVES[(query.problem, query.bound_kind)](query.theta, query.beta, query.variant == "signed")
    value, segment = _pick(query.beta, pieces)
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


def _in_ifpca_range(theta: float, beta: float) -> bool:
    """Whether beta lies in IF-PCA's range 1/2 < beta < 1 - theta/2."""
    return 0.5 < beta < 1.0 - theta / 2


def rho_star_theta(theta: float, beta: float) -> float:
    """Screen-then-PCA phase function: rescaled rho_star on 1/2 < beta < 1 - theta/2."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not _in_ifpca_range(theta, beta):
        raise ValueError(f"beta must lie in (1/2, 1 - theta/2), got {beta!r}")
    return (1.0 - theta) * rho_star(0.5 + (beta - 0.5) / (1.0 - theta))


def hypothesis_segment_count(theta: float, bound_kind: str = "statistical", variant: str = "one_sided") -> int:
    """Number of line segments making up the testing boundary: the curve's pieces
    that are nonempty at theta. Arguments are checked as in PhaseQuery."""
    query = PhaseQuery("hypothesis_testing", bound_kind, variant, theta)
    prev, count = 0.0, 0
    for upper, _, _ in _CURVES["hypothesis_testing", bound_kind](theta, query.beta, variant == "signed"):
        count += upper > prev
        prev = max(prev, upper)
    return count
