import numpy as np
import pytest

from rareweak.phase import (
    BOUND_KINDS,
    PROBLEMS,
    VARIANTS,
    PhaseQuery,
    boundary,
    hypothesis_segment_count,
    region,
    rho_star,
    rho_star_theta,
)


def curve(problem, kind, variant, theta, betas):
    return np.array(
        [boundary(PhaseQuery(problem, kind, variant, theta, b)).alpha_boundary for b in betas]
    )


class TestBoundaryValues:
    def test_clustering_left_branch(self):
        ans = boundary(PhaseQuery("clustering", "statistical", "one_sided", 0.5, 0.2))
        assert ans.alpha_boundary == pytest.approx(0.3, abs=1e-15)
        assert ans.segment == "simple_agg"

    def test_clustering_breakpoint_continuity(self):
        theta = 0.5
        b = (1 - theta) / 2
        lo = boundary(PhaseQuery("clustering", "statistical", "one_sided", theta, b - 1e-10))
        hi = boundary(PhaseQuery("clustering", "statistical", "one_sided", theta, b + 1e-10))
        assert lo.alpha_boundary == pytest.approx(theta / 2, abs=1e-9)
        assert hi.alpha_boundary == pytest.approx(theta / 2, abs=1e-9)
        at = boundary(PhaseQuery("clustering", "statistical", "one_sided", theta, b))
        assert at.segment == "breakpoint"

    def test_ctub_clustering_flat_branch(self):
        ans = boundary(PhaseQuery("clustering", "ctub", "one_sided", 0.5, 0.6))
        assert ans.alpha_boundary == pytest.approx(0.125, abs=1e-15)
        assert ans.segment == "ifpca_flat"

    def test_hypothesis_segment_counts(self):
        assert hypothesis_segment_count(0.5) == 3
        assert hypothesis_segment_count(0.8) == 2


# (alpha_boundary, segment) recorded from the implementation that dispatched the
# testing curves outside the curve table, at every breakpoint of each curve and
# one midpoint per piece: (problem, kind, variant, theta): [(beta, alpha, segment)]
PINNED_CURVES = {
    ("clustering", "statistical", "one_sided", 0.2): [
        (0.2, 0.3, "simple_agg"), (0.4, 0.1, "breakpoint"), (0.6000000000000001, 0.1, "sparse_agg_flat"),
        (0.8, 0.09999999999999998, "breakpoint"), (0.9, 0.04999999999999999, "sparse_agg_tail"),
    ],
    ("clustering", "statistical", "one_sided", 0.5): [
        (0.125, 0.375, "simple_agg"), (0.25, 0.25, "breakpoint"), (0.375, 0.25, "sparse_agg_flat"),
        (0.5, 0.25, "breakpoint"), (0.75, 0.125, "sparse_agg_tail"),
    ],
    ("clustering", "statistical", "one_sided", 0.8): [
        (0.04999999999999999, 0.45, "simple_agg"), (0.09999999999999998, 0.4, "breakpoint"),
        (0.14999999999999997, 0.4, "sparse_agg_flat"), (0.19999999999999996, 0.4, "breakpoint"),
        (0.6, 0.2, "sparse_agg_tail"),
    ],
    ("clustering", "statistical", "signed", 0.2): [
        (0.2, 0.19999999999999998, "pca_left"), (0.4, 0.1, "breakpoint"),
        (0.6000000000000001, 0.1, "sparse_agg_flat"), (0.8, 0.09999999999999998, "breakpoint"),
        (0.9, 0.04999999999999999, "sparse_agg_tail"),
    ],
    ("clustering", "statistical", "signed", 0.5): [
        (0.125, 0.3125, "pca_left"), (0.25, 0.25, "breakpoint"), (0.375, 0.25, "sparse_agg_flat"),
        (0.5, 0.25, "breakpoint"), (0.75, 0.125, "sparse_agg_tail"),
    ],
    ("clustering", "statistical", "signed", 0.8): [
        (0.04999999999999999, 0.42500000000000004, "pca_left"), (0.09999999999999998, 0.4, "breakpoint"),
        (0.14999999999999997, 0.4, "sparse_agg_flat"), (0.19999999999999996, 0.4, "breakpoint"),
        (0.6, 0.2, "sparse_agg_tail"),
    ],
    ("clustering", "ctub", "one_sided", 0.2): [
        (0.2, 0.3, "simple_agg"), (0.4, 0.09999999999999998, "breakpoint"),
        (0.45, 0.07499999999999998, "classical_pca"), (0.5, 0.05, "breakpoint"), (0.7, 0.05, "ifpca_flat"),
        (0.9, 0.04999999999999999, "breakpoint"), (0.95, 0.025000000000000022, "ifpca_tail"),
    ],
    ("clustering", "ctub", "one_sided", 0.5): [
        (0.125, 0.375, "simple_agg"), (0.25, 0.25, "breakpoint"), (0.375, 0.1875, "classical_pca"),
        (0.5, 0.125, "breakpoint"), (0.625, 0.125, "ifpca_flat"), (0.75, 0.125, "breakpoint"),
        (0.875, 0.0625, "ifpca_tail"),
    ],
    ("clustering", "ctub", "one_sided", 0.8): [
        (0.04999999999999999, 0.45, "simple_agg"), (0.09999999999999998, 0.4, "breakpoint"),
        (0.3, 0.30000000000000004, "classical_pca"), (0.5, 0.2, "breakpoint"), (0.55, 0.2, "ifpca_flat"),
        (0.6, 0.2, "breakpoint"), (0.8, 0.09999999999999998, "ifpca_tail"),
    ],
    ("clustering", "ctub", "signed", 0.2): [
        (0.25, 0.175, "classical_pca"), (0.5, 0.05, "breakpoint"), (0.7, 0.05, "ifpca_flat"),
        (0.9, 0.04999999999999999, "breakpoint"), (0.95, 0.025000000000000022, "ifpca_tail"),
    ],
    ("clustering", "ctub", "signed", 0.5): [
        (0.25, 0.25, "classical_pca"), (0.5, 0.125, "breakpoint"), (0.625, 0.125, "ifpca_flat"),
        (0.75, 0.125, "breakpoint"), (0.875, 0.0625, "ifpca_tail"),
    ],
    ("clustering", "ctub", "signed", 0.8): [
        (0.25, 0.325, "classical_pca"), (0.5, 0.2, "breakpoint"), (0.55, 0.2, "ifpca_flat"),
        (0.6, 0.2, "breakpoint"), (0.8, 0.09999999999999998, "ifpca_tail"),
    ],
    ("signal_recovery", "statistical", "one_sided", 0.2): [
        (0.4, 0.1, "flat"), (0.8, 0.09999999999999998, "breakpoint"), (0.9, 0.07499999999999998, "sloped"),
    ],
    ("signal_recovery", "statistical", "one_sided", 0.5): [
        (0.25, 0.25, "flat"), (0.5, 0.25, "breakpoint"), (0.75, 0.1875, "sloped"),
    ],
    ("signal_recovery", "statistical", "one_sided", 0.8): [
        (0.09999999999999998, 0.4, "flat"), (0.19999999999999996, 0.4, "breakpoint"),
        (0.6, 0.30000000000000004, "sloped"),
    ],
    ("signal_recovery", "statistical", "signed", 0.2): [
        (0.4, 0.1, "flat"), (0.8, 0.09999999999999998, "breakpoint"), (0.9, 0.07499999999999998, "sloped"),
    ],
    ("signal_recovery", "statistical", "signed", 0.5): [
        (0.25, 0.25, "flat"), (0.5, 0.25, "breakpoint"), (0.75, 0.1875, "sloped"),
    ],
    ("signal_recovery", "statistical", "signed", 0.8): [
        (0.09999999999999998, 0.4, "flat"), (0.19999999999999996, 0.4, "breakpoint"),
        (0.6, 0.30000000000000004, "sloped"),
    ],
    ("signal_recovery", "ctub", "one_sided", 0.2): [
        (0.2, 0.1, "flat_left"), (0.4, 0.09999999999999998, "breakpoint"),
        (0.45, 0.07499999999999998, "classical_pca"), (0.5, 0.05, "breakpoint"), (0.75, 0.05, "flat_right"),
    ],
    ("signal_recovery", "ctub", "one_sided", 0.5): [
        (0.125, 0.25, "flat_left"), (0.25, 0.25, "breakpoint"), (0.375, 0.1875, "classical_pca"),
        (0.5, 0.125, "breakpoint"), (0.75, 0.125, "flat_right"),
    ],
    ("signal_recovery", "ctub", "one_sided", 0.8): [
        (0.04999999999999999, 0.4, "flat_left"), (0.09999999999999998, 0.4, "breakpoint"),
        (0.3, 0.30000000000000004, "classical_pca"), (0.5, 0.2, "breakpoint"), (0.75, 0.2, "flat_right"),
    ],
    ("signal_recovery", "ctub", "signed", 0.2): [
        (0.2, 0.1, "flat_left"), (0.4, 0.09999999999999998, "breakpoint"),
        (0.45, 0.07499999999999998, "classical_pca"), (0.5, 0.05, "breakpoint"), (0.75, 0.05, "flat_right"),
    ],
    ("signal_recovery", "ctub", "signed", 0.5): [
        (0.125, 0.25, "flat_left"), (0.25, 0.25, "breakpoint"), (0.375, 0.1875, "classical_pca"),
        (0.5, 0.125, "breakpoint"), (0.75, 0.125, "flat_right"),
    ],
    ("signal_recovery", "ctub", "signed", 0.8): [
        (0.04999999999999999, 0.4, "flat_left"), (0.09999999999999998, 0.4, "breakpoint"),
        (0.3, 0.30000000000000004, "classical_pca"), (0.5, 0.2, "breakpoint"), (0.75, 0.2, "flat_right"),
    ],
    ("hypothesis_testing", "statistical", "one_sided", 0.2): [
        (0.225, 0.32500000000000007, "simple_agg"), (0.45, 0.10000000000000003, "breakpoint"),
        (0.625, 0.1, "sparse_agg_flat"), (0.8, 0.09999999999999998, "sparse_agg_sloped"),
        (0.9, 0.07499999999999998, "sparse_agg_sloped"),
    ],
    ("hypothesis_testing", "statistical", "one_sided", 0.5): [
        (0.1875, 0.4375, "simple_agg"), (0.375, 0.25, "breakpoint"), (0.4375, 0.25, "sparse_agg_flat"),
        (0.5, 0.25, "sparse_agg_flat"), (0.75, 0.1875, "sparse_agg_sloped"),
    ],
    ("hypothesis_testing", "statistical", "one_sided", 0.8): [
        (0.16666666666666666, 0.5333333333333333, "simple_agg"),
        (0.3333333333333333, 0.3666666666666667, "breakpoint"),
        (0.6666666666666666, 0.2833333333333333, "sparse_agg_sloped"),
    ],
    ("hypothesis_testing", "statistical", "signed", 0.2): [
        (0.2, 0.19999999999999998, "pca_left"), (0.4, 0.1, "breakpoint"),
        (0.6000000000000001, 0.1, "sparse_agg_flat"), (0.8, 0.09999999999999998, "breakpoint"),
        (0.9, 0.07499999999999998, "sparse_agg_sloped"),
    ],
    ("hypothesis_testing", "statistical", "signed", 0.5): [
        (0.125, 0.3125, "pca_left"), (0.25, 0.25, "breakpoint"), (0.375, 0.25, "sparse_agg_flat"),
        (0.5, 0.25, "breakpoint"), (0.75, 0.1875, "sparse_agg_sloped"),
    ],
    ("hypothesis_testing", "statistical", "signed", 0.8): [
        (0.04999999999999999, 0.42500000000000004, "pca_left"), (0.09999999999999998, 0.4, "breakpoint"),
        (0.14999999999999997, 0.4, "sparse_agg_flat"), (0.19999999999999996, 0.4, "breakpoint"),
        (0.6, 0.30000000000000004, "sparse_agg_sloped"),
    ],
    ("hypothesis_testing", "ctub", "one_sided", 0.2): [
        (0.25, 0.30000000000000004, "simple_agg"), (0.5, 0.050000000000000044, "breakpoint"),
        (0.75, 0.05, "hc_flat"),
    ],
    ("hypothesis_testing", "ctub", "one_sided", 0.5): [
        (0.25, 0.375, "simple_agg"), (0.5, 0.125, "breakpoint"), (0.75, 0.125, "hc_flat"),
    ],
    ("hypothesis_testing", "ctub", "one_sided", 0.8): [
        (0.25, 0.44999999999999996, "simple_agg"), (0.5, 0.2, "breakpoint"), (0.75, 0.2, "hc_flat"),
    ],
    ("hypothesis_testing", "ctub", "signed", 0.2): [
        (0.25, 0.175, "classical_pca"), (0.5, 0.05, "breakpoint"), (0.75, 0.05, "hc_flat"),
    ],
    ("hypothesis_testing", "ctub", "signed", 0.5): [
        (0.25, 0.25, "classical_pca"), (0.5, 0.125, "breakpoint"), (0.75, 0.125, "hc_flat"),
    ],
    ("hypothesis_testing", "ctub", "signed", 0.8): [
        (0.25, 0.325, "classical_pca"), (0.5, 0.2, "breakpoint"), (0.75, 0.2, "hc_flat"),
    ],
}
# hypothesis_segment_count(theta, kind, variant), recorded from the same implementation
PINNED_SEGMENT_COUNTS = {
    (0.2, "statistical", "one_sided"): 3,
    (0.2, "statistical", "signed"): 3,
    (0.2, "ctub", "one_sided"): 2,
    (0.2, "ctub", "signed"): 2,
    (0.5, "statistical", "one_sided"): 3,
    (0.5, "statistical", "signed"): 3,
    (0.5, "ctub", "one_sided"): 2,
    (0.5, "ctub", "signed"): 2,
    (0.8, "statistical", "one_sided"): 2,
    (0.8, "statistical", "signed"): 3,
    (0.8, "ctub", "one_sided"): 2,
    (0.8, "ctub", "signed"): 2,
}


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("kind", BOUND_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_curves_match_pinned_values(problem, kind, variant):
    for theta in (0.2, 0.5, 0.8):
        for beta, alpha, segment in PINNED_CURVES[(problem, kind, variant, theta)]:
            ans = boundary(PhaseQuery(problem, kind, variant, theta, beta))
            assert (ans.alpha_boundary, ans.segment) == (alpha, segment), (theta, beta)


def test_segment_counts_match_pinned_values():
    got = {key: hypothesis_segment_count(*key) for key in PINNED_SEGMENT_COUNTS}
    assert got == PINNED_SEGMENT_COUNTS


@pytest.mark.parametrize(
    "args",
    [(0.5, "bogus", "one_sided"), (0.5, "statistical", "nonsense"), (1.5,), (0.0,), (-0.2, "ctub")],
    ids=["kind", "variant", "theta_above", "theta_zero", "theta_negative"],
)
def test_segment_count_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        hypothesis_segment_count(*args)


class TestRhoStar:
    def test_first_branch(self):
        assert rho_star(0.6) == pytest.approx(0.1, abs=1e-15)

    def test_branch_continuity(self):
        assert rho_star(0.75 - 1e-12) == pytest.approx(0.25, abs=1e-9)
        assert rho_star(0.75 + 1e-12) == pytest.approx(0.25, abs=1e-9)

    def test_second_branch(self):
        assert rho_star(0.96) == pytest.approx(0.64, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_star(0.5)
        with pytest.raises(ValueError):
            rho_star(1.0)


class TestRhoStarTheta:
    def test_theta_zero_limit(self):
        for b in (0.55, 0.7, 0.9):
            assert rho_star_theta(1e-9, b) == pytest.approx(rho_star(b), rel=1e-6)

    def test_inner_rescaling(self):
        # theta=0.5, beta=0.6 maps to inner 0.7 (first branch): 0.5 * 0.2
        assert rho_star_theta(0.5, 0.6) == pytest.approx(0.1, rel=1e-12)

    def test_right_endpoint_limit(self):
        theta = 0.5
        val = rho_star_theta(theta, 1 - theta / 2 - 1e-9)
        assert val == pytest.approx(1 - theta, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_star_theta(0.5, 0.76)
        for theta in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"^theta must lie in \(0, 1\)$"):
                rho_star_theta(theta, 0.6)


def alpha_region(problem, kind, variant, theta, beta, alpha):
    return region(boundary(PhaseQuery(problem, kind, variant, theta, beta)).alpha_boundary - alpha)


class TestClassify:
    def test_tiny_alpha_possible(self):
        for problem in PROBLEMS:
            assert alpha_region(problem, "statistical", "one_sided", 0.4, 0.6, 1e-9) == "possible"

    def test_huge_alpha_impossible(self):
        for problem in PROBLEMS:
            for kind in BOUND_KINDS:
                assert alpha_region(problem, kind, "one_sided", 0.4, 0.6, 10.0) == "impossible"

    def test_on_boundary(self):
        assert alpha_region("clustering", "statistical", "one_sided", 0.5, 0.3, 0.25) == "on_boundary"

    @pytest.mark.parametrize(
        "margin, want",
        [
            (0.0, "on_boundary"),
            (1e-12, "on_boundary"),
            (-1e-12, "on_boundary"),
            (2e-12, "possible"),
            (-2e-12, "impossible"),
            (1.0, "possible"),
            (-1.0, "impossible"),
        ],
    )
    def test_margin_table(self, margin, want):
        # within 1e-12 of the curve, either side, is on it; a positive margin is the solvable side
        assert region(margin) == want


ALL_CURVES = [
    (problem, kind, variant)
    for problem in PROBLEMS
    for kind in BOUND_KINDS
    for variant in VARIANTS
]


@pytest.mark.parametrize("problem,kind,variant", ALL_CURVES)
@pytest.mark.parametrize("theta", [0.2, 0.5, 2 / 3, 0.8])
class TestCurveProperties:
    def test_grid_continuity(self, problem, kind, variant, theta):
        betas = np.linspace(1e-6, 1 - 1e-6, 10_000)
        vals = curve(problem, kind, variant, theta, betas)
        step = betas[1] - betas[0]
        # every piece has |slope| <= 1, so any larger jump is a discontinuity
        assert np.all(np.abs(np.diff(vals)) <= step + 1e-9)

    def test_monotone_nonincreasing(self, problem, kind, variant, theta):
        betas = np.linspace(1e-6, 1 - 1e-6, 2_000)
        vals = curve(problem, kind, variant, theta, betas)
        assert np.all(np.diff(vals) <= 1e-12)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("theta", [0.2, 0.5, 2 / 3, 0.8])
def test_ctub_below_statistical(problem, variant, theta):
    betas = np.linspace(1e-6, 1 - 1e-6, 2_000)
    stat = curve(problem, "statistical", variant, theta, betas)
    ctub = curve(problem, "ctub", variant, theta, betas)
    assert np.all(ctub <= stat + 1e-12)


def test_signed_clustering_differs_only_on_left():
    theta = 0.5
    split = (1 - theta) / 2
    for b in np.linspace(1e-6, 1 - 1e-6, 3_000):
        one = boundary(PhaseQuery("clustering", "statistical", "one_sided", theta, b)).alpha_boundary
        sgn = boundary(PhaseQuery("clustering", "statistical", "signed", theta, b)).alpha_boundary
        if b < split - 1e-9:
            assert sgn != pytest.approx(one, abs=1e-12)
        elif b > split + 1e-9:
            assert sgn == pytest.approx(one, abs=1e-15)


def test_exact_breakpoint_two_sided_agreement():
    for theta in (0.3, 0.5, 0.7):
        breakpoints = {
            ("clustering", "statistical"): [(1 - theta) / 2, 1 - theta],
            ("clustering", "ctub"): [(1 - theta) / 2, 0.5, 1 - theta / 2],
            ("signal_recovery", "statistical"): [1 - theta],
            ("signal_recovery", "ctub"): [(1 - theta) / 2, 0.5],
        }
        for (problem, kind), bks in breakpoints.items():
            for bk in bks:
                lo = boundary(PhaseQuery(problem, kind, "one_sided", theta, bk - 1e-10)).alpha_boundary
                hi = boundary(PhaseQuery(problem, kind, "one_sided", theta, bk + 1e-10)).alpha_boundary
                assert abs(lo - hi) <= 1e-9


def test_query_validation():
    with pytest.raises(ValueError):
        PhaseQuery("clustering", "statistical", "one_sided", 0.0, 0.5)
    with pytest.raises(ValueError):
        PhaseQuery("clustering", "statistical", "one_sided", 0.5, 1.0)
    with pytest.raises(ValueError):
        PhaseQuery("covering", "statistical", "one_sided", 0.5, 0.5)
