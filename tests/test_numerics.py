import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from rareweak.numerics import (
    bh_threshold,
    chisq_sf,
    chisq_sf_vec,
    folded_mean,
    noncentral_chisq_sf,
    std_normal_sf,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def simpson(f, lo, hi, steps):
    # composite Simpson rule; steps must be even
    xs = np.linspace(lo, hi, steps + 1)
    ys = f(xs)
    h = (hi - lo) / steps
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestStdNormalSf:
    def test_zero_is_half(self):
        assert std_normal_sf(0.0) == 0.5

    def test_far_tail(self):
        v = std_normal_sf(40.0)
        assert 0.0 <= v < 1e-300

    def test_quadrature_oracle(self):
        # independent route: integrate the density over [x, x+40]
        x = 1.959964
        oracle = simpson(normal_pdf, x, x + 40.0, 400_000)
        assert std_normal_sf(x) == pytest.approx(0.025, abs=1e-6)
        assert std_normal_sf(x) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry_grid(self):
        for x in np.linspace(-8.0, 8.0, 201):
            assert abs(std_normal_sf(x) + std_normal_sf(-x) - 1.0) <= 1e-12


class TestChisqSf:
    def test_mass_above_zero(self):
        assert chisq_sf(0.0, 5) == 1.0

    def test_clt_median(self):
        n = 10_000
        assert chisq_sf(float(n), n) == pytest.approx(0.5, abs=0.01)

    def test_dof1_erfc_identity(self):
        x = 3.841459
        oracle = 2.0 * std_normal_sf(math.sqrt(x))
        assert chisq_sf(x, 1) == pytest.approx(0.05, abs=1e-6)
        assert chisq_sf(x, 1) == pytest.approx(oracle, rel=1e-10)

    def test_dof1_identity_grid(self):
        for x in np.linspace(0.01, 40.0, 200):
            assert chisq_sf(x, 1) == pytest.approx(2.0 * std_normal_sf(math.sqrt(x)), rel=1e-10)

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 10, 40, 100, 1000, 10_000])
    def test_scipy_oracle(self, dof):
        xs = np.linspace(0.0, dof + 40.0 * math.sqrt(dof), 83)
        for x in xs:
            want = sps.chi2.sf(x, dof)
            got = chisq_sf(float(x), dof)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_strictly_decreasing(self):
        for dof in (1, 7, 64):
            xs = np.linspace(0.0, dof + 30 * math.sqrt(dof), 300)
            vals = [chisq_sf(float(x), dof) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            # strict once the value leaves the double-precision saturation at 1
            assert all(a > b for a, b in zip(vals, vals[1:]) if b < 1.0 and a > 1e-290)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chisq_sf(-0.1, 3)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)
        with pytest.raises(ValueError, match="dof must be a positive integer"):
            chisq_sf(1.0, math.inf)
        with pytest.raises(ValueError):
            chisq_sf(math.nan, 3)
        with pytest.raises(ValueError):
            chisq_sf_vec(np.array([1.0, math.nan]), 3)
        for dof in (np.array([3, 0]), np.array([3, 2.5]), np.array([3.0, math.inf])):
            with pytest.raises(ValueError, match="dof must be a positive integer"):
                chisq_sf_vec(1.0, dof)

    def test_vectorized_scipy_oracle_random(self):
        rng = np.random.default_rng(7)
        for dof in (1, 40, 500):
            xs = rng.uniform(0.0, dof + 35 * math.sqrt(dof), size=400)
            np.testing.assert_allclose(chisq_sf_vec(xs, dof), sps.chi2.sf(xs, dof), rtol=1e-10, atol=1e-300)

    def test_array_dof_matches_scalar_dof(self):
        rng = np.random.default_rng(8)
        dofs = rng.integers(1, 600, size=(50, 1))
        xs = rng.uniform(0.0, 800.0, size=(1, 40))
        got = chisq_sf_vec(xs, dofs)
        assert got.shape == (50, 40)
        for row, dof in zip(got, dofs[:, 0]):
            assert np.array_equal(row, chisq_sf_vec(xs[0], int(dof)))

    def test_long_vector_equals_scalar_calls(self):
        # one pass over more than 8,192 entries, both branches and both ends: each entry as its own call gives
        dof = 8
        xs = np.random.default_rng(10).uniform(0.0, 5.0 * dof, size=8_200)
        xs[:2] = [0.0, math.inf]
        assert 1_000 < np.count_nonzero(xs < dof + 2) < 7_000  # the power series below dof + 2, the fraction above
        assert chisq_sf_vec(xs, dof).tolist() == [chisq_sf(x, dof) for x in xs]

    # values of the engine before array dof was added; scalar dof must keep every bit
    PINNED = {
        100: (
            [0.0, 1.5, 25.0, 80.0, 99.0, 101.9, 102.5, 142.426, 241.421, 500.0],
            [1.0, 1.0, 0.9999999999999989, 0.9296649333406064, 0.509472198798378, 0.4283417171776599,
             0.4120050049993932, 0.0034369342002823636, 1.0464520078796497e-13, 1.7201210053694655e-54],
        ),
        251: (
            [0.0, 1.5, 62.75, 231.0, 250.0, 252.9, 253.5, 318.216, 475.054, 884.719],
            [1.0, 1.0, 1.0, 0.8126103846074654, 0.5059524913940256, 0.45448814733927556,
             0.44395550243893916, 0.0025813651176530283, 5.154406226091619e-16, 1.5917162496739395e-71],
        ),
    }

    @pytest.mark.parametrize("dof", sorted(PINNED))
    def test_pinned_values(self, dof):
        xs, want = self.PINNED[dof]
        assert chisq_sf_vec(np.array(xs), dof).tolist() == want

    @pytest.mark.parametrize("dof", [1, 3, 251])
    def test_infinite_x_is_zero_without_warnings(self, dof):
        xs = np.array([np.inf, 0.0, 0.5 * dof, dof + 5.0, np.inf, 4.0 * dof + 60.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chisq_sf(math.inf, dof) == 0.0
            assert chisq_sf_vec(math.inf, dof) == 0.0
            got = chisq_sf_vec(xs, dof)
        assert got[0] == got[4] == 0.0
        assert got[[1, 2, 3, 5]].tolist() == chisq_sf_vec(xs[[1, 2, 3, 5]], dof).tolist()

    def test_vectorized_scipy_oracle(self):
        xs = np.linspace(0.0, 400.0, 1001)
        np.testing.assert_allclose(chisq_sf_vec(xs, 100), sps.chi2.sf(xs, 100), rtol=1e-10)


class TestNoncentralChisqSf:
    @pytest.mark.parametrize(
        "dof,lam", [(10, 0.5), (40, 25.9), (100, 3.0), (251, 80.0), (251, 2000.0), (1000, 500.0)]
    )
    def test_scipy_oracle(self, dof, lam):
        for x in np.linspace(0.5, dof + lam + 30 * math.sqrt(dof + lam), 41):
            want = sps.ncx2.sf(x, dof, lam)
            assert noncentral_chisq_sf(float(x), dof, lam) == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_zero_noncentrality_is_central(self):
        assert noncentral_chisq_sf(12.3, 9, 0.0) == chisq_sf(12.3, 9)

    def test_rejects_negative_noncentrality(self):
        with pytest.raises(ValueError, match="^noncentrality must be nonnegative$"):
            noncentral_chisq_sf(12.3, 9, -0.5)


class TestFoldedMoments:
    def test_mean_at_zero(self):
        assert abs(folded_mean(0.0) - SQRT_2_OVER_PI) <= 1e-12

    def test_mean_large_h(self):
        assert folded_mean(50.0) == pytest.approx(50.0, abs=1e-10)

    def test_mean_quadrature_oracle(self):
        # oracle: integrate |z + 1| against the normal density
        oracle = simpson(lambda z: np.abs(z + 1.0) * normal_pdf(z), -40.0, 40.0, 800_000)
        assert folded_mean(1.0) == pytest.approx(oracle, abs=1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            folded_mean(-0.01)

    @given(st.floats(min_value=0.0, max_value=60.0))
    def test_bounds(self, h):
        m = folded_mean(h)
        assert m >= max(h, SQRT_2_OVER_PI) - 1e-12

    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=1e-6, max_value=30.0),
    )
    def test_increment_lower_bound(self, h1, gap):
        # growth of the folded mean dominates 0.25 * min(gap, gap^2)
        h2 = h1 + gap
        assert folded_mean(h2) - folded_mean(h1) >= 0.25 * min(gap, gap * gap) - 1e-9


def bh_bruteforce(pvalues, level):
    # literal restatement of the step-up rule, kept independent on purpose
    ps = sorted(pvalues)
    m = len(ps)
    best = 0
    for k in range(1, m + 1):
        if ps[k - 1] <= level * k / m:
            best = k
    return best


class TestBhThreshold:
    def test_single_pass(self):
        assert bh_threshold([0.001, 0.2, 0.9], 0.05) == 1

    def test_nothing_passes(self):
        assert bh_threshold([1.0, 1.0, 1.0], 0.05) == 0

    def test_uniform_pvalues_match_oracle(self):
        for seed in range(20):
            pv = np.random.default_rng(seed).uniform(size=100)
            assert bh_threshold(pv, 0.05) == bh_bruteforce(pv.tolist(), 0.05)

    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60))
    def test_hypothesis_matches_oracle(self, pv):
        assert bh_threshold(pv, 0.1) == bh_bruteforce(pv, 0.1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bh_threshold([0.5, 1.2], 0.05)
        with pytest.raises(ValueError):
            bh_threshold([], 0.05)
        with pytest.raises(ValueError):
            bh_threshold([0.5], 1.5)
