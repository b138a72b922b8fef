import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareweak.model import ArwParams, gen_dataset
from rareweak.numerics import chisq_sf, noncentral_chisq_sf
from rareweak.spectral import (
    chi2_scores,
    leading_left_singular,
    predict_null_selection,
    predict_selection,
    q_star,
    q_tilde,
    screen_threshold,
    select_features,
)


def angle_gap(u, v):
    # chord distance 2 sin(theta/2) ~ theta; stable for tiny angles where
    # sqrt(1 - cos^2) would quantize at the sqrt(eps) floor
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


class TestChi2Scores:
    def test_centering(self):
        n = 16
        col = np.zeros((n, 1))
        col[0, 0] = math.sqrt(n)
        assert chi2_scores(col)[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_column(self):
        n = 50
        X = np.zeros((n, 3))
        np.testing.assert_allclose(chi2_scores(X), -math.sqrt(n / 2), rtol=1e-12)

    def test_matches_product_reference(self):
        rng = np.random.default_rng(41)
        for n, p in [(2, 1), (7, 33), (141, 2000), (316, 5001)]:
            X = 3.0 * rng.standard_normal((n, p))
            # C order: einsum accumulates row by row like the reference sum, so the bits agree
            np.testing.assert_array_equal(chi2_scores(X), (np.sum(X * X, axis=0) - n) / math.sqrt(2 * n))
            for Y in (np.asfortranarray(X), X[:, ::3], X[:, 1:]):
                ref = (np.sum(Y * Y, axis=0) - n) / math.sqrt(2 * n)
                # other layouts may sum in another order; the tolerance is relative to ||x_j||^2 ~ n,
                # since a score near 0 is a difference of two numbers of that size
                np.testing.assert_allclose(chi2_scores(Y), ref, rtol=1e-12, atol=1e-12 * math.sqrt(n))

    def test_null_moments(self):
        # under the null each score has mean 0, variance 1 and fourth moment 3 + 12/n, so
        # the sample mean and variance of p scores have standard errors 1/sqrt(p) and
        # sqrt((2 + 12/n)/p); the bounds are 5 and 3.5 of those (about 0.035 each)
        n, p = 200, 20_000
        rng = np.random.default_rng(40)
        Q = chi2_scores(rng.standard_normal((n, p)))
        assert abs(Q.mean()) <= 5 / math.sqrt(p)
        assert Q.var() == pytest.approx(1.0, abs=3.5 * math.sqrt((2 + 12 / n) / p))


class TestSelectFeatures:
    def test_huge_q_empty(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((100, 2_000))
        assert select_features(chi2_scores(X), q=100.0).size == 0

    def test_tiny_q_selects_nonnegative_scores(self):
        rng = np.random.default_rng(42)
        scores = rng.standard_normal(500)
        sel = select_features(scores, q=1e-18)
        np.testing.assert_array_equal(sel, np.flatnonzero(scores >= screen_threshold(500, 1e-18)))
        assert set(np.flatnonzero(scores > 1e-6)) <= set(sel.tolist())

    def test_null_count_matches_chisq_tail(self):
        p, n, q = 10_000, 100, 1.0
        rng = np.random.default_rng(43)
        X = rng.standard_normal((n, p))
        sel = select_features(chi2_scores(X), q)
        cut = n + math.sqrt(2 * n) * screen_threshold(p, q)
        pi0 = chisq_sf(cut, n)
        sigma = math.sqrt(p * pi0 * (1 - pi0))
        assert abs(sel.size - p * pi0) <= 3 * sigma

    def test_threshold_positive(self):
        assert screen_threshold(100, 0.5) > 0
        with pytest.raises(ValueError):
            screen_threshold(100, 0.0)

    @settings(max_examples=50)
    @given(st.floats(0.01, 2.0), st.floats(0.01, 2.0))
    def test_monotone_nesting(self, q1, q2):
        scores = np.random.default_rng(7).standard_normal(300) * 2
        lo, hi = sorted((q1, q2))
        inner = set(select_features(scores, hi).tolist())
        outer = set(select_features(scores, lo).tolist())
        assert inner <= outer


class TestLeadingLeftSingular:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(50)
        ell = rng.integers(0, 2, 30) * 2 - 1
        v = rng.standard_normal(120)
        M = np.outer(ell, v)
        pair = leading_left_singular(M)
        assert angle_gap(pair.vector, ell) <= 1e-10
        assert pair.value == pytest.approx(np.linalg.norm(ell) * np.linalg.norm(v), rel=1e-10)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-10

    def test_degenerate_top_pair(self):
        # flat leading spectrum: any unit combination of the top pair is valid
        M = np.diag([2.0, 2.0, 1.0])
        pair = leading_left_singular(M)
        assert pair.value == pytest.approx(2.0, rel=1e-8)
        assert np.linalg.norm(M.T @ pair.vector) == pytest.approx(2.0, rel=1e-8)
        assert not pair.converged

    def test_near_degenerate_top_pair(self):
        # top two singular values 1e-4 apart relatively: the gap is real, so
        # the vector is unique up to sign and must match the dense SVD
        rng = np.random.default_rng(53)
        U = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        V = np.linalg.qr(rng.standard_normal((80, 30)))[0]
        s = np.concatenate([[1.0, 1.0 - 1e-4], np.linspace(0.5, 0.1, 28)])
        M = (U * s) @ V.T
        pair = leading_left_singular(M)
        u = np.linalg.svd(M, full_matrices=False)[0][:, 0]
        assert pair.converged
        assert angle_gap(pair.vector, u) <= 1e-8
        assert pair.value == pytest.approx(1.0, rel=1e-12)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            M = rng.standard_normal((50, 200))
            pair = leading_left_singular(M)
            u = np.linalg.svd(M, full_matrices=False)[0][:, 0]
            assert pair.converged
            assert angle_gap(pair.vector, u) <= 1e-8

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(52)
        M = rng.standard_normal((20, 80))
        perm = rng.permutation(80)
        a = leading_left_singular(M).vector
        b = leading_left_singular(M[:, perm]).vector
        assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-8

    def test_sign_convention(self):
        M = np.outer([-1.0, -1.0, -1.0], [1.0, 2.0])
        pair = leading_left_singular(M)
        assert pair.vector[0] > 0

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            leading_left_singular(np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        M = np.ones((3, 4))
        M[1, 2] = bad
        with pytest.raises(ValueError, match="M must be finite"):
            leading_left_singular(M)


class TestQStar:
    def test_small_r_branch(self):
        assert q_star(0.5, 0.55, 0.05) == pytest.approx(0.2, abs=1e-15)

    def test_large_r_branch(self):
        assert q_star(0.5, 0.55, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_branch_continuity(self):
        theta, beta = 0.5, 0.55
        r = (beta - theta / 2) / 3
        from_formula = (beta - theta / 2 + r) ** 2 / (4 * r)
        assert from_formula == pytest.approx(4 * r, abs=1e-12)
        assert q_star(theta, beta, r - 1e-13) == pytest.approx(q_star(theta, beta, r + 1e-13), abs=1e-12)


class TestQtildeAndExponent:
    def test_beyond_crossover_branch(self):
        assert q_tilde(0.7, 0.6, 0.8) == pytest.approx(0.4, abs=1e-15)

    def test_sparse_branch(self):
        want = max(1 - 0.5, (math.sqrt(1 - 0.3 - 0.5) + math.sqrt(0.2)) ** 2)
        assert q_tilde(0.3, 0.5, 0.2) == pytest.approx(want, rel=1e-12)


class TestPredictSelection:
    def test_tiny_q_gives_median(self):
        params = ArwParams(p=10_000, theta=0.5, beta=0.6, r=0.3)
        pred = predict_selection(params, q=1e-12)
        assert pred.pi0 == pytest.approx(chisq_sf(params.n, params.n), abs=1e-4)
        assert pred.pi0 == pytest.approx(0.5, abs=0.02)

    def test_m_q_mixture_identity(self):
        params = ArwParams(p=10_000, theta=0.5, beta=0.6, r=0.3)
        pred = predict_selection(params, q=0.5)
        s = params.expected_signals
        assert pred.m_q == pytest.approx((params.p - s) * pred.pi0 + s * pred.pi1, rel=1e-12)

    def test_pi1_is_noncentral_tail(self):
        params = ArwParams(p=10_000, theta=0.5, beta=0.6, r=0.3)
        pred = predict_selection(params, q=0.5)
        n = params.n
        cut = n + 2 * math.sqrt(0.5 * n * math.log(params.p))
        assert pred.pi1 == pytest.approx(noncentral_chisq_sf(cut, n, n * params.tau**2), rel=1e-10)

    def test_predictions_use_the_screen_cut(self):
        # select_features keeps a squared norm S when (S - n) / sqrt(2n) >= screen_threshold(p, q)
        for p, theta, q in itertools.product((100, 1000, 10_000), (0.3, 0.4, 0.5, 0.6), (0.1, 0.5, 1.0, 2.0)):
            params = ArwParams(p=p, theta=theta, beta=0.6, r=0.3)
            n = params.n
            cut = n + math.sqrt(2 * n) * screen_threshold(p, q)
            assert predict_null_selection(p, theta, q).pi0 == chisq_sf(cut, n), (p, theta, q)
            assert predict_selection(params, q).pi1 == noncentral_chisq_sf(cut, n, n * params.tau**2), (p, theta, q)

    def test_regime_flag(self):
        params = ArwParams(p=10_000, theta=0.5, beta=0.6, r=0.3)
        qt = q_tilde(0.6, 0.5, 0.3)
        assert predict_selection(params, q=qt - 0.1).regime == "fat"
        assert predict_selection(params, q=qt + 0.1).regime == "skinny"

    def test_requires_r_calibration(self):
        with pytest.raises(ValueError):
            predict_selection(ArwParams(p=100, theta=0.5, beta=0.5, alpha=0.2), q=0.5)
        with pytest.raises(ValueError):
            predict_selection(ArwParams(p=100, theta=0.5, beta=0.5, r=0.2), q=0.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan])
    def test_null_rejects_nonpositive_q(self, q):
        with pytest.raises(ValueError, match="^q must be positive$"):
            predict_null_selection(10_000, 0.5, q)

    def test_pi0_against_null_monte_carlo(self):
        p_cols, n, q = 100_000, 100, 1.0
        rng = np.random.default_rng(53)
        Z = rng.standard_normal((n, p_cols))
        cut = n + 2 * math.sqrt(q * n * math.log(10_000))
        pred = predict_null_selection(10_000, 0.5, q)
        frac = float(np.mean(np.sum(Z * Z, axis=0) > cut))
        sigma = math.sqrt(pred.pi0 * (1 - pred.pi0) / p_cols)
        assert abs(frac - pred.pi0) <= 3 * sigma


@pytest.mark.slow
class TestEmpiricalSpectra:
    def test_deep_possibility_cosine(self):
        # far above the transition curve the screen-then-PCA direction
        # locks onto the class labels
        params = ArwParams(p=5_000, theta=0.4, beta=0.6, r=0.5)
        q = q_star(params.theta, params.beta, params.r)
        cos = []
        for seed in range(10):
            ds = gen_dataset(params, seed=1000 + seed)
            sel = select_features(chi2_scores(ds.X), q)
            pair = leading_left_singular(ds.X[:, sel])
            cos.append(abs(pair.vector @ ds.labels) / np.linalg.norm(ds.labels))
        assert np.mean(cos) >= 0.9

    def test_null_gram_eigen_ranges(self):
        p, theta = 5_000, 0.5
        n = int(round(p**theta))
        for q in (0.3, 0.7):
            pred = predict_null_selection(p, theta, q)
            lo, hi = pred.eigen_range
            cut = n + 2 * math.sqrt(q * n * math.log(p))
            inside = 0
            for seed in range(10):
                rng = np.random.default_rng(2_000 + seed)
                Z = rng.standard_normal((n, p))
                sel = np.sum(Z * Z, axis=0) > cut
                if not sel.any():
                    inside += 1
                    continue
                ev = np.linalg.svd(Z[:, sel], compute_uv=False) ** 2
                inside += bool(ev.max() <= hi and ev.min() >= lo)
            assert inside >= 9
