import math
from unittest import mock

import numpy as np
import pytest

import rareweak.hyptest as ht
from rareweak import cluster
from rareweak.cluster import sparse_aggregation_greedy
from rareweak.harness import METHODS, TrialStats
from rareweak.model import ArwParams, gen_dataset
from rareweak.numerics import chisq_sf
from rareweak.spectral import chi2_scores


class TestSimpleAggTest:
    def test_zero_matrix_statistic(self):
        n = 50
        out = ht.simple_agg_test(np.zeros((n, 100)))
        assert out.statistic == pytest.approx(-math.sqrt(n / 2), rel=1e-12)
        assert not out.reject

    def test_null_rejection_rare(self):
        rej = 0
        for seed in range(40):
            X = np.random.default_rng(1300 + seed).standard_normal((100, 10_000))
            rej += ht.simple_agg_test(X).reject
        assert rej <= 2

    def test_strong_signal_always_rejects(self):
        rng = np.random.default_rng(86)
        n, p = 50, 200
        ell = rng.integers(0, 2, n) * 2 - 1
        mu = np.full(p, 0.8)  # dense strong shift swamps the threshold
        X = np.outer(ell, mu) + rng.standard_normal((n, p))
        assert ht.simple_agg_test(X).reject

    def test_depends_only_on_column_sum_norm(self):
        rng = np.random.default_rng(87)
        X = rng.standard_normal((20, 30))
        # redistribute columns while preserving the total column sum
        Y = X.copy()
        Y[:, 0] += Y[:, 1]
        Y[:, 1] = 0.0
        a = ht.simple_agg_test(X)
        b = ht.simple_agg_test(Y)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_statistic_matches_the_inline_formula(self):
        for seed, (n, p) in enumerate([(20, 30), (50, 400), (7, 1000)]):
            X = np.random.default_rng(89 + seed).standard_normal((n, p)) + 0.1
            xbar = X.mean(axis=1)
            assert ht.simple_agg_test(X).statistic == (p * float(xbar @ xbar) - n) / math.sqrt(2 * n)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(88)
        X = rng.standard_normal((25, 40))
        perm = rng.permutation(25)
        assert ht.simple_agg_test(X).statistic == pytest.approx(
            ht.simple_agg_test(X[perm]).statistic, rel=1e-12
        )


class TestSparseAggTest:
    def test_zero_matrix(self):
        out = ht.sparse_agg_test(np.zeros((20, 10)), N=2)
        assert out.statistic == 0.0 and not out.reject

    def test_null_conservative(self):
        rej = 0
        for seed in range(50):
            X = np.random.default_rng(1400 + seed).standard_normal((50, 30))
            rej += ht.sparse_agg_test(X, N=3).reject
        assert rej / 50 <= 0.05

    def test_noiseless_strong_signal(self):
        n, p, N, tau = 40, 30, 3, 2.0
        ell = np.tile([1, -1], 20)
        mu = np.zeros(p)
        mu[:N] = tau
        X = np.outer(ell, mu)
        out = ht.sparse_agg_test(X, N=N)
        assert out.statistic == pytest.approx(n * tau * math.sqrt(N), rel=1e-12)
        assert out.reject

    def test_greedy_mode_runs(self):
        # the greedy test is the method entry over budget: C(400, 10) is far above it
        rng = np.random.default_rng(89)
        X = rng.standard_normal((30, 400))
        out = sparse_agg_entry(X, N=10)
        objective = sparse_aggregation_greedy(X, 10).objective
        assert out == ht.sparse_agg_outcome(objective, 30, 400, 10)


def sparse_agg_entry(X, N):
    """The sparse_agg_l1 method entry on X, seed 0, with this N."""
    params = ArwParams(p=X.shape[1], theta=0.5, beta=0.5, alpha=0.1)
    return METHODS["sparse_agg_l1"].run(TrialStats(X, params, 0), {"N": N})


def greedy_entry(X, N):
    """sparse_agg_entry with an enumeration budget of 0, so that the greedy search runs."""
    with mock.patch.object(cluster, "DEFAULT_ENUM_BUDGET", 0):
        return sparse_agg_entry(X, N)


@pytest.mark.parametrize(
    "test",
    [
        ht.simple_agg_test,
        lambda X: ht.sparse_agg_test(X, N=2),
        lambda X: greedy_entry(X, N=3),
        ht.higher_criticism_test,
        lambda X: METHODS["higher_criticism"].run(TrialStats(X, ArwParams(p=20, theta=0.5, beta=0.5, alpha=0.1), 0), {}),
        ht.column_pvalues,
    ],
    ids=["agg_chi2", "sparse_exact", "sparse_greedy", "higher_criticism", "higher_criticism_entry", "column_pvalues"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite(test, bad):
    X = np.random.default_rng(92).standard_normal((12, 20))
    X[4, 7] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        test(X)


def uniform_plugin_pvalues(p):
    return np.arange(1, p + 1) / (p + 1)


def hc_of_pvalues(pv):
    """HC of all p P-values: _hc_max of the p // 2 smallest."""
    return ht._hc_max(np.sort(pv)[: pv.size // 2], pv.size)


class TestHigherCriticism:
    def test_uniform_plugin_sequence_small(self):
        p = 10_000
        pv = uniform_plugin_pvalues(p)
        stat = hc_of_pvalues(pv)
        # closed form: sqrt(p) * (i / (p (p+1))) / sqrt(pi (1 - pi)), max at i = p/2
        i = np.arange(1, p // 2 + 1)
        pi = i / (p + 1)
        want = np.max(math.sqrt(p) * (i / p - pi) / np.sqrt(pi * (1 - pi)))
        assert stat == pytest.approx(float(want), rel=1e-12)
        assert 0 < stat < 2.0 * math.sqrt(2 * math.log(math.log(p)))

    def test_pvalue_definition(self):
        rng = np.random.default_rng(90)
        X = rng.standard_normal((30, 50))
        pv = ht.column_pvalues(X)
        n = 30
        norms = np.sum(X * X, axis=0)
        want = np.array([chisq_sf(float(v), n) for v in norms])
        np.testing.assert_allclose(pv, want, rtol=1e-10)

    def test_degenerate_pvalues_skipped(self):
        pv = np.concatenate([[0.0], np.linspace(0.2, 0.9, 19)])
        stat = hc_of_pvalues(pv)
        assert math.isfinite(stat)

    def test_zero_pvalue_is_the_strongest_term(self):
        # an exact 0 is a tail that underflowed: it counts as the smallest positive double
        pv = np.concatenate([[0.0], np.linspace(0.2, 0.9, 19)])
        tiny = np.nextafter(0.0, 1.0)
        assert hc_of_pvalues(pv) == math.sqrt(20) * (1 / 20 - tiny) / math.sqrt(tiny * (1 - tiny))
        assert hc_of_pvalues(np.ones(20)) == -math.inf

    @pytest.mark.parametrize("k", [3, 20])
    def test_overwhelming_signal_rejects(self, k):
        # a shift of 40 sends the shifted columns' chi-square tails to exactly 0; they are
        # the strongest evidence against the null, so HC must reject, and more clearly
        # than at a shift of 3
        def shifted(size):
            X = np.random.default_rng(0).standard_normal((50, 40))
            X[:, :k] += size
            return X

        X = shifted(40.0)
        assert (ht.column_pvalues(X)[:k] == 0.0).all()
        out = ht.higher_criticism_test(X)
        assert out.reject and math.isfinite(out.statistic)
        assert out.statistic > ht.higher_criticism_test(shifted(3.0)).statistic

    def test_null_level(self):
        rej = 0
        for seed in range(40):
            X = np.random.default_rng(1500 + seed).standard_normal((100, 10_000))
            rej += ht.higher_criticism_test(X).reject
        assert rej / 40 <= 0.15

    def test_power_in_sparse_regime(self):
        params = ArwParams(p=10_000, theta=0.5, beta=0.6, alpha=0.05)
        rej = 0
        for seed in range(20):
            ds = gen_dataset(params, seed=1600 + seed)
            rej += ht.higher_criticism_test(ds.X).reject
        assert rej / 20 >= 0.9

    def test_depends_only_on_sorted_pvalues(self):
        rng = np.random.default_rng(91)
        X = rng.standard_normal((40, 64))
        perm = rng.permutation(64)
        a = ht.higher_criticism_test(X)
        b = ht.higher_criticism_test(X[:, perm])
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_rejects_tiny_p(self):
        with pytest.raises(ValueError):
            ht.higher_criticism_test(np.zeros((5, 7)))

    def test_top_half_equals_all_pvalue_oracle(self):
        # the test evaluates tails for the p // 2 largest scores only; the oracle takes every column's
        # P-value, so any difference in which P-values enter, or in their values, breaks equality
        rng = np.random.default_rng(2026)
        sizes = [8, 9, 10, 63, 64, 257, 1000, 1001]
        for k in range(240):
            n, p = int(rng.integers(2, 80)), sizes[k % len(sizes)]
            X = rng.standard_normal((n, p))
            kind = k // len(sizes) % 4
            if kind == 1:  # planted rare signal
                X[:, rng.random(p) < 0.05] += 1.5 * rng.choice([-1.0, 1.0], size=(n, 1))
            elif kind == 2:  # integer entries: many tied scores, some columns all zero (P-value 1)
                X = np.round(0.7 * X)
            elif kind == 3:  # a few columns far out: P-values that underflow to 0
                X[:, :3] *= 40.0
            want = hc_of_pvalues(ht.column_pvalues(X))
            assert ht.higher_criticism_test(X).statistic == want, (k, n, p)
            assert ht.higher_criticism_outcome(chi2_scores(X), n).statistic == want, (k, n, p)


def test_reject_at_threshold():
    # the rejection region is closed: a statistic equal to its threshold rejects
    assert ht.TestOutcome(2.0, 2.0).reject
    assert ht.TestOutcome(2.5, 2.0).reject
    assert not ht.TestOutcome(np.nextafter(2.0, 0.0), 2.0).reject
