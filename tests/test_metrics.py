import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rareweak.metrics import (
    cos_angle,
    hamming_clustering,
    hamming_recovery,
    hamming_recovery_signed,
    wilson_interval,
)


class TestHammingClustering:
    def test_identical(self):
        ell = np.array([1, -1, 1])
        assert hamming_clustering(ell, ell) == 0.0

    def test_global_flip_is_free(self):
        ell = np.array([1, -1, 1, 1])
        assert hamming_clustering(-ell, ell) == 0.0

    def test_random_labels_near_half(self):
        rng = np.random.default_rng(92)
        n = 10_000
        truth = rng.integers(0, 2, n) * 2 - 1
        est = rng.integers(0, 2, n) * 2 - 1
        h = hamming_clustering(est, truth)
        assert 0.47 <= h <= 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_clustering(np.array([1, -1]), np.array([1]))
        with pytest.raises(ValueError, match="^length mismatch$"):
            hamming_recovery_signed(np.array([1.0, 0.0]), np.array([1.0]), 1.0)

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=50))
    def test_simultaneous_flip_invariance(self, labels):
        est = np.asarray(labels)
        rng = np.random.default_rng(7)
        truth = rng.choice([-1, 1], est.size)
        assert hamming_clustering(est, truth) == hamming_clustering(-est, -truth)
        assert hamming_clustering(est, truth) <= 0.5


@pytest.mark.parametrize(
    "loss, needle",
    [
        (lambda: hamming_clustering(np.array([1, 0]), np.array([1, -1])), r"labels must be \+-1"),
        (lambda: hamming_recovery([1], [1], 0.0), "expected_signals must be positive"),
        (lambda: hamming_recovery_signed([1.0], [1.0], -1.0), "expected_signals must be positive"),
    ],
    ids=["labels", "recovery", "signed_recovery"],
)
def test_losses_reject_bad_arguments(loss, needle):
    with pytest.raises(ValueError, match=f"^{needle}$"):
        loss()


class TestHammingRecovery:
    def test_exact(self):
        assert hamming_recovery([1, 2], [1, 2], expected_signals=2.0) == 0.0

    def test_empty_estimate(self):
        assert hamming_recovery([], np.arange(7), expected_signals=7.0) == 1.0

    def test_false_positives_add_linearly(self):
        true = np.arange(5)
        base = hamming_recovery(true, true, expected_signals=10.0)
        plus3 = hamming_recovery(np.arange(8), true, expected_signals=10.0)
        assert plus3 == pytest.approx(base + 3 / 10.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_arithmetic(self, seed):
        # the array count against the symmetric difference of Python sets, on seeded
        # supports with duplicates, empty supports and every overlap in between
        rng = np.random.default_rng(seed)
        for est_size, true_size in ((0, 0), (0, 9), (12, 0), (30, 25), (400, 3), (3, 400)):
            est = rng.integers(0, 60 + 40 * seed, size=est_size)
            true = np.unique(rng.integers(0, 60 + 40 * seed, size=true_size))
            expected = len(set(est.tolist()) ^ set(true.tolist())) / 7.5
            assert hamming_recovery(est, true, expected_signals=7.5) == expected
            assert hamming_recovery(est.tolist(), true[::-1], expected_signals=7.5) == expected

    def test_signed_mirror_cases(self):
        mu = np.array([0.0, 2.0, -2.0])
        assert hamming_recovery_signed(mu, mu, expected_signals=2.0) == 0.0
        est = np.array([0.0, -2.0, 2.0])
        assert hamming_recovery_signed(est, mu, expected_signals=2.0) == 1.0
        rng = np.random.default_rng(93)
        est = rng.choice([-1.0, 0.0, 1.0], size=3)
        brute = sum(np.sign(est[j]) != np.sign(mu[j]) for j in range(3))
        assert hamming_recovery_signed(est, mu, expected_signals=2.0) == pytest.approx(brute / 2.0)


class TestCosAngle:
    def test_equal_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cos_angle(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cos_angle(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_small_perturbation(self):
        rng = np.random.default_rng(94)
        y = rng.standard_normal(200)
        delta = 1e-4 * rng.standard_normal(200)
        got = cos_angle(y + delta, y)
        direct = abs(float((y + delta) @ y)) / (np.linalg.norm(y + delta) * np.linalg.norm(y))
        assert got == pytest.approx(direct, abs=1e-15)
        assert 1.0 - got <= np.linalg.norm(delta) ** 2 / np.linalg.norm(y) ** 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cos_angle(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cos_angle([bad, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            cos_angle([1.0, 1.0], [1.0, bad])

    def test_high_cosine_implies_low_clustering_error(self):
        # diagnostic link between angle and sign mismatches
        rng = np.random.default_rng(95)
        n = 400
        ell = rng.integers(0, 2, n) * 2 - 1
        xi = ell / np.sqrt(n) + 0.005 * rng.standard_normal(n)
        cos = cos_angle(xi, ell)
        ham = hamming_clustering(np.where(xi >= 0, 1, -1), ell)
        assert cos >= 0.99
        assert ham <= 0.01


def test_wilson_interval_contains_point():
    lo, hi = wilson_interval(5, 50)
    assert lo < 0.1 < hi
    assert 0.0 <= lo < hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
