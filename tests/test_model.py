import math
import tracemalloc

import numpy as np
import pytest

from rareweak.model import (
    ArwParams,
    Dataset,
    NoiseSpec,
    diagonal_coloring,
    gen_dataset,
    gen_labels,
    gen_mu,
)


class TestCalibrate:
    def test_n_from_theta(self):
        assert ArwParams(p=10_000, theta=0.5, beta=0.5, alpha=0.3).n == 100

    def test_epsilon_and_expected_signals(self):
        params = ArwParams(p=10_000, theta=0.5, beta=0.5, alpha=0.3)
        assert params.epsilon == pytest.approx(0.01, rel=1e-12)
        assert params.expected_signals == pytest.approx(100.0, rel=1e-12)

    def test_tau_star_formula(self):
        params = ArwParams(p=10_000, theta=0.6, beta=0.5, r=0.5)
        want = 10_000 ** (-0.15) * (4 * 0.5 * math.log(10_000)) ** 0.25
        assert params.tau == pytest.approx(want, abs=1e-12)

    def test_null_model_tau_zero(self):
        params = ArwParams(p=1000, theta=0.5, beta=0.3, alpha=math.inf)
        assert params.tau == 0.0

    def test_rejects_tiny_n(self):
        # rejected when built, so no trial or sweep cell is ever drawn with it
        for p, theta in [(100, 0.01), (100, 0.05), (2, 0.5)]:
            with pytest.raises(ValueError, match="calibration gives n=1 < 2$"):
                ArwParams(p=p, theta=theta, beta=0.5, alpha=0.3)
        assert ArwParams(p=3, theta=0.5, beta=0.5, alpha=0.3).n == 2

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ArwParams(p=100, theta=0.5, beta=0.5)  # neither alpha nor r
        with pytest.raises(ValueError):
            ArwParams(p=100, theta=0.5, beta=0.5, alpha=0.2, r=0.3)  # both
        with pytest.raises(ValueError):
            ArwParams(p=100, theta=0.5, beta=0.5, r=1.5)
        with pytest.raises(ValueError):
            ArwParams(p=100, theta=0.5, beta=0.5, alpha=0.2, sign_mix_a=0.7)
        with pytest.raises(ValueError, match="alpha must be positive"):
            ArwParams(p=100, theta=0.5, beta=0.5, alpha=math.nan)
        assert ArwParams(p=100, theta=0.5, beta=0.5, alpha=math.inf).tau == 0.0
        for p in (300.5, True, 1, "300"):
            with pytest.raises(ValueError, match="p must be an integer of at least 2"):
                ArwParams(p=p, theta=0.5, beta=0.5, alpha=0.2)
        params = ArwParams(p=np.int64(300), theta=0.5, beta=0.5, alpha=0.2)
        assert params.p == 300 and type(params.p) is int

    @pytest.mark.parametrize(
        "edit, needle",
        [
            ({"alpha": "nan"}, "alpha must be positive"),
            ({"alpha": math.nan}, "alpha must be positive"),
            ({"p": 300.9}, "field 'p' must be an integer"),
            ({"p": True}, "field 'p' must be an integer"),
            ({"p": "300"}, "field 'p' must be an integer"),
        ],
    )
    def test_from_dict_rejects(self, edit, needle):
        with pytest.raises(ValueError, match=needle):
            ArwParams.from_dict({"p": 300, "theta": 0.5, "beta": 0.4, "alpha": 0.15, **edit})

    def test_from_dict_integral_p(self):
        base = {"theta": 0.5, "beta": 0.4, "alpha": "inf"}
        params = ArwParams.from_dict({"p": 300.0, **base})
        assert params.p == 300 and type(params.p) is int
        assert params == ArwParams.from_dict({"p": 300, **base})
        assert math.isinf(params.alpha)


class TestGenLabels:
    def test_support(self):
        lab = gen_labels(1, np.random.default_rng(3))
        assert lab[0] in (-1, 1)

    def test_mean_binomial_ci(self):
        n = 100_000
        lab = gen_labels(n, np.random.default_rng(11))
        assert abs(lab.mean()) <= 4.0 / math.sqrt(n)

    def test_deterministic(self):
        a = gen_labels(64, np.random.default_rng(5))
        b = gen_labels(64, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestGenMu:
    def test_degenerate_epsilon_one(self):
        mu, support = gen_mu(50, 1.0, 2.5, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(mu, 2.5)
        assert support.size == 50

    def test_support_size_binomial(self):
        p, eps = 1_000_000, 0.01
        mu, support = gen_mu(p, eps, 1.0, 0.0, np.random.default_rng(21))
        sigma = math.sqrt(p * eps * (1 - eps))
        assert abs(support.size - p * eps) <= 6 * sigma

    def test_sign_balance(self):
        p, eps = 1_000_000, 0.01
        mu, support = gen_mu(p, eps, 1.0, 0.5, np.random.default_rng(22))
        neg = int(np.sum(mu < 0))
        pos = int(np.sum(mu > 0))
        sigma = math.sqrt(support.size * 0.25)
        assert abs(neg - pos) <= 8 * sigma

    def test_tau_zero_gives_null(self):
        mu, support = gen_mu(100, 0.3, 0.0, 0.0, np.random.default_rng(1))
        assert support.size == 0
        assert not mu.any()


class TestGenDataset:
    def params(self, **kw):
        base = dict(p=400, theta=0.5, beta=0.4, alpha=0.2)
        base.update(kw)
        return ArwParams(**base)

    def test_null_column_norms(self):
        params = self.params(alpha=math.inf, p=2_000)
        ds = gen_dataset(params, seed=9)
        norms = np.sum(ds.X**2, axis=0)
        assert norms.mean() == pytest.approx(params.n, rel=0.05)
        assert ds.support.size == 0

    def test_noise_frobenius_concentration(self):
        params = self.params(p=5_000)
        ds = gen_dataset(params, seed=13)
        resid = ds.X - np.outer(ds.labels, ds.mu)
        total = float(np.sum(resid**2))
        npq = params.n * params.p
        assert abs(total - npq) <= 6 * math.sqrt(2 * npq)

    def test_rank_one_signal_exact(self):
        params = self.params()
        ds = gen_dataset(params, seed=4)
        # regenerating with tau = 0 and the same seed isolates the noise
        null = gen_dataset(self.params(alpha=math.inf), seed=4)
        resid = ds.X - np.outer(ds.labels, ds.mu)
        off = np.setdiff1d(np.arange(params.p), ds.support)
        np.testing.assert_array_equal(resid[:, off], null.X[:, off])  # bitwise off-support
        np.testing.assert_allclose(resid, null.X, atol=1e-12, rtol=0)

    def test_identity_coloring_bitwise_equal_to_white(self):
        params = self.params()
        white = gen_dataset(params, NoiseSpec.white(), seed=17)
        eye = NoiseSpec.colored(A=np.eye(params.n), B=np.eye(params.p))
        colored = gen_dataset(params, eye, seed=17)
        np.testing.assert_array_equal(white.X, colored.X)

    def test_coloring_changes_noise(self):
        params = self.params()
        B = diagonal_coloring(params.p, cond=9.0)
        colored = gen_dataset(params, NoiseSpec.colored(B=B), seed=17)
        white = gen_dataset(params, seed=17)
        assert not np.array_equal(colored.X, white.X)
        s = np.linalg.svd(B, compute_uv=False)
        assert s[0] == pytest.approx(3.0, rel=1e-9)
        assert 1.0 / s[-1] == pytest.approx(3.0, rel=1e-9)

    def test_dimension_mismatch_rejected(self):
        params = self.params()
        with pytest.raises(ValueError):
            gen_dataset(params, NoiseSpec.colored(A=np.eye(3)), seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_non_finite_coloring_rejected(self, side, bad):
        m = np.eye(4)
        m[2, 1] = bad
        with pytest.raises(ValueError, match=f"coloring matrix {side} must be finite"):
            NoiseSpec.colored(**{side: m})

    @pytest.mark.parametrize(
        "build, needle",
        [
            (lambda: NoiseSpec(kind="pink"), "kind must be 'white' or 'colored', got 'pink'"),
            (lambda: NoiseSpec(kind="white", A=np.eye(3)), "white noise takes no coloring matrices"),
            (lambda: NoiseSpec(kind="white", B=np.eye(3)), "white noise takes no coloring matrices"),
            (lambda: diagonal_coloring(5, 0.5), "cond must be >= 1"),
            (lambda: gen_labels(0, np.random.default_rng(0)), "n must be at least 1"),
            (lambda: gen_mu(5, 0.0, 1.0, 0.0, np.random.default_rng(0)), r"epsilon must lie in \(0, 1\]"),
            (lambda: gen_mu(5, 1.5, 1.0, 0.0, np.random.default_rng(0)), r"epsilon must lie in \(0, 1\]"),
            (lambda: gen_mu(5, 0.5, -1.0, 0.0, np.random.default_rng(0)), "tau must be nonnegative"),
            (lambda: gen_mu(5, 0.5, 1.0, 0.6, np.random.default_rng(0)), r"sign_mix_a must lie in \[0, 1/2\]"),
        ],
        ids=["kind", "white_A", "white_B", "cond", "labels_n", "epsilon_0", "epsilon_big", "tau", "sign_mix_a"],
    )
    def test_bad_noise_and_draw_arguments_rejected(self, build, needle):
        with pytest.raises(ValueError, match=f"^{needle}$"):
            build()

    @staticmethod
    def outer_product_reference(params, noise, seed):
        """outer(labels, mu) + Z built from the same three child streams as gen_dataset."""
        n, epsilon, tau = params.n, params.epsilon, params.tau
        ss_labels, ss_mu, ss_noise = np.random.SeedSequence(seed).spawn(3)
        labels = gen_labels(n, np.random.default_rng(ss_labels))
        mu, _ = gen_mu(params.p, epsilon, tau, params.sign_mix_a, np.random.default_rng(ss_mu))
        Z = np.random.default_rng(ss_noise).standard_normal((n, params.p))
        if noise.A is not None:
            Z = noise.A @ Z
        if noise.B is not None:
            Z = Z @ noise.B
        return np.outer(labels, mu) + Z

    @pytest.mark.parametrize(
        "kw, coloring",
        [({}, None), ({}, "AB"), ({}, "B"), ({"sign_mix_a": 0.5}, None), ({"sign_mix_a": 0.5}, "A"),
         ({"alpha": math.inf}, None), ({"alpha": math.inf}, "AB")],
        ids=["white", "colored-AB", "colored-B", "mixed-signs", "mixed-signs-colored-A", "null", "null-colored"],
    )
    def test_in_place_signal_matches_outer_product(self, kw, coloring):
        params = self.params(**kw)
        noise = NoiseSpec.white()
        if coloring:
            rng = np.random.default_rng(7)
            noise = NoiseSpec.colored(
                A=np.eye(params.n) + 0.1 * rng.standard_normal((params.n, params.n)) if "A" in coloring else None,
                B=diagonal_coloring(params.p, 4.0) if "B" in coloring else None,
            )
        for seed in (0, 31):
            ds = gen_dataset(params, noise, seed=seed)
            assert (ds.support.size == 0) == math.isinf(params.alpha)
            assert ds.X.tobytes() == self.outer_product_reference(params, noise, seed).tobytes()

    def test_generation_holds_one_matrix(self):
        params = ArwParams(p=20_000, theta=0.5, beta=0.4, alpha=0.2)  # n = 141
        tracemalloc.start()
        try:
            ds = gen_dataset(params, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * ds.X.nbytes

    def test_reproducible_bitwise(self):
        params = self.params(sign_mix_a=0.25)
        a = gen_dataset(params, seed=123)
        b = gen_dataset(params, seed=123)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.mu, b.mu)
        c = gen_dataset(params, seed=124)
        assert not np.array_equal(a.X, c.X)


class TestSerialization:
    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((2, 2)), labels=np.array([1, 2]))
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((2, 3)), mu=np.array([0.0, 1.0, 0.0]), support=np.array([2]))
        ds = Dataset(X=np.zeros((2, 3)), mu=np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(ds.support, [1])
