import itertools
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareweak import harness
from rareweak.cluster import (
    EnumerationBudgetError,
    _candidate_values,
    _greedy_search,
    classical_pca,
    default_sparsity,
    enum_configs,
    if_pca,
    kmeans_1d_two,
    simple_aggregation,
    signed_sparse_aggregation,
    sparse_aggregation_exact,
    sparse_aggregation_greedy,
)
from rareweak.metrics import cos_angle, hamming_clustering
from rareweak.model import ArwParams, gen_dataset
from rareweak.spectral import q_star


def rank_one(ell, mu):
    return np.outer(np.asarray(ell, dtype=float), np.asarray(mu, dtype=float))


class TestSimpleAggregation:
    def test_exact_signal(self):
        ell = np.array([1, -1, 1, 1, -1])
        X = rank_one(ell, np.ones(7))
        np.testing.assert_array_equal(simple_aggregation(X).labels, ell)

    def test_global_flip(self):
        ell = np.array([1, -1, 1])
        X = rank_one(-ell, np.ones(4))
        np.testing.assert_array_equal(simple_aggregation(X).labels, -ell)

    def test_sgn_zero_is_plus_one(self):
        X = np.zeros((3, 2))
        np.testing.assert_array_equal(simple_aggregation(X).labels, [1, 1, 1])

    @pytest.mark.slow
    def test_deep_possibility_monte_carlo(self):
        # far below the aggregation boundary the error vanishes
        params = ArwParams(p=10_000, theta=0.5, beta=0.1, alpha=0.2)
        errs = [
            hamming_clustering(
                simple_aggregation(gen_dataset(params, seed=100 + s).X).labels,
                gen_dataset(params, seed=100 + s).labels,
            )
            for s in range(20)
        ]
        assert float(np.mean(errs)) < 0.05


class TestSparseAggregationExact:
    def test_full_set_equals_simple(self):
        rng = np.random.default_rng(60)
        X = rng.standard_normal((8, 5))
        full = sparse_aggregation_exact(X, N=5)
        np.testing.assert_array_equal(full.labels, simple_aggregation(X).labels)

    def test_hand_built_signal_pair(self):
        rng = np.random.default_rng(61)
        n, ell = 20, np.array([1] * 10 + [-1] * 10)
        mu = np.zeros(6)
        mu[[0, 1]] = 5.0
        X = rank_one(ell, mu) + rng.standard_normal((n, 6))
        res = sparse_aggregation_exact(X, N=2)
        assert set(res.selected.tolist()) == {0, 1}
        assert hamming_clustering(res.labels, ell) == 0.0

    def test_single_column_max_l1(self):
        rng = np.random.default_rng(62)
        X = rng.standard_normal((12, 7))
        X[:, 3] *= 20.0
        res = sparse_aggregation_exact(X, N=1)
        np.testing.assert_array_equal(res.selected, [3])

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(63)
        X = rng.standard_normal((9, 8))
        res = sparse_aggregation_exact(X, N=3)
        best = max(
            itertools.combinations(range(8), 3),
            key=lambda S: float(np.abs(X[:, S].sum(axis=1)).sum()),
        )
        assert set(res.selected.tolist()) == set(best)
        assert res.objective == pytest.approx(float(np.abs(X[:, best].sum(axis=1)).sum()), rel=1e-12)

    def test_budget_error_names_greedy(self):
        X = np.zeros((2, 40))
        with pytest.raises(EnumerationBudgetError, match="greedy"):
            sparse_aggregation_exact(X, N=20, budget=1000)


def enumeration_oracle(X, N, signs):
    """Plain-loop search over (support, sign pattern) pairs, first sign fixed at +1.

    Supports in itertools.combinations order, patterns in
    itertools.product order; the first best pair wins.
    """
    best_obj, best_support, best_pattern = -math.inf, None, None
    patterns = [(1,) + rest for rest in itertools.product(signs, repeat=N - 1)]
    for support in itertools.combinations(range(X.shape[1]), N):
        cols = X[:, support]
        for pattern in patterns:
            obj = float(np.abs(cols @ np.asarray(pattern, dtype=float)).sum())
            if obj > best_obj:
                best_obj, best_support, best_pattern = obj, support, pattern
    return best_support, best_pattern, best_obj


def oracle_instances():
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        n, p = int(rng.integers(2, 9)), int(rng.integers(2, 8))
        # integer entries make exact ties, which exercise the tie-break
        X = rng.integers(-2, 3, (n, p)).astype(float) if seed % 2 else rng.standard_normal((n, p))
        N = p if seed % 10 == 0 else int(rng.integers(1, p + 1))
        yield X, N
    # several enumeration chunks: repeated columns tie across chunk
    # boundaries, and at p = N = 12 one support's 2^11 sign patterns are
    # split over chunks
    rng = np.random.default_rng(1100)
    yield rng.integers(-1, 2, (100, 4)).astype(float)[:, [0, 1, 2, 3, 0, 1, 2, 3]], 4
    yield rng.integers(-1, 2, (10, 12)).astype(float), 12


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["unsigned", "signed"])
def test_exact_matches_enumeration_oracle(signs):
    for X, N in oracle_instances():
        if signs == (1,):
            res = sparse_aggregation_exact(X, N)
            pattern = np.ones(N)
        else:
            res = signed_sparse_aggregation(X, N)
            pattern = res.mu_hat[res.selected]
        support, want_pattern, want_obj = enumeration_oracle(X, N, signs)
        assert res.selected.tolist() == list(support)
        assert pattern.tolist() == list(want_pattern)
        assert res.objective == pytest.approx(want_obj, rel=1e-12)


def improving_swap(X, weights, signs):
    """A (column, sign, new column) exchange raising ||X w||_1 by more than 1e-9, or None.

    The vacated slot may be refilled from any column outside the other
    chosen ones, so a signed weight may also flip its own sign.
    """
    chosen = np.flatnonzero(weights)
    running = X @ weights
    obj = np.abs(running).sum()
    for i in chosen:
        base = running - weights[i] * X[:, i]
        others = np.setdiff1d(chosen, [i])
        for s in signs:
            vals = np.abs(base[:, None] + s * X).sum(axis=0)
            vals[others] = -np.inf
            if vals.max() > obj + 1e-9:
                return int(i), s, int(np.argmax(vals))
    return None


def greedy_instances():
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        n, p, N = 30, 60, 4
        ell = rng.integers(0, 2, n) * 2 - 1
        mu = np.zeros(p)
        mu[rng.choice(p, N, replace=False)] = rng.choice([-0.8, 0.8], N)
        yield seed, rank_one(ell, mu) + rng.standard_normal((n, p)), N
    # tiny instances, half of them with p = N, where the only signed swap
    # left is flipping a chosen column's sign
    for seed in range(10, 210):
        rng = np.random.default_rng(500 + seed)
        n, p = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        yield seed, rng.standard_normal((n, p)), p if seed % 2 else int(rng.integers(1, p + 1))


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["unsigned", "signed"])
def test_greedy_is_one_swap_optimal(signs):
    for seed, X, N in greedy_instances():
        p = X.shape[1]
        if signs == (1,):
            res = sparse_aggregation_greedy(X, N, restarts=3, seed=seed)
            w = np.zeros(p)
            w[res.selected] = 1.0
        else:
            res = signed_sparse_aggregation(X, N, greedy=True, restarts=3, seed=seed)
            w = res.mu_hat
        assert np.count_nonzero(w) == N
        assert improving_swap(X, w, signs) is None
        assert res.objective == pytest.approx(float(np.abs(X @ w).sum()), rel=1e-10)


def greedy_solve(X, N, signs, seed):
    """(support, sign pattern, objective) of the greedy search over ``signs``."""
    if signs == (1,):
        res = sparse_aggregation_greedy(X, N, restarts=3, seed=seed)
        return res.selected.tolist(), [1.0] * N, res.objective
    res = signed_sparse_aggregation(X, N, greedy=True, restarts=3, seed=seed)
    return res.selected.tolist(), res.mu_hat[res.selected].tolist(), res.objective


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["unsigned", "signed"])
def test_greedy_result_independent_of_layout(signs):
    # the result must not depend on X's memory layout
    for seed, X, N in greedy_instances():
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((X.shape[0], 2 * X.shape[1]))
        cols = rng.permutation(wide.shape[1])[: X.shape[1]]
        wide[:, cols] = X
        want = greedy_solve(np.ascontiguousarray(X), N, signs, seed)
        for Y in (np.asfortranarray(X), wide[:, cols]):
            assert greedy_solve(Y, N, signs, seed) == want, seed


def greedy_reference(X, N, signs, restarts, seed):
    """The greedy search as it ran before candidates were scored from one product.

    Each candidate step writes ||b + s x_j||_1 for all p columns from a
    full n-by-p pass per sign, and a swap sweep does so once per slot.
    Returns the sorted support, its signs, the weighted column sum and
    its L1 norm, as _greedy_search does.
    """
    n, p = X.shape

    def best_candidate(base, blocked):
        best = None
        for s in signs:
            vals = np.abs(base[:, None] + s * X).sum(axis=0)
            vals[blocked] = -np.inf
            j = int(np.argmax(vals))
            if best is None or vals[j] > best[0]:
                best = (float(vals[j]), j, s)
        return best

    rng = np.random.default_rng(seed)
    firsts = [None] + [int(rng.integers(p)) for _ in range(max(0, restarts - 1))]
    best = None
    for first in firsts:
        chosen, weights, running = [], [], np.zeros(n)
        if first is not None:
            chosen, weights = [first], [1]
            running = running + X[:, first]
        while len(chosen) < N:
            _, j, s = best_candidate(running, chosen)
            chosen.append(j)
            weights.append(s)
            running = running + s * X[:, j]
        obj = float(np.abs(running).sum())
        for _ in range(50):
            best_gain, best_move = 1e-9, None
            for pos, i in enumerate(chosen):
                val, j, s = best_candidate(running - weights[pos] * X[:, i], chosen[:pos] + chosen[pos + 1 :])
                if val - obj > best_gain:
                    best_gain, best_move = val - obj, (pos, j, s)
            if best_move is None:
                break
            pos, j, s = best_move
            running = running - weights[pos] * X[:, chosen[pos]] + s * X[:, j]
            chosen[pos], weights[pos] = j, s
            obj = float(np.abs(running).sum())
        if best is None or obj > best[0] + 1e-12:
            best = (obj, chosen, weights, running)
    obj, chosen, weights, running = best
    order = np.argsort(chosen)
    pattern = np.asarray(weights, dtype=float)[order]
    if pattern[0] < 0:
        pattern, running = -pattern, -running
    return np.asarray(chosen)[order], pattern, running, obj


def reference_instances():
    """(label, X, N, restarts, seed): 240 small seeded instances and four at p = 2000."""
    for i in range(240):
        rng = np.random.default_rng([41, i])
        n = 2 if i % 8 == 0 else int(rng.integers(2, 40))
        p = int(rng.integers(2, 60))
        # integer entries make exact ties between candidates
        X = rng.integers(-2, 3, (n, p)).astype(float) if i % 3 == 0 else rng.standard_normal((n, p))
        if i % 4 == 1:
            X = np.asfortranarray(X)
        elif i % 4 == 2:
            wide = rng.standard_normal((n, 2 * p))
            wide[:, ::2] = X
            X = wide[:, ::2]
        N = p if i % 5 == 0 else int(rng.integers(1, min(p, 15) + 1))
        yield f"small {i}", X, N, int(rng.integers(1, 5)), i
    spec = harness.SweepSpec(p=2000, theta=0.5, betas=(0.66, 0.68), strength_kind="alpha", strengths=(0.1,), reps=1,
                             methods={"sparse_agg_greedy": {}})
    for i, beta in enumerate((0.66, 0.68, 0.66, 0.68)):
        params = spec.cell_params(beta, spec.strengths[0])
        yield f"p=2000 {i}", gen_dataset(params, seed=70 + i).X, default_sparsity(params.expected_signals), 8, i


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["unsigned", "signed"])
def test_greedy_matches_reference(signs):
    seen = {"integer": 0, "N=p": 0, "n=2": 0, "fortran": 0, "strided": 0}
    for label, X, N, restarts, seed in reference_instances():
        support, pattern, running, obj = _greedy_search(X, N, signs, restarts, seed)
        want = greedy_reference(X, N, signs, restarts, seed)
        assert support.tolist() == want[0].tolist(), label
        assert pattern.tolist() == want[1].tolist(), label
        assert running.tobytes() == want[2].tobytes(), label
        assert obj == want[3], label
        seen["integer"] += bool(np.all(X == np.round(X)))
        seen["N=p"] += N == X.shape[1]
        seen["n=2"] += X.shape[0] == 2
        seen["fortran"] += not X.flags.c_contiguous and X.flags.f_contiguous
        seen["strided"] += not X.flags.c_contiguous and not X.flags.f_contiguous
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["unsigned", "signed"])
def test_candidate_values_match_direct_sums(signs):
    rng = np.random.default_rng(42)
    for i in range(40):
        n, p = int(rng.integers(1, 30)), int(rng.integers(1, 80))
        X = rng.integers(-3, 4, (n, p)).astype(float) if i % 4 == 0 else rng.standard_normal((n, p))
        with_zeros = rng.standard_normal(n) * 4
        with_zeros[rng.random(n) < 0.5] = 0.0
        # random bases of several scales (wide ones need few rows of
        # X gathered, zero ones need all), bases with zero entries, and
        # enough bases that the gathered rows exceed n and are chunked
        B = np.column_stack(
            [rng.standard_normal(n) * scale for scale in (0.1, 1.0, 3.0, 20.0)]
            + [np.zeros(n), with_zeros, X[:, : min(p, 3)].sum(axis=1)]
            + [rng.standard_normal(n) for _ in range(int(rng.integers(0, 6)))]
        )
        vals = _candidate_values(B, X, signs, np.abs(X).max(axis=1), np.empty((n, p)))
        assert vals.shape == (B.shape[1], len(signs), p)
        for k in range(B.shape[1]):
            for si, s in enumerate(signs):
                want = np.abs(B[:, k][:, None] + s * X).sum(axis=0)
                np.testing.assert_allclose(vals[k, si], want, rtol=1e-12, err_msg=f"instance {i}, base {k}, sign {s}")


def test_concurrent_searches_match_serial():
    rng = np.random.default_rng(43)
    inputs = [(rng.standard_normal((40, 600)), 10, signs) for signs in ((1,), (1, -1))]

    def solve(X, N, signs):
        support, pattern, running, obj = _greedy_search(X, N, signs, 8, 3)
        return support.tolist(), pattern.tolist(), running.tobytes(), obj

    want = [solve(*args) for args in inputs]
    got = [None, None]
    together = threading.Barrier(2, timeout=60)

    def run(i):
        with harness._one_blas_thread():
            together.wait()
            got[i] = solve(*inputs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert got == want


class TestSparseAggregationGreedy:
    def test_never_beats_exact(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            X = rng.standard_normal((10, 12))
            ex = sparse_aggregation_exact(X, N=3)
            gr = sparse_aggregation_greedy(X, N=3, seed=1)
            assert gr.objective <= ex.objective + 1e-9

    def test_n1_equals_exact(self):
        rng = np.random.default_rng(65)
        X = rng.standard_normal((15, 9))
        ex = sparse_aggregation_exact(X, N=1)
        gr = sparse_aggregation_greedy(X, N=1, restarts=1)
        np.testing.assert_array_equal(gr.selected, ex.selected)
        assert gr.objective == pytest.approx(ex.objective, rel=1e-12)

    def test_strong_signal_recovers_exact_support(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            n, p, N, tau = 30, 16, 3, 1.5
            ell = rng.integers(0, 2, n) * 2 - 1
            mu = np.zeros(p)
            mu[rng.choice(p, N, replace=False)] = tau
            X = rank_one(ell, mu) + rng.standard_normal((n, p))
            ex = sparse_aggregation_exact(X, N)
            gr = sparse_aggregation_greedy(X, N, restarts=8, seed=seed)
            hits += set(gr.selected.tolist()) == set(ex.selected.tolist())
        assert hits >= 90

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(66)
        X = rng.standard_normal((10, 30))
        a = sparse_aggregation_greedy(X, N=4, seed=5)
        b = sparse_aggregation_greedy(X, N=4, seed=5)
        np.testing.assert_array_equal(a.selected, b.selected)
        assert a.objective == b.objective

    @pytest.mark.parametrize(
        "seed, support, objective",
        [
            (0, [5, 10, 71, 73, 78], 109.66898964447007),
            (1, [9, 10, 35, 76, 78], 94.61632439991683),
            (2, [6, 31, 59, 70, 74], 109.02325437765009),
            (3, [6, 24, 39, 46, 72], 103.4956558680684),
            (4, [36, 52, 64, 74, 79], 126.02247261682739),
        ],
    )
    def test_pinned_outputs(self, seed, support, objective):
        # recorded from the separate unsigned forward + 1-swap solver that
        # the shared engine replaced; the objective must match to the bit
        rng = np.random.default_rng(900 + seed)
        ell = rng.integers(0, 2, 25) * 2 - 1
        mu = np.zeros(80)
        mu[rng.choice(80, 5, replace=False)] = 0.8
        X = rank_one(ell, mu) + rng.standard_normal((25, 80))
        res = sparse_aggregation_greedy(X, N=5, restarts=4, seed=seed)
        assert res.selected.tolist() == support
        assert res.objective == objective


class TestClassicalPca:
    def test_noiseless_rank_one(self):
        ell = np.array([1, -1, -1, 1, 1, -1])
        mu = np.array([0.0, 2.0, 0.0, -1.0, 3.0])
        res = classical_pca(rank_one(ell, mu))
        assert hamming_clustering(res.labels, ell) == 0.0

    def test_pure_noise_uncorrelated(self):
        n = 400
        fixed = np.ones(n, dtype=np.int64)
        rng = np.random.default_rng(67)
        cosines = []
        for _ in range(5):
            res = classical_pca(rng.standard_normal((n, 800)))
            cosines.append(cos_angle(res.singular.vector, fixed))
        assert float(np.median(cosines)) < 3.0 / math.sqrt(n)

    def test_rejects_nan(self):
        X = np.random.default_rng(70).standard_normal((20, 60))
        X[4, 7] = math.nan
        with pytest.raises(ValueError, match="finite"):
            classical_pca(X)

    @pytest.mark.slow
    def test_moderate_sparsity_monte_carlo(self):
        # beta between (1-theta)/2 and 1/2, alpha well below the tractable curve
        params = ArwParams(p=10_000, theta=0.6, beta=0.3, alpha=0.125)
        errs = []
        for seed in range(20):
            ds = gen_dataset(params, seed=5000 + seed)
            errs.append(hamming_clustering(classical_pca(ds.X).labels, ds.labels))
        assert float(np.mean(errs)) < 0.05


class TestIfPca:
    def test_tiny_q_matches_classical(self):
        rng = np.random.default_rng(68)
        X = rng.standard_normal((30, 200)) + 1.0
        res = if_pca(X, q=1e-18)
        ref = classical_pca(X)
        assert res.selected.size >= 180
        assert hamming_clustering(res.labels, ref.labels) <= 0.05

    def test_noiseless_strong_columns(self):
        ell = np.array([1, -1, 1, -1, 1, 1, -1, -1])
        mu = np.zeros(40)
        mu[[3, 17]] = 6.0
        res = if_pca(rank_one(ell, mu), q=1.0)
        assert hamming_clustering(res.labels, ell) == 0.0
        assert set(res.selected.tolist()) == {3, 17}

    def test_empty_screen_falls_back(self):
        rng = np.random.default_rng(69)
        X = rng.standard_normal((25, 150))
        res = if_pca(X, q=50.0)
        assert res.fallback_used
        assert res.selected.size == 0
        np.testing.assert_array_equal(res.labels, classical_pca(X).labels)

    @pytest.mark.parametrize("q", [0.1, 50.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad, q):
        # q=0.1 screens the bad column in or out; q=50 empties the screen
        X = np.random.default_rng(71).standard_normal((20, 60))
        X[4, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            if_pca(X, q=q)

    @pytest.mark.slow
    def test_cosine_transition_monte_carlo(self):
        # the screened leading direction aligns with the labels above the
        # transition curve and stays far from them below it; the absolute
        # level on the good side is the Monte Carlo value at this scale
        theta, beta, p = 0.4, 0.75, 10_000
        good = ArwParams(p=p, theta=theta, beta=beta, r=0.6)
        bad = ArwParams(p=p, theta=theta, beta=beta, r=0.15)
        cos_good, cos_bad = [], []
        for seed in range(10):
            ds = gen_dataset(good, seed=4000 + seed)
            res = if_pca(ds.X, q_star(theta, beta, good.r))
            cos_good.append(cos_angle(res.singular.vector, ds.labels))
            ds = gen_dataset(bad, seed=4000 + seed)
            res = if_pca(ds.X, q_star(theta, beta, bad.r))
            if res.selected.size:
                cos_bad.append(cos_angle(res.singular.vector, ds.labels))
        assert float(np.mean(cos_good)) >= 0.70  # measured 0.80 on these seeds
        # proven ceiling below the curve, with the conjectured decay visible
        assert max(cos_bad) <= 0.95
        assert float(np.mean(cos_good)) - float(np.mean(cos_bad)) >= 0.4


@pytest.mark.parametrize(
    "route",
    [
        simple_aggregation,
        lambda X: sparse_aggregation_exact(X, N=2),
        lambda X: sparse_aggregation_greedy(X, N=3, restarts=2),
        lambda X: signed_sparse_aggregation(X, N=2),
        lambda X: signed_sparse_aggregation(X, N=3, greedy=True, restarts=2),
    ],
    ids=["simple", "exact", "greedy", "signed_exact", "signed_greedy"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_aggregation_rejects_non_finite(route, bad):
    X = np.random.default_rng(72).standard_normal((12, 20))
    X[4, 7] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        route(X)


N_COLUMN_SEARCHES = pytest.mark.parametrize(
    "route",
    [
        lambda X: sparse_aggregation_exact(X, N=3),
        lambda X: sparse_aggregation_greedy(X, N=3, restarts=2),
        lambda X: signed_sparse_aggregation(X, N=3),
        lambda X: signed_sparse_aggregation(X, N=3, greedy=True, restarts=2),
    ],
    ids=["exact", "greedy", "signed_exact", "signed_greedy"],
)


@N_COLUMN_SEARCHES
@pytest.mark.parametrize("where", ["one_row", "every_row", "headroom"])
def test_aggregation_rejects_overflowing_sums(route, where):
    # finite X whose 3-column sums may overflow: two entries of 1e308 in one row, or one
    # in every row (the bound's own sum over rows overflows then); or three of 5e307 in
    # one row, whose sum 1.5e308 fits but whose greedy scorer terms (2|b| = 2e308) do
    # not. No sum is formed, so no RuntimeWarning is raised on the way to the error.
    X = np.random.default_rng(73).standard_normal((6, 10))
    if where == "one_row":
        X[2, [3, 5]] = 1e308
    elif where == "every_row":
        X[:, 4] = -1e308
    else:
        X[2, [3, 5, 7]] = 5e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sums of 3 columns of X may overflow"):
            route(X)


@N_COLUMN_SEARCHES
def test_aggregation_takes_large_finite_sums(route):
    # entries of 1e300 leave ample headroom: the search runs, and agrees with the
    # same data scaled down to unit size
    X = np.random.default_rng(74).standard_normal((6, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big, unit = route(1e300 * X), route(X)
    np.testing.assert_array_equal(big.selected, unit.selected)
    assert big.objective == pytest.approx(1e300 * unit.objective, rel=1e-12)


class TestSignedSparseAggregation:
    def test_positive_signals_match_unsigned_objective(self):
        rng = np.random.default_rng(70)
        n, p, N = 15, 10, 2
        ell = rng.integers(0, 2, n) * 2 - 1
        mu = np.zeros(p)
        mu[[1, 4]] = 2.0
        X = rank_one(ell, mu) + rng.standard_normal((n, p))
        signed = signed_sparse_aggregation(X, N)
        unsigned = sparse_aggregation_exact(X, N)
        assert signed.objective >= unsigned.objective - 1e-9
        assert np.all(signed.mu_hat[signed.selected] > 0) or np.all(
            signed.mu_hat[signed.selected] < 0
        )

    def test_n1_picks_max_l1_column(self):
        rng = np.random.default_rng(71)
        X = rng.standard_normal((12, 6))
        X[:, 2] *= -15.0
        res = signed_sparse_aggregation(X, N=1)
        np.testing.assert_array_equal(res.selected, [2])

    def test_mixed_sign_recovery(self):
        rng = np.random.default_rng(72)
        n, p = 40, 8
        ell = rng.integers(0, 2, n) * 2 - 1
        mu = np.zeros(p)
        mu[1], mu[5] = 3.0, -3.0
        X = rank_one(ell, mu) + rng.standard_normal((n, p))
        res = signed_sparse_aggregation(X, N=2)
        assert set(res.selected.tolist()) == {1, 5}
        pattern = res.mu_hat[[1, 5]]
        assert tuple(pattern) in ((1.0, -1.0), (-1.0, 1.0))
        assert hamming_clustering(res.labels, ell) == 0.0

    def test_greedy_not_above_exact(self):
        rng = np.random.default_rng(73)
        for seed in range(10):
            X = rng.standard_normal((10, 9))
            ex = signed_sparse_aggregation(X, N=3)
            gr = signed_sparse_aggregation(X, N=3, greedy=True, seed=seed)
            assert gr.objective <= ex.objective + 1e-9

    def test_greedy_deterministic_given_seed(self):
        rng = np.random.default_rng(74)
        X = rng.standard_normal((10, 30))
        a = signed_sparse_aggregation(X, N=4, greedy=True, seed=5)
        b = signed_sparse_aggregation(X, N=4, greedy=True, seed=5)
        np.testing.assert_array_equal(a.selected, b.selected)
        np.testing.assert_array_equal(a.mu_hat, b.mu_hat)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.objective == b.objective

    def test_budget_error(self):
        X = np.zeros((2, 30))
        with pytest.raises(EnumerationBudgetError):
            signed_sparse_aggregation(X, N=15, budget=100)

    def test_budget_charges_evaluated_pairs(self):
        # p = N = 5: one support with 2^4 sign patterns, the first sign fixed
        X = np.random.default_rng(75).standard_normal((6, 5))
        assert enum_configs(5, 5, signed=True) == 16
        assert signed_sparse_aggregation(X, N=5, budget=16).selected.tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(EnumerationBudgetError, match="16 configurations exceed the enumeration budget 15"):
            signed_sparse_aggregation(X, N=5, budget=15)


def kmeans_cost(values, labels):
    cost = 0.0
    for lab in (-1, 1):
        pts = values[labels == lab]
        if pts.size:
            cost += float(np.sum((pts - pts.mean()) ** 2))
    return cost


class TestKmeans1dTwo:
    def test_separated_clusters(self):
        labels = kmeans_1d_two(np.array([-1.0, -1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(labels, [-1, -1, 1, 1])

    def test_constant_input(self):
        np.testing.assert_array_equal(kmeans_1d_two(np.zeros(4)), [1, 1, 1, 1])

    def test_matches_exhaustive_split_oracle(self):
        rng = np.random.default_rng(74)
        v = rng.standard_normal(200)
        fast = kmeans_cost(v, kmeans_1d_two(v))
        order = np.argsort(v)
        best = math.inf
        for k in range(1, 200):
            lab = np.empty(200, dtype=int)
            lab[order[:k]] = -1
            lab[order[k:]] = 1
            best = min(best, kmeans_cost(v, lab))
        assert fast == pytest.approx(best, rel=1e-12)

    @settings(max_examples=60)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40))
    def test_hypothesis_optimality(self, vals):
        v = np.asarray(vals)
        labels = kmeans_1d_two(v)
        got = kmeans_cost(v, labels)
        order = np.argsort(v, kind="stable")
        for k in range(1, v.size):
            lab = np.empty(v.size, dtype=int)
            lab[order[:k]] = -1
            lab[order[k:]] = 1
            assert got <= kmeans_cost(v, lab) + 1e-9


class TestCrossMethodProperties:
    def test_noiseless_rank_one_all_methods(self):
        rng = np.random.default_rng(75)
        ell = rng.integers(0, 2, 12) * 2 - 1
        mu = np.zeros(9)
        mu[[0, 4, 7]] = 2.5
        X = rank_one(ell, mu)
        results = [
            simple_aggregation(X),
            sparse_aggregation_exact(X, N=3),
            sparse_aggregation_greedy(X, N=3),
            classical_pca(X),
            if_pca(X, q=0.5),
            signed_sparse_aggregation(X, N=3),
        ]
        for i, res in enumerate(results):
            assert hamming_clustering(res.labels, ell) == 0.0, i

    def test_signal_flip_leaves_hamming_invariant(self):
        rng = np.random.default_rng(76)
        ell = rng.integers(0, 2, 14) * 2 - 1
        mu = np.zeros(20)
        mu[[2, 5, 11]] = 1.2
        X = rank_one(ell, mu) + rng.standard_normal((14, 20))
        for method in (
            simple_aggregation,
            lambda M: sparse_aggregation_exact(M, N=3),
            lambda M: sparse_aggregation_greedy(M, N=3),
            classical_pca,
            lambda M: if_pca(M, q=0.2),
            lambda M: signed_sparse_aggregation(M, N=3),
        ):
            a = hamming_clustering(method(X).labels, ell)
            b = hamming_clustering(method(-X).labels, ell)
            assert a == b

    def test_default_sparsity(self):
        assert default_sparsity(100.0) == 100
        assert default_sparsity(100.2) == 101
        assert default_sparsity(0.01) == 1
