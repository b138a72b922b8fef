import math
import struct
import threading

import numpy as np
import pytest

from rareweak import cluster, harness, ifpca
from rareweak.harness import TrialSpec, run_trial
from rareweak.ifpca import (
    LabeledMatrix,
    PipelineRow,
    _errors_against_labels,
    _two_means,
    baseline_kmeans,
    ifpca_pipeline,
    load_labeled_csv,
    mad_normalize,
    two_sided_scores,
)
from rareweak.model import ArwParams, gen_dataset
from rareweak.spectral import chi2_scores


def two_blob_data(n_per=10, p=30, gap=8.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2 * n_per, p))
    X[:n_per] += gap
    labels = np.array(["one"] * n_per + ["two"] * n_per)
    return LabeledMatrix(X=X, class_labels=labels)


class TestMadNormalize:
    def test_gaussian_column_unit_scale(self):
        rng = np.random.default_rng(97)
        X = rng.standard_normal((20_000, 4))
        out = mad_normalize(X)
        np.testing.assert_allclose(np.mean(out.X**2, axis=0), 1.0, atol=0.05)

    def test_constant_column_dropped_with_warning(self):
        X = np.column_stack([np.ones(30), np.linspace(0, 1, 30)])
        out = mad_normalize(X)
        np.testing.assert_array_equal(out.dropped, [0])
        assert out.X.shape == (30, 1)
        assert "zero median absolute deviation" in out.warnings[0]

    def test_affine_invariance(self):
        rng = np.random.default_rng(98)
        X = rng.standard_normal((50, 6))
        scale = rng.uniform(0.5, 4.0, 6)
        shift = rng.uniform(-10, 10, 6)
        a = mad_normalize(X)
        b = mad_normalize(X * scale + shift)
        np.testing.assert_allclose(a.X, b.X, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "mode", [{"q": 0.5}, {"sweep": [0.1, 0.5]}, {"top_k": 3}, {"fdr": 0.05}], ids=["q", "sweep", "top_k", "fdr"]
    )
    def test_non_finite_entry_named(self, bad, mode):
        # an in-memory matrix skips the loader's check; its bad column must not vanish unreported
        data = two_blob_data()
        data.X[3, 7] = bad
        with pytest.raises(ValueError, match=f"non-finite value {bad} at row 3, column 7$"):
            ifpca_pipeline(data, **mode)

    def test_matches_zscore_shape(self):
        rng = np.random.default_rng(99)
        z = rng.standard_normal(500)
        out = mad_normalize((2.0 * z + 5.0).reshape(-1, 1)).X[:, 0]
        ref = mad_normalize(z.reshape(-1, 1)).X[:, 0]
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


class TestTwoSidedScreen:
    def test_reduces_to_one_sided_on_nonnegative_scores(self):
        rng = np.random.default_rng(100)
        X = rng.standard_normal((40, 200))
        one_sided = chi2_scores(X)
        two_sided = two_sided_scores(X)
        pos = one_sided >= 0
        np.testing.assert_allclose(two_sided[pos], one_sided[pos], rtol=1e-12)
        np.testing.assert_allclose(two_sided[~pos], -one_sided[~pos], rtol=1e-12)


class TestPipeline:
    def test_mode_exclusivity(self):
        data = two_blob_data()
        with pytest.raises(ValueError):
            ifpca_pipeline(data)
        with pytest.raises(ValueError):
            ifpca_pipeline(data, q=0.5, fdr=0.05)

    def test_top_k_exact_count(self):
        data = two_blob_data()
        rep = ifpca_pipeline(data, top_k=7)
        assert rep.rows[0].n_selected == 7
        assert rep.rows[0].q is not None

    def test_sweep_rows(self):
        data = two_blob_data()
        rep = ifpca_pipeline(data, sweep=[0.1, 0.5, 2.0])
        assert [r.q for r in rep.rows] == [0.1, 0.5, 2.0]
        assert len(rep.rows) == 3

    @pytest.mark.parametrize(
        "mode", [{"q": 0.0}, {"q": -1.0}, {"sweep": [0.5, 0.0]}, {"sweep": [-1.0]}], ids=["q0", "q-1", "sweep0", "sweep-1"]
    )
    def test_q_must_be_positive(self, mode):
        with pytest.raises(ValueError, match="q must be positive"):
            ifpca_pipeline(two_blob_data(), **mode)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            ifpca_pipeline(two_blob_data(), sweep=[])

    # (mode, [PipelineRow fields (q, n_selected, errors, fallback)]), recorded from the
    # implementation that clustered and built the rows in one branch per mode
    PINNED_ROWS = [
        ({"q": 0.5}, [(0.5, 8, 12, False)]),
        ({"fdr": 0.2}, [(None, 8, 12, False)]),
        ({"top_k": 6}, [(1.0841856419108618, 6, 12, False)]),
        (
            {"sweep": [0.2, 0.6, 1.5, 8.0]},
            [(0.2, 24, 0, False), (0.6, 8, 12, False), (1.5, 4, 13, False), (8.0, 0, 3, True)],
        ),
    ]

    @pytest.mark.parametrize("mode, rows", PINNED_ROWS, ids=["q", "fdr", "top_k", "sweep"])
    def test_pinned_rows(self, mode, rows):
        rng = np.random.default_rng(2026)
        X = rng.standard_normal((30, 80))
        X[:15, :10] += 4.0
        X[:, 40] = 3.0  # zero MAD: dropped
        data = LabeledMatrix(X=X, class_labels=np.array(["a"] * 15 + ["b"] * 15))
        rep = ifpca_pipeline(data, **mode)
        assert (rep.mode, rep.dropped_features) == (next(iter(mode)), 1)
        assert rep.rows == [PipelineRow(*row) for row in rows]

    def test_empty_selection_falls_back(self):
        rng = np.random.default_rng(102)
        X = rng.standard_normal((24, 40))
        data = LabeledMatrix(X=X, class_labels=np.array(["a"] * 12 + ["b"] * 12))
        rep = ifpca_pipeline(data, q=80.0)
        assert rep.rows[0].fallback
        assert rep.rows[0].n_selected == 0

    def test_separated_blobs_zero_errors(self):
        rep = ifpca_pipeline(two_blob_data(), q=0.5)
        assert rep.rows[0].errors == 0

    def test_sample_reordering_invariance(self):
        data = two_blob_data(seed=5)
        rng = np.random.default_rng(103)
        perm = rng.permutation(data.X.shape[0])
        reordered = LabeledMatrix(X=data.X[perm], class_labels=data.class_labels[perm])
        a = ifpca_pipeline(data, q=0.5).rows[0]
        b = ifpca_pipeline(reordered, q=0.5).rows[0]
        assert (a.errors, a.n_selected) == (b.errors, b.n_selected)

    def test_fdr_mode_selects_signal(self):
        # 10 columns split the classes by 6 sd among 190 noise columns; after the MAD
        # scaling a split column has deflated spread, which the two-sided P-values catch
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 200))
        X[:50, :10] += 6.0
        data = LabeledMatrix(X=X, class_labels=np.array(["a"] * 50 + ["b"] * 50))
        rep = ifpca_pipeline(data, fdr=0.05)
        assert 10 <= rep.rows[0].n_selected <= 30
        assert rep.rows[0].errors == 0

    def test_normalization_absorbs_calibrated_location_signal(self):
        # robust standardization cancels most of a sub-unit symmetric shift,
        # so the normalized screen keeps far fewer true signal columns
        from rareweak.spectral import screen_threshold

        params = ArwParams(p=2_000, theta=0.6, beta=0.3, alpha=0.05)
        ds = gen_dataset(params, seed=8300)
        thr = screen_threshold(params.p, 0.5)
        raw_hits = set(np.flatnonzero(chi2_scores(ds.X) >= thr).tolist())
        norm = mad_normalize(ds.X)
        assert norm.dropped.size == 0  # so column j of norm.X is column j of ds.X
        norm_hits = set(np.flatnonzero(two_sided_scores(norm.X) > thr).tolist())
        support = set(ds.support.tolist())
        assert len(support & norm_hits) < len(support & raw_hits) / 4


class TestNormalizedOnce:
    """One ``LabeledMatrix`` is normalized once, however many runs read it."""

    @staticmethod
    def matrix():
        data = two_blob_data(p=200, gap=1.5, seed=3)
        data.X[:, 4] = 2.0  # a zero-MAD column, so the reports carry a dropped count and a warning
        return data

    RUNS = [
        lambda data: ifpca_pipeline(data, sweep=[0.1, 0.5, 1.0]),
        lambda data: ifpca_pipeline(data, fdr=0.1),
        lambda data: ifpca_pipeline(data, top_k=5),
        baseline_kmeans,
    ]

    def test_one_call_same_reports(self, monkeypatch):
        calls = []
        real = ifpca.mad_normalize
        monkeypatch.setattr(ifpca, "mad_normalize", lambda X: calls.append(X) or real(X))
        shared = self.matrix()
        together = [run(shared) for run in self.RUNS]
        assert len(calls) == 1 and calls[0] is shared.X
        apart = [run(self.matrix()) for run in self.RUNS]
        assert len(calls) == 1 + len(self.RUNS)
        assert together == apart
        assert together[0].dropped_features == 1 and len(together[0].warnings) == 1

    def test_cached_matrix_read_only(self):
        data = self.matrix()
        ifpca_pipeline(data, q=0.5).warnings.clear()
        with pytest.raises(ValueError, match="read-only"):
            data.normalized.X[0, 0] = 1.0
        assert len(data.normalized.warnings) == 1


class TestBaselineKmeans:
    def test_separated_blobs(self):
        assert baseline_kmeans(two_blob_data()) == 0

    def test_single_point_per_class(self):
        X = np.array([[0.0, 0.0, 1.0], [10.0, 10.0, 12.0]])
        data = LabeledMatrix(X=X, class_labels=np.array(["a", "b"]))
        assert baseline_kmeans(data) == 0

    def test_deterministic(self):
        data = two_blob_data(gap=1.0, seed=11)
        assert baseline_kmeans(data) == baseline_kmeans(data)

    def test_all_features_zero_mad_rejected(self):
        X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 5.0, 3.0]])
        data = LabeledMatrix(X=X, class_labels=np.array(["a", "a", "b", "b"]))
        with pytest.raises(ValueError, match="^every feature has zero median absolute deviation"):
            baseline_kmeans(data)


class TestBlasPin:
    """Pipeline and k-means runs take the trials' one-thread BLAS pin."""

    def test_pipeline_one_thread_inside_restored_after(self, blas, monkeypatch):
        seen = []
        real = ifpca.leading_left_singular
        monkeypatch.setattr(ifpca, "leading_left_singular", lambda M: seen.append(blas()) or real(M))
        ifpca_pipeline(two_blob_data(), sweep=[0.2, 0.5])
        assert seen == [1, 1] and blas() == 2

    def test_kmeans_one_thread_inside_restored_after(self, blas, monkeypatch):
        seen = []
        real = ifpca._two_means
        monkeypatch.setattr(ifpca, "_two_means", lambda *args: seen.append(blas()) or real(*args))
        assert baseline_kmeans(two_blob_data()) == 0
        assert seen == [1] and blas() == 2

    def test_pipeline_and_trial_share_one_count(self, blas, monkeypatch):
        # the trial leaves while the pipeline is still inside: the pipeline keeps one
        # thread, and the host count comes back only when the pipeline leaves too
        both_inside = threading.Barrier(2, timeout=60)
        trial_done = threading.Event()
        seen, failures = {}, []
        real_svd, real_pca = ifpca.leading_left_singular, cluster.classical_pca

        def pipeline_spy(M):
            both_inside.wait()
            assert trial_done.wait(60)
            seen["pipeline"] = blas()
            return real_svd(M)

        def trial_spy(X):
            both_inside.wait()
            return real_pca(X)

        monkeypatch.setattr(ifpca, "leading_left_singular", pipeline_spy)
        monkeypatch.setattr(cluster, "classical_pca", trial_spy)

        def pipeline():
            try:
                ifpca_pipeline(two_blob_data(), q=0.5)
            except Exception as exc:  # surfaced by the asserts below
                failures.append(exc)

        thread = threading.Thread(target=pipeline)
        thread.start()
        spec = TrialSpec(params=ArwParams(p=60, theta=0.5, beta=0.5, alpha=0.2), methods={"classical_pca": {}})
        assert not run_trial(spec).has_errors
        seen["after trial"] = blas()
        trial_done.set()
        thread.join(60)
        assert not thread.is_alive() and not failures
        assert seen == {"after trial": 1, "pipeline": 1}
        assert blas() == 2 and harness._pin["inside"] == 0


def lloyd_reference(X, restarts, seed, max_iter=200):
    """The n-by-p Lloyd loop that baseline_kmeans ran before its Gram form.

    Returns the lowest-SSE restart's assignment and whether any update
    met an empty cluster.
    """
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    best, emptied = None, False
    for _ in range(restarts):
        centers = X[rng.choice(n, 2, replace=False)].copy()
        assign = np.zeros(n, dtype=int)
        for step in range(max_iter):
            d0 = np.sum((X - centers[0]) ** 2, axis=1)
            d1 = np.sum((X - centers[1]) ** 2, axis=1)
            new_assign = (d1 < d0).astype(int)
            if np.array_equal(new_assign, assign) and step > 0:
                break
            assign = new_assign
            for k in (0, 1):
                members = X[assign == k]
                if members.shape[0]:
                    centers[k] = members.mean(axis=0)
                else:
                    emptied = True
        sse = float(np.sum((X - centers[assign]) ** 2))
        if best is None or sse < best[0]:
            best = (sse, assign.copy())
    return best[1], emptied


def oracle_instance(i):
    """Seeded matrix of one of four kinds, n in [2, 120], p log-uniform in [1, 5000]."""
    rng = np.random.default_rng([7, i])
    n = int(rng.integers(2, 121))
    p = int(np.clip(np.exp(rng.uniform(0, math.log(5000))), 1, 5000))
    kind = i % 4
    if kind == 0:  # plain noise
        X = rng.standard_normal((n, p))
    elif kind == 1:  # about four copies of each distinct row
        base = rng.standard_normal((max(2, n // 4), p))
        X = base[rng.integers(0, base.shape[0], n)]
    elif kind == 2:  # two shifted groups of rows
        X = rng.standard_normal((n, p)) + rng.uniform(0, 3) * np.outer(rng.integers(0, 2, n), rng.standard_normal(p))
    else:  # a few distinct levels, so distances tie exactly
        X = rng.integers(0, 3, (n, p)).astype(float)
    labels = np.arange(n) % 2
    rng.shuffle(labels)
    return X, labels


class TestGramKmeansOracle:
    """The Gram-form Lloyd iteration gives the same final assignment as the
    n-by-p loop, restart by restart and through the lowest-SSE choice."""

    @pytest.mark.slow
    def test_matches_direct_lloyd(self):
        seen = {"n>p": 0, "n=2": 0, "p=1": 0, "duplicates": 0, "emptied": 0, "restarts=1": 0, "restarts=30": 0}
        for i in range(240):
            X, labels = oracle_instance(i)
            # the 30-restart instances use baseline_kmeans's fixed seed, so that it joins the check
            restarts, seed = (1, i) if i % 2 else (30, 0)
            data = LabeledMatrix(X=X, class_labels=labels)
            # level data is compared unnormalized, where both forms compute the first
            # distances exactly: rows that tie exactly there tie in both; after the MAD
            # scaling the same rows tie only up to rounding, which each form breaks its own way
            rows = X if i % 4 == 3 else mad_normalize(X).X
            want, emptied = lloyd_reference(rows, restarts, seed=seed)
            np.testing.assert_array_equal(_two_means(rows, restarts, seed, 200), want, err_msg=f"instance {i}")
            if i % 4 != 3 and restarts == 30:
                errors = _errors_against_labels(np.where(want == 0, -1, 1), data.class_labels)
                assert baseline_kmeans(data) == errors, f"instance {i}"
            n, p = rows.shape
            seen["n>p"] += n > p
            seen["n=2"] += n == 2
            seen["p=1"] += p == 1
            seen["duplicates"] += len({row.tobytes() for row in rows}) < n
            seen["emptied"] += emptied
            seen[f"restarts={restarts}"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("max_iter", [1, 200])
    def test_identical_centers_tie_exactly(self, max_iter):
        # rows 0 and 8 are the same, so both as centers put every row in cluster 0 and
        # leave cluster 1 empty; at this size OpenBLAS gives the two copies Gram
        # columns that differ in the last bits
        X = np.random.default_rng(0).standard_normal((12, 50))
        X[8] = X[0]
        seed = next(s for s in range(1000) if set(np.random.default_rng(s).choice(12, 2, replace=False)) == {0, 8})
        want, emptied = lloyd_reference(X, 1, seed, max_iter)
        assert emptied
        np.testing.assert_array_equal(_two_means(X, 1, seed, max_iter), want)

class TestLoaders:
    def test_label_column_mode(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,group\n1.0,2.0,x\n3.0,4.0,y\n5.0,6.0,x\n")
        data = load_labeled_csv(path, label_column="group")
        assert data.X.shape == (3, 2)
        np.testing.assert_array_equal(data.class_labels, ["x", "y", "x"])
        path.write_text("f1,f2,group\n1.0,inf,x\n3.0,4.0,y\n")
        with pytest.raises(ValueError, match="column 'f2'$"):
            load_labeled_csv(path, label_column="group")

    def test_separate_labels_file(self, tmp_path):
        dpath = tmp_path / "data.csv"
        dpath.write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        data = load_labeled_csv(dpath, labels_path=lpath)
        assert data.X.shape == (2, 2)
        np.testing.assert_array_equal(data.class_labels, ["x", "y"])

    def test_requires_two_classes(self, tmp_path):
        dpath = tmp_path / "data.csv"
        dpath.write_text("f1\n1.0\n2.0\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\nx\n")
        with pytest.raises(ValueError):
            load_labeled_csv(dpath, labels_path=lpath)

    @pytest.mark.parametrize(
        "labels, column, needle",
        [
            (None, None, "provide labels_path or label_column$"),
            ("x\ny\n", "group", "provide labels_path or label_column, not both$"),
            (None, "grp", "label column 'grp' not in header$"),
            ("x\ny\nx\n", None, "one class label per row is required$"),
        ],
        ids=["no_source", "both_sources", "unknown_column", "wrong_count"],
    )
    def test_bad_label_source_rejected(self, tmp_path, labels, column, needle):
        dpath = tmp_path / "data.csv"
        dpath.write_text("f1,group\n1.0,0\n2.0,1\n")
        lpath = None
        if labels is not None:
            lpath = tmp_path / "labels.txt"
            lpath.write_text(labels)
        with pytest.raises(ValueError, match=needle):
            load_labeled_csv(dpath, labels_path=lpath, label_column=column)

    def test_values_bit_equal_to_float(self, tmp_path):
        values = [5e-324, 2.2250738585072009e-308, 1e308, -1e308, -0.0, 0.0, 0.1, -1 / 3, math.pi * 1e-200, 6.02214076e23]
        text = ["%.17g" % v for v in values]
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,group\n" + "".join(f"{c},{c},{'xy'[i % 2]}\n" for i, c in enumerate(text)))
        data = load_labeled_csv(path, label_column="group")
        bits = [struct.pack("<d", float(c)) for c in text]
        assert [struct.pack("<d", v) for v in data.X[:, 0]] == bits
        assert [struct.pack("<d", v) for v in data.X[:, 1]] == bits

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f#1,f2,#group\n1.0,2.0,a#\n3.0,4.0,#b\n")
        data = load_labeled_csv(path, label_column="#group")
        np.testing.assert_array_equal(data.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.class_labels, ["a#", "#b"])
        path.write_text("f#1,f2,#group\ninf,2.0,a#\n3.0,4.0,#b\n")
        with pytest.raises(ValueError, match="column 'f#1'$"):
            load_labeled_csv(path, label_column="#group")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n\n1.0,2.0\n\n\n3.0,4.0\n\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        np.testing.assert_array_equal(load_labeled_csv(path, labels_path=lpath).X, [[1.0, 2.0], [3.0, 4.0]])

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"f,1",f2,"grp"\n"1.5",2.0,"a,b"\n3.0,"4.0",c\n')
        data = load_labeled_csv(path, label_column="grp")
        np.testing.assert_array_equal(data.X, [[1.5, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.class_labels, ["a,b", "c"])
        path.write_text('"f,1",f2,"grp"\n"inf",2.0,"a,b"\n3.0,"4.0",c\n')
        with pytest.raises(ValueError, match="column 'f,1'$"):
            load_labeled_csv(path, label_column="grp")

    def test_labels_kept_literally(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("group,f1\n007,1.0\n7,2.0\n007,3.0\n")
        data = load_labeled_csv(path, label_column="group")
        assert data.class_labels.tolist() == ["007", "7", "007"]

    @pytest.mark.parametrize("cell", [" 1.5 ", "+1.5", "1e3", "1E-3", ".5", "5.", "-0"])
    def test_accepted_number_spellings(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"f1,group\n{cell},x\n2.0,y\n")
        assert load_labeled_csv(path, label_column="group").X[0, 0] == float(cell)

    # "1_0" and the full-width digit are read by float() but not by the loader
    @pytest.mark.parametrize("cell", ["abc", "", "1_0", "\uff11", "0x10", "1d5"])
    def test_non_numeric_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"f1,group\n1.0,x\n{cell},y\n")
        with pytest.raises(ValueError):
            load_labeled_csv(path, label_column="group")
        path.write_text(f"f1,f2\n1.0,2.0\n{cell},3.0\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        with pytest.raises(ValueError):
            load_labeled_csv(path, labels_path=lpath)

    @pytest.mark.parametrize("row", ["3.0", "3.0,4.0,5.0"])
    @pytest.mark.parametrize("label_column", [None, "f2"])
    def test_ragged_row_rejected(self, tmp_path, row, label_column):
        path = tmp_path / "data.csv"
        path.write_text(f"f1,f2\n1.0,2.0\n{row}\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        with pytest.raises(ValueError):
            load_labeled_csv(path, labels_path=lpath if label_column is None else None, label_column=label_column)

    def test_rows_longer_than_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        with pytest.raises(ValueError, match="rows have 3 cells but the header names 2$"):
            load_labeled_csv(path, labels_path=lpath)

    @pytest.mark.parametrize("label_column", [None, "group"])
    def test_header_only_rejected(self, tmp_path, label_column):
        path = tmp_path / "data.csv"
        path.write_text("f1,group\n\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        with pytest.warns(UserWarning, match="no data"), pytest.raises(ValueError, match="no data rows$"):
            load_labeled_csv(path, labels_path=lpath if label_column is None else None, label_column=label_column)

    def test_one_column_stays_2d(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,group\n1.0,x\n2.0,y\n")
        assert load_labeled_csv(path, label_column="group").X.shape == (2, 1)
        path.write_text("f1\n1.0\n2.0\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\n")
        assert load_labeled_csv(path, labels_path=lpath).X.shape == (2, 1)

    def test_one_row_stays_2d(self, tmp_path):
        # one row reaches the class-count check as one sample, not as a column of samples
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,group\n1.0,2.0,x\n")
        with pytest.raises(ValueError, match="exactly two distinct class labels"):
            load_labeled_csv(path, label_column="group")
        path.write_text("f1,f2\n1.0,2.0\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\n")
        with pytest.raises(ValueError, match="exactly two distinct class labels"):
            load_labeled_csv(path, labels_path=lpath)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_named(self, tmp_path, bad):
        path = tmp_path / "data.csv"
        path.write_text(f"f1,group,f2\n1.0,x,2.0\n3.0,y,{bad}\n{bad},x,6.0\n")
        with pytest.raises(ValueError, match=f"non-finite value {bad} at row 1, column 'f2'$"):
            load_labeled_csv(path, label_column="group")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("x\ny\nx\n")
        path.write_text(f"f1,f2\n1.0,2.0\n{bad},4.0\n5.0,{bad}\n")
        with pytest.raises(ValueError, match=f"non-finite value {bad} at row 1, column 'f1'$"):
            load_labeled_csv(path, labels_path=lpath)
