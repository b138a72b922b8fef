import math

import numpy as np
import pytest

from rareweak.cluster import if_pca
from rareweak.ifpca import (
    LabeledMatrix,
    PipelineRow,
    baseline_kmeans,
    ifpca_pipeline,
    load_labeled_csv,
    mad_normalize,
    two_sided_scores,
)
from rareweak.metrics import hamming_clustering
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
        np.testing.assert_array_equal(out.kept, [1])
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
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize(
        "mode", [{"q": 0.5}, {"sweep": [0.1, 0.5]}, {"top_k": 3}, {"fdr": 0.05}], ids=["q", "sweep", "top_k", "fdr"]
    )
    def test_non_finite_entry_named(self, bad, normalize, mode):
        # an in-memory matrix skips the loader's check; its bad column must not vanish unreported,
        # with or without the robust standardization
        data = two_blob_data()
        data.X[3, 7] = bad
        with pytest.raises(ValueError, match=f"non-finite value {bad} at row 3, column 7$"):
            ifpca_pipeline(data, normalize=normalize, **mode)

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

    def test_literal_scaling_differs(self):
        rng = np.random.default_rng(101)
        X = rng.standard_normal((40, 50))
        a = two_sided_scores(X)
        b = two_sided_scores(X, literal_scaling=True)
        np.testing.assert_allclose(a / b, np.sqrt(2 * 40), rtol=1e-12)


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
        data = two_blob_data(gap=4.0, seed=7)
        rep = ifpca_pipeline(data, fdr=0.05, normalize=False)
        assert rep.rows[0].n_selected >= 20  # every column carries the blob split
        assert rep.rows[0].errors == 0

    def test_matches_plain_screen_clustering_on_standardized_data(self):
        # unnormalized runs reproduce the plain screen + PCA labels
        params = ArwParams(p=2_000, theta=0.6, beta=0.3, alpha=0.05)
        for seed in range(5):
            ds = gen_dataset(params, seed=8200 + seed)
            data = LabeledMatrix(X=ds.X, class_labels=np.where(ds.labels > 0, "a", "b"))
            rep = ifpca_pipeline(data, q=0.5, normalize=False)
            direct = round(hamming_clustering(if_pca(ds.X, q=0.5).labels, ds.labels) * params.n)
            assert abs(rep.rows[0].errors - direct) <= 2

    def test_normalization_absorbs_calibrated_location_signal(self):
        # robust standardization cancels most of a sub-unit symmetric shift,
        # so the normalized screen keeps far fewer true signal columns
        from rareweak.spectral import screen_threshold

        params = ArwParams(p=2_000, theta=0.6, beta=0.3, alpha=0.05)
        ds = gen_dataset(params, seed=8300)
        thr = screen_threshold(params.p, 0.5)
        raw_hits = set(np.flatnonzero(chi2_scores(ds.X) >= thr).tolist())
        norm = mad_normalize(ds.X)
        norm_hits = set(norm.kept[np.flatnonzero(two_sided_scores(norm.X) > thr)].tolist())
        support = set(ds.support.tolist())
        assert len(support & norm_hits) < len(support & raw_hits) / 4


class TestBaselineKmeans:
    def test_separated_blobs(self):
        assert baseline_kmeans(two_blob_data()) == 0

    def test_single_point_per_class(self):
        X = np.array([[0.0, 0.0, 1.0], [10.0, 10.0, 12.0]])
        data = LabeledMatrix(X=X, class_labels=np.array(["a", "b"]))
        assert baseline_kmeans(data, restarts=3) == 0

    def test_deterministic_given_seed(self):
        data = two_blob_data(gap=1.0, seed=11)
        assert baseline_kmeans(data, seed=4) == baseline_kmeans(data, seed=4)


class TestLoaders:
    def test_label_column_mode(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,group\n1.0,2.0,x\n3.0,4.0,y\n5.0,6.0,x\n")
        data = load_labeled_csv(path, label_column="group")
        assert data.X.shape == (3, 2)
        assert data.feature_names == ["f1", "f2"]
        np.testing.assert_array_equal(data.class_labels, ["x", "y", "x"])

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

    def test_requires_some_label_source(self, tmp_path):
        dpath = tmp_path / "data.csv"
        dpath.write_text("f1\n1.0\n")
        with pytest.raises(ValueError):
            load_labeled_csv(dpath)

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
