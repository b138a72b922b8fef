"""Applied screen-then-PCA pipeline for labeled expression-style matrices.

Real data is heteroscedastic across features, so columns are first
robustly standardized: center by the mean, scale by the median absolute
deviation times 1/0.6745 (the constant that makes the result unit
variance for Gaussian columns). Screening is then two-sided in the
standardized squared norm (||x*||^2 - n) / sqrt(2n), since a feature can
be informative through either inflated or deflated spread. Clustering is
the exact 1-D 2-means split of the leading left singular vector of the
selected submatrix, scored against the provided class labels up to the
global flip.

The threshold can be fixed (q), chosen by a false-discovery-rate rule
on analytic null P-values, set to hit an exact selected-feature count,
or swept over a list of q values for a table of error counts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .cluster import kmeans_1d_two
from .harness import _one_blas_thread
from .numerics import bh_threshold, chisq_sf_vec
from .spectral import leading_left_singular, select_features

__all__ = [
    "LabeledMatrix",
    "NormalizedMatrix",
    "PipelineRow",
    "PipelineReport",
    "mad_normalize",
    "two_sided_scores",
    "ifpca_pipeline",
    "baseline_kmeans",
    "load_labeled_csv",
]

MAD_TO_SD = 0.6745  # Phi^{-1}(3/4): makes MAD match the standard deviation
# the k-means baseline is one reference count beside the pipeline's, so every caller gets the same setting
KMEANS_RESTARTS, KMEANS_SEED, KMEANS_MAX_ITER = 30, 0, 200


def _require_finite_cells(X: np.ndarray, source, names: list[str] | None = None) -> None:
    """Reject a matrix with a NaN or inf entry, naming the first one.

    Rows and columns count from 0 over the data cells; ``names`` labels
    the columns when given.
    """
    if not np.isfinite(X).all():
        i, j = (int(k) for k in np.argwhere(~np.isfinite(X))[0])
        column = j if names is None else repr(names[j])
        raise ValueError(f"{source}: non-finite value {X[i, j]} at row {i}, column {column}")


@dataclass
class NormalizedMatrix:
    X: np.ndarray
    dropped: np.ndarray
    warnings: list[str] = field(default_factory=list)


@dataclass
class LabeledMatrix:
    X: np.ndarray
    class_labels: np.ndarray

    def __post_init__(self):
        self.class_labels = np.asarray(self.class_labels)
        if self.class_labels.shape[0] != self.X.shape[0]:
            raise ValueError("one class label per row is required")
        if len(set(self.class_labels.tolist())) != 2:
            raise ValueError("exactly two distinct class labels are required")

    @cached_property
    def normalized(self) -> NormalizedMatrix:
        """``mad_normalize(X)``, computed on first use and kept with its X read-only. Every
        pipeline mode and the k-means baseline read it, so X must not change after the first call.
        Raises ValueError when every column has zero MAD, since none is left to screen or cluster."""
        norm = mad_normalize(self.X)
        if norm.X.shape[1] == 0:
            raise ValueError("every feature has zero median absolute deviation; no column is left to cluster")
        norm.X.flags.writeable = False
        return norm


def mad_normalize(X: np.ndarray) -> NormalizedMatrix:
    """Column-wise robust standardization x -> 0.6745 (x - mean) / MAD.

    Columns with zero MAD carry no usable spread and are dropped, each
    with a warning record. A NaN or inf entry raises ValueError naming
    its row and column.
    """
    X = np.asarray(X, dtype=float)
    _require_finite_cells(X, "mad_normalize")
    med = np.median(X, axis=0)
    mad = np.median(np.abs(X - med), axis=0)
    kept = np.flatnonzero(mad > 0)
    dropped = np.flatnonzero(mad == 0)
    warnings = [f"dropped column {j}: zero median absolute deviation" for j in dropped.tolist()]
    out = X[:, kept]  # a copy, so scaling it in place leaves X as it was
    out -= out.mean(axis=0)
    out *= MAD_TO_SD
    out /= mad[kept]
    return NormalizedMatrix(X=out, dropped=dropped, warnings=warnings)


def two_sided_scores(Xstar: np.ndarray) -> np.ndarray:
    """|standardized squared column norm| used by the applied screen.

    (||x*||^2 - n) / sqrt(2n): on n iid standard normal entries the signed
    score has mean 0 and variance 1, and on nonnegative scores this is the
    one-sided chi-square screen.
    """
    n = Xstar.shape[0]
    diff = np.sum(Xstar * Xstar, axis=0) - n
    return np.abs(diff) / math.sqrt(2 * n)


@dataclass
class PipelineRow:
    q: float | None
    n_selected: int
    errors: int
    fallback: bool


@dataclass
class PipelineReport:
    mode: str
    rows: list[PipelineRow]
    dropped_features: int
    warnings: list[str]


def _errors_against_labels(pred: np.ndarray, class_labels: np.ndarray) -> int:
    names = sorted(set(class_labels.tolist()))
    truth = np.where(class_labels == names[0], -1, 1)
    direct = int(np.sum(pred != truth))
    return min(direct, truth.size - direct)


def _null_two_sided_pvalues(scores: np.ndarray, n: int) -> np.ndarray:
    diff = scores * math.sqrt(2 * n)
    upper = chisq_sf_vec(n + diff, n)
    lower = 1.0 - chisq_sf_vec(np.maximum(n - diff, 0.0), n)
    return np.minimum(upper + lower, 1.0)


@_one_blas_thread()
def ifpca_pipeline(
    data: LabeledMatrix,
    q: float | None = None,
    fdr: float | None = None,
    top_k: int | None = None,
    sweep: list[float] | None = None,
) -> PipelineReport:
    """Normalize, screen, cluster, and score against the class labels.

    Exactly one threshold mode: ``q`` (fixed exponent), ``fdr`` (rate
    for the step-up rule on analytic null P-values of the two-sided
    statistic), ``top_k`` (exact selected-feature count, largest scores
    first), or ``sweep`` (nonempty list of q values, one report row
    each). An empty selection falls back to using every feature, flagged
    on the row.

    The ``q`` and ``sweep`` modes keep the columns whose score is >= the
    cut sqrt(2 q log p), through ``spectral.select_features``, and need
    q > 0.

    Every mode screens ``data.normalized``, computed once per ``data``;
    a NaN or inf entry raises ValueError naming its row and column.
    Calibrated synthetic data belongs to ``cluster.if_pca``, because the
    MAD scaling absorbs a sub-unit location signal.
    """
    modes = [m for m, v in (("q", q), ("fdr", fdr), ("top_k", top_k), ("sweep", sweep)) if v is not None]
    if len(modes) != 1:
        raise ValueError(f"exactly one of q/fdr/top_k/sweep is required, got {modes}")
    mode = modes[0]
    if mode == "sweep" and len(sweep) == 0:
        raise ValueError("sweep needs at least one q value")
    norm = data.normalized
    Xstar = norm.X
    n, p = Xstar.shape
    scores = two_sided_scores(Xstar)

    # each mode resolves its cuts as (q reported on the row, selected columns)
    if mode == "top_k":
        if not 1 <= top_k <= p:
            raise ValueError(f"top_k must lie in [1, {p}]")
        order = np.argsort(-scores, kind="stable")
        implied_q = float(scores[order[top_k - 1]] ** 2 / (2 * math.log(p)))
        cuts = [(implied_q, np.sort(order[:top_k]))]
    elif mode == "fdr":
        pv = _null_two_sided_pvalues(scores, n)
        cuts = [(None, np.sort(np.argsort(pv, kind="stable")[: bh_threshold(pv, fdr)]))]
    else:
        cuts = [(float(qv), select_features(scores, qv)) for qv in ([q] if mode == "q" else sweep)]
    rows = []
    for row_q, sel in cuts:
        fallback = sel.size == 0
        xi = leading_left_singular(Xstar if fallback else Xstar[:, sel]).vector
        errors = _errors_against_labels(kmeans_1d_two(xi), data.class_labels)
        rows.append(PipelineRow(q=row_q, n_selected=int(sel.size), errors=errors, fallback=fallback))
    return PipelineReport(mode=mode, rows=rows, dropped_features=int(norm.dropped.size), warnings=list(norm.warnings))


@_one_blas_thread()
def baseline_kmeans(data: LabeledMatrix) -> int:
    """Plain two-cluster Lloyd iteration on the normalized rows (``data.normalized``).

    Random-row initialization, KMEANS_RESTARTS independent starts drawn
    from seed KMEANS_SEED, at most KMEANS_MAX_ITER assignment steps each,
    stopping when an assignment repeats; best within-cluster sum of
    squares wins.
    Returns the flip-minimized error count against the class labels.

    The iteration runs on the n-by-n Gram matrix G = X* X*^T of the
    normalized rows rather than on the n-by-p rows themselves. Each
    center is a weighted mean of rows, c_k = X*^T w_k (w_k one-hot at the
    start, members / count after an update; an empty cluster keeps its
    old weights), so x_i . c_k = (G W^T)_ik and ||c_k||^2 = w_k^T G w_k.
    A row joins cluster 1 when d_1 - d_0 = ||c_1||^2 - ||c_0||^2
    - 2 (x_i . c_1 - x_i . c_0) < 0, in which ||x_i||^2 cancels exactly.
    Each step then costs O(n^2) instead of O(n p). The assignments are
    those of the n-by-p distance loop, except where two distances tie in
    exact arithmetic but not after rounding: each form breaks such a tie
    by its own rounding.
    """
    assign = _two_means(data.normalized.X, KMEANS_RESTARTS, KMEANS_SEED, KMEANS_MAX_ITER)
    return _errors_against_labels(np.where(assign == 0, -1, 1), data.class_labels)


def _two_means(Xstar: np.ndarray, restarts: int, seed: int, max_iter: int) -> np.ndarray:
    """Cluster (0 or 1) of each row at the lowest-SSE restart of the Gram-form
    Lloyd iteration that ``baseline_kmeans`` describes."""
    n = Xstar.shape[0]
    # identical rows get identical Gram rows and columns (those of their first copy),
    # so that two identical centers tie exactly, as they do in the n-by-p distances
    first: dict[bytes, int] = {}
    copy_of = [first.setdefault(row.tobytes(), i) for i, row in enumerate(Xstar)]
    G = (Xstar @ Xstar.T)[np.ix_(copy_of, copy_of)]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        W = np.zeros((2, n))
        W[[0, 1], rng.choice(n, 2, replace=False)] = 1.0
        assign = np.zeros(n, dtype=int)
        for step in range(max_iter):
            GW = G @ W.T
            cc = np.einsum("ki,ik->k", W, GW)
            new_assign = (cc[1] - cc[0] - 2 * (GW[:, 1] - GW[:, 0]) < 0).astype(int)
            if np.array_equal(new_assign, assign) and step > 0:
                break
            assign = new_assign
            for k in (0, 1):
                members = assign == k
                count = np.count_nonzero(members)
                if count:
                    W[k] = members / count
        # the centers are the means of the final clusters, so the within-cluster sum
        # of squares is trace(G) - sum_k |cluster k| ||c_k||^2, summed the same way
        # for both clusters so that a label swap cannot change the lowest-SSE choice
        sse = float(np.trace(G)) - sum(np.count_nonzero(assign == k) * float(W[k] @ G @ W[k]) for k in (0, 1))
        if best is None or sse < best[0]:
            best = (sse, assign)
    return best[1]


def load_labeled_csv(
    data_path: str | Path,
    labels_path: str | Path | None = None,
    label_column: str | None = None,
) -> LabeledMatrix:
    """Load rows-as-samples CSV with a header of feature names.

    Labels come either from a designated column of the same file or
    from a separate single-column file (one label per sample line), not
    both: giving both raises ValueError. A NaN or inf feature value
    raises ValueError naming its row and column.

    The header is read by ``csv``; the cells by numpy's C parser: comma
    delimited, ``"`` quoting, blank lines skipped, no comment character
    (a ``#`` is part of its cell). There must be at least one row, each
    with one cell per header name, and every feature cell must be a
    number that ``float()`` reads, apart from digit-group underscores and
    non-ASCII digits; otherwise ValueError. Labels are kept as their
    literal strings.
    """
    data_path = Path(data_path)
    with open(data_path, newline="") as fh:
        header = next(csv.reader(fh))
    if label_column is not None and labels_path is not None:
        raise ValueError("provide labels_path or label_column, not both")
    if label_column is not None:
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header")
        li = header.index(label_column)
    elif labels_path is not None:
        li = None
    else:
        raise ValueError("provide labels_path or label_column")
    # encoding=None reads the file the way open() does (numpy before 2.0 defaults to bytes)
    cells = dict(delimiter=",", skiprows=1, ndmin=2, comments=None, quotechar='"', encoding=None)
    # the label column parses as a 0.0 placeholder, so that a row with a missing
    # or extra cell still shows as a change in the column count
    X = np.loadtxt(data_path, converters=None if li is None else {li: lambda cell: 0.0}, **cells)
    if X.shape[0] == 0:
        raise ValueError(f"{data_path}: no data rows")
    if X.shape[1] != len(header):
        raise ValueError(f"{data_path}: rows have {X.shape[1]} cells but the header names {len(header)}")
    if li is None:
        names = header
        labels = np.array([line.strip() for line in Path(labels_path).read_text().splitlines() if line.strip()])
    else:
        names = header[:li] + header[li + 1 :]
        X = np.delete(X, li, axis=1)
        labels = np.loadtxt(data_path, dtype=str, usecols=[li], **cells)[:, 0]
    _require_finite_cells(X, data_path, names)
    return LabeledMatrix(X=X, class_labels=labels)
