"""The four workloads: inputs made from the seed, rounds of work, output checks.

A round is a fixed set of operations whose inputs depend only on the
workload seed and the round index, so a serial round, a 2-worker round
and a traced round with the same index do the same work and must give
the same results. ``check`` receives every round's output and returns
failure messages.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
# Calls go through the module attributes so that the tracer's wrappers see them.
from rareweak import cli, cluster, harness, hyptest, ifpca
from rareweak.harness import SweepSpec, TrialSpec, trial_seed
from rareweak.model import gen_dataset


# Warm-up inputs do not depend on the workload seed, so that set-up time measures the
# machine and the package rather than how hard one seed's data happens to be.
WARM_UP_SEED = 20_260_101


def derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint32)[0])


@dataclass
class Outcome:
    units: int  # trials, or pipeline runs on applied-pipeline
    attempted: int
    failed: int
    payload: object


def sweep_ops(result: dict) -> tuple[int, int]:
    """Method calls attempted and failed in one sweep result."""
    per_cell = len(result["spec"]["methods"]) * result["spec"]["reps"]
    failed = sum(per_cell if "error" in c else c["results"]["n_errors"] for c in result["cells"])
    return per_cell * len(result["cells"]), failed


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny

    def prepare(self) -> None:
        """Write inputs the rounds read from disk (nothing by default)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, k: int, workers: int, tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, rounds: dict) -> list[str]:
        """``rounds`` maps round index to {mode: Outcome}; mode "serial" is always present."""
        raise NotImplementedError


class SweepWorkload(Workload):
    """Rounds are grid sweeps; round k uses master seed derived_seed(seed, k)."""

    warm_trials = 1
    checked_rounds = 3  # rounds whose trials are sampled, regenerated and checked in depth

    def sweeps(self, k: int) -> list[SweepSpec]:
        raise NotImplementedError

    def run(self, spec: SweepSpec, workers: int, tag: str, tracer) -> dict:
        return harness.run_sweep(spec, workers=workers)

    def warm_up(self) -> None:
        for spec in self.sweeps(0):
            params = spec.cell_params(spec.betas[0], spec.strengths[0])
            for rep in range(self.warm_trials):
                harness.run_trial(TrialSpec(params=params, methods=spec.methods, seed=derived_seed(WARM_UP_SEED, rep)))

    def round(self, k: int, workers: int, tracer=None) -> Outcome:
        results = [self.run(spec, workers, f"{k}-{i}-{workers}", tracer) for i, spec in enumerate(self.sweeps(k))]
        ops = [sweep_ops(r) for r in results]
        units = sum(len(r["cells"]) * r["spec"]["reps"] for r in results)
        return Outcome(units, sum(a for a, _ in ops), sum(f for _, f in ops), results)

    def check(self, rounds: dict) -> list[str]:
        bad = []
        for k, by_mode in sorted(rounds.items()):
            for mode, out in by_mode.items():
                if mode != "serial":
                    for a, b in zip(by_mode["serial"].payload, out.payload):
                        bad += checks.same_body(a, b, f"round {k} ({mode})")
        return bad

    def sampled_trials(self, result: dict, k: int, count: int):
        """(cell, params, dataset, trial seed) for ``count`` seeded picks of a one-rep sweep result.

        With one rep per cell, each cell's aggregates are that trial's own values.
        """
        spec = SweepSpec.from_dict(result["spec"])
        rng = np.random.default_rng(derived_seed(self.seed, k, 7))
        for i in rng.choice(len(result["cells"]), size=count, replace=False):
            cell = result["cells"][int(i)]
            params = spec.cell_params(cell["beta"], cell["strength"])
            seed = trial_seed(spec.master_seed, cell["cell"], 0)
            yield cell, params, gen_dataset(params, seed=seed), seed


# ---------------------------------------------------------------- phase-grid


class PhaseGrid(SweepWorkload):
    """Criterion-1 grid through ``rareweak sweep``: spec file in, JSON and CSV out."""

    name = "phase-grid"
    warm_trials = 6
    methods = ("simple_agg", "classical_pca", "recover_sa_star", "recover_if_star", "recover_signed_pca", "agg_chi2")

    def sweeps(self, k: int) -> list[SweepSpec]:
        betas, ratios = (0.05, 0.09, 0.13, 0.17, 0.21), (0.5, 0.75, 1.0, 1.5, 2.0)
        if self.tiny:
            betas, ratios = (0.05, 0.13, 0.21), (0.5, 2.0)
        return [SweepSpec(p=5_000, theta=0.5, betas=betas, strength_kind="alpha_ratio", strengths=ratios,
                          reps=1, methods={m: {} for m in self.methods}, master_seed=derived_seed(self.seed, k))]

    def run(self, spec: SweepSpec, workers: int, tag: str, tracer) -> dict:
        spec_path = self.workdir / f"spec-{tag}.json"
        stem = self.workdir / f"sweep-{tag}"
        spec_path.write_text(json.dumps(spec.to_dict()))
        argv = ["sweep", "--spec", str(spec_path), "--out", str(stem), "--workers", str(workers)]
        with tracer.span("cli.sweep") if tracer else contextlib.nullcontext():
            code = cli.main(argv)
        if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
            raise RuntimeError(f"rareweak sweep exited with {code}")
        result = json.loads(Path(f"{stem}.json").read_text())
        with open(f"{stem}.csv", newline="") as fh:
            result["csv_rows"] = sum(1 for _ in csv.DictReader(fh))
        return result

    def check(self, rounds: dict) -> list[str]:
        bad = super().check(rounds)
        errors: dict = {}
        for k, by_mode in sorted(rounds.items()):
            result = by_mode["serial"].payload[0]
            if result.pop("csv_rows") != len(result["cells"]):
                bad.append(f"round {k}: CSV rows do not match the sweep's cells")
            for c in result["cells"]:
                errors.setdefault(c["strength"], []).append(c["results"]["clustering"]["simple_agg"]["hamming"]["mean"])
            if k < self.checked_rounds:
                for cell, params, ds, _ in self.sampled_trials(result, k, count=1):
                    bad += self.check_cell(cell, params, ds)
        return bad + checks.criterion1_rule(errors)

    @staticmethod
    def check_cell(cell: dict, params, ds) -> list[str]:
        """Singular value and the three recovery supports of one sampled trial."""
        X, p, expected = ds.X, params.p, params.expected_signals
        pca = cluster.classical_pca(X)
        bad = checks.singular_value(X, pca.singular.value)
        if pca.singular.converged:
            pca_labels = checks.sign_labels(checks.leading_vector(X))
        else:  # flat leading spectrum: no unique vector to compare against
            pca_labels = pca.labels
        cut = math.sqrt(2 * math.log(p))
        signed_cut = 2.0 * math.sqrt(math.log(p))
        supports = {
            "recover_sa_star": checks.threshold_support(X, checks.sign_labels(X.sum(axis=1)), cut, strict=False),
            "recover_if_star": checks.threshold_support(X, pca_labels, cut, strict=False),
            "recover_signed_pca": checks.threshold_support(X, pca_labels, signed_cut, strict=True),
        }
        recovery = cell["results"]["recovery"]
        for name, support in supports.items():
            bad += checks.recovery_entry(f"cell {cell['cell']}: {name}", recovery[name], support, ds.support, expected)
        sel = supports["recover_signed_pca"]
        est = np.zeros(p)
        est[sel] = np.sign(X[:, sel].T @ pca_labels)
        signed = np.sum(est != np.sign(ds.mu)) / expected
        got = recovery["recover_signed_pca"]["signed_hamming"]["mean"]
        if not math.isclose(got, signed, rel_tol=1e-12):
            bad.append(f"cell {cell['cell']}: recover_signed_pca signed hamming {got} != independent {signed}")
        return bad


# ------------------------------------------------------------ screen-large-p


def q_star(theta: float, beta: float, r: float) -> float:
    """Optimal screening exponent of the paper, written out for the checks."""
    if r < (beta - theta / 2) / 3:
        return 4 * r
    return (beta - theta / 2 + r) ** 2 / (4 * r)


class ScreenLargeP(SweepWorkload):
    """Screened PCA, support screen and two global tests at p = 10^5."""

    name = "screen-large-p"
    methods = ("if_pca", "recover_if_q", "higher_criticism", "agg_chi2")
    checked_rounds = 2

    def sweeps(self, k: int) -> list[SweepSpec]:
        # transition r = 0.10 at beta 0.6 and 0.23 at beta 0.7: 0.05 and 0.35 straddle both;
        # rounds alternate the two betas
        return [SweepSpec(p=10_000 if self.tiny else 100_000, theta=0.5, betas=((0.6, 0.7)[k % 2],), strength_kind="r",
                          strengths=(0.05, 0.35), reps=1, methods={m: {} for m in self.methods},
                          master_seed=derived_seed(self.seed, k))]

    def check(self, rounds: dict) -> list[str]:
        bad = super().check(rounds)
        for k, by_mode in sorted(rounds.items()):
            result = by_mode["serial"].payload[0]
            if k < self.checked_rounds:
                for cell, params, ds, _ in self.sampled_trials(result, k, count=1):
                    bad += self.check_cell(cell, params, ds)
        return bad

    @staticmethod
    def check_cell(cell: dict, params, ds) -> list[str]:
        X, res = ds.X, cell["results"]
        bad = checks.column_pvalues(X, hyptest.column_pvalues(X))
        bad += checks.hc_matches(X, res["tests"]["higher_criticism"]["statistic"]["mean"])
        bad += checks.agg_chi2(X, res["tests"]["agg_chi2"]["statistic"]["mean"])
        sel = checks.screen_selection(X, q_star(params.theta, params.beta, params.r))
        if res["clustering"]["if_pca"]["n_selected"]["mean"] != sel.size:
            bad.append(f"cell {cell['cell']}: if_pca kept {res['clustering']['if_pca']['n_selected']['mean']} "
                       f"columns; independent screen keeps {sel.size}")
        bad += checks.recovery_entry(f"cell {cell['cell']}: recover_if_q", res["recovery"]["recover_if_q"], sel,
                                     ds.support, params.expected_signals)
        return bad


# -------------------------------------------------------- aggregation-search


class AggregationSearch(SweepWorkload):
    """Greedy N-column searches at p = 2000, exact enumerations at p = 32."""

    name = "aggregation-search"
    big_methods = ("sparse_agg_greedy", "signed_sparse_agg", "sparse_agg_l1", "recover_sa_n")
    # at p=32 the signed method, the test and recover_sa_n all enumerate exactly; greedy runs only at
    # p=2000 so that the greedy per-call times describe one problem size
    small_methods = ("sparse_agg_exact", "signed_sparse_agg", "sparse_agg_l1", "recover_sa_n")
    pool = 100  # small instances behind the greedy-versus-exact agreement bar, as in criterion 5

    def sweeps(self, k: int) -> list[SweepSpec]:
        master = derived_seed(self.seed, k)
        # default N is 14 (beta 0.66) and 12 (beta 0.68) at p=2000; 3 at p=32 for both small betas.
        # Rounds alternate the strength, which barely moves the cost, and keep both betas, which do.
        big = SweepSpec(p=300 if self.tiny else 2_000, theta=0.5, betas=(0.66, 0.68), strength_kind="alpha",
                        strengths=((0.1, 0.3)[k % 2],), reps=1, methods={m: {} for m in self.big_methods},
                        master_seed=master)
        small = SweepSpec(p=32, theta=0.9, betas=(0.69, 0.71), strength_kind="alpha", strengths=((0.02, 0.05)[k % 2],),
                          reps=1, methods={m: {} for m in self.small_methods}, master_seed=master)
        return [big, small]

    def check(self, rounds: dict) -> list[str]:
        bad = super().check(rounds)
        pairs = []
        for k, by_mode in sorted(rounds.items()):
            big, small = by_mode["serial"].payload
            if k < self.checked_rounds:
                for cell, params, ds, seed in self.sampled_trials(big, k, count=1):
                    bad += self.check_big(cell, params, ds.X, ds.support, seed)
            for cell, params, ds, seed in self.sampled_trials(small, k, count=len(small["cells"])):
                pairs.append(self.greedy_exact_pair(params, ds.X, seed))
                if k == 0:
                    bad += self.check_small(cell, params, ds.X)
        spec = self.sweeps(0)[1]
        params = spec.cell_params(spec.betas[0], spec.strengths[0])
        for i in range(len(pairs), self.pool):
            seed = derived_seed(self.seed, 5, i)
            pairs.append(self.greedy_exact_pair(params, gen_dataset(params, seed=seed).X, seed))
        return bad + checks.greedy_vs_exact(pairs)

    @staticmethod
    def check_big(cell: dict, params, X, support, seed) -> list[str]:
        N = cluster.default_sparsity(params.expected_signals)
        res = cell["results"]
        greedy = cluster.sparse_aggregation_greedy(X, N, restarts=8, seed=seed)
        w = np.zeros(X.shape[1])
        w[greedy.selected] = 1.0
        bad = checks.objective_matches(X, w, greedy.objective, "sparse_aggregation_greedy")
        bad += checks.one_swap_optimal(X, w, (1,), "sparse_aggregation_greedy")
        stat = res["tests"]["sparse_agg_l1"]["statistic"]["mean"]
        if not math.isclose(stat, greedy.objective / math.sqrt(N), rel_tol=1e-12):
            bad.append(f"cell {cell['cell']}: sparse_agg_l1 statistic {stat} != objective / sqrt(N)")
        if res["clustering"]["sparse_agg_greedy"]["n_selected"]["mean"] != N:
            bad.append(f"cell {cell['cell']}: sparse_agg_greedy did not select N={N} columns")
        bad += checks.recovery_entry(f"cell {cell['cell']}: recover_sa_n", res["recovery"]["recover_sa_n"],
                                     greedy.selected, support, params.expected_signals)
        signed = cluster.signed_sparse_aggregation(X, N, greedy=True, restarts=8, seed=seed)
        bad += checks.signed_weights(signed.mu_hat, N)
        bad += checks.objective_matches(X, signed.mu_hat, signed.objective, "signed_sparse_aggregation")
        bad += checks.one_swap_optimal(X, signed.mu_hat, (1, -1), "signed_sparse_aggregation")
        return bad

    @staticmethod
    def greedy_exact_pair(params, X, seed) -> tuple[float, float, bool]:
        N = cluster.default_sparsity(params.expected_signals)
        exact = cluster.sparse_aggregation_exact(X, N)
        greedy = cluster.sparse_aggregation_greedy(X, N, restarts=8, seed=seed)
        return greedy.objective, exact.objective, set(greedy.selected.tolist()) == set(exact.selected.tolist())

    @staticmethod
    def check_small(cell: dict, params, X) -> list[str]:
        """Both exact solvers against an independent enumeration."""
        N = cluster.default_sparsity(params.expected_signals)
        exact = cluster.sparse_aggregation_exact(X, N)
        w = np.zeros(X.shape[1])
        w[exact.selected] = 1.0
        bad = checks.objective_matches(X, w, exact.objective, "sparse_aggregation_exact")
        best = checks.exact_unsigned(X, N)
        if not math.isclose(exact.objective, best, rel_tol=1e-12):
            bad.append(f"sparse_aggregation_exact objective {exact.objective} != enumerated optimum {best}")
        stat = cell["results"]["tests"]["sparse_agg_l1"]["statistic"]["mean"]
        if not math.isclose(stat, best / math.sqrt(N), rel_tol=1e-12):
            bad.append(f"cell {cell['cell']}: exact sparse_agg_l1 statistic {stat} != optimum / sqrt(N)")
        signed = cluster.signed_sparse_aggregation(X, N)
        bad += checks.signed_weights(signed.mu_hat, N)
        bad += checks.objective_matches(X, signed.mu_hat, signed.objective, "signed exact enumeration")
        best = checks.exact_signed(X, N)
        if not math.isclose(signed.objective, best, rel_tol=1e-12):
            bad.append(f"signed exact objective {signed.objective} != enumerated optimum {best}")
        return bad


# ---------------------------------------------------------- applied-pipeline


class AppliedPipeline(Workload):
    """Load a labeled CSV, screen it three ways, cluster, and run the k-means baseline."""

    name = "applied-pipeline"
    q_grid = [round(0.1 * i, 1) for i in range(1, 16)]
    fdr = 0.05
    top_k = 100

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        self.data_path = self.workdir / "expression.csv"
        self.labels_path = self.workdir / "labels.txt"

    def make_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Expression-style matrix: per-feature level and scale, three weak latent
        factors (colored noise), and k features (100 at full size) shifted by 2.5 sd
        between classes."""
        n, p, k = (60, 500, 40) if self.tiny else (108, 5_000, 100)
        rng = np.random.default_rng(derived_seed(self.seed, 3))
        classes = np.repeat([0, 1], [n * 5 // 9, n - n * 5 // 9])
        rng.shuffle(classes)
        Z = rng.standard_normal((n, p)) + rng.standard_normal((n, 3)) @ (0.05 * rng.standard_normal((3, p)))
        informative = rng.choice(p, k, replace=False)
        Z[:, informative] += np.outer(classes - classes.mean(), 2.5 * rng.choice([-1.0, 1.0], k))
        X = rng.normal(6.0, 1.0, p) + np.exp(rng.normal(0.0, 0.5, p)) * Z
        return X, classes

    def prepare(self) -> None:
        self.X, self.classes = X, classes = self.make_matrix()
        header = ",".join(f"g{j}" for j in range(X.shape[1]))
        np.savetxt(self.data_path, X, delimiter=",", fmt="%.17g", header=header, comments="")
        self.labels_path.write_text("".join("AML\n" if c else "ALL\n" for c in classes))

    def pipeline(self) -> tuple[dict, int]:
        """One full pipeline run: (report, failed operations)."""
        data = ifpca.load_labeled_csv(self.data_path, labels_path=self.labels_path)
        report = {"X": data.X}
        failed = 0
        for mode, kwargs in (("sweep", {"sweep": self.q_grid}), ("fdr", {"fdr": self.fdr}), ("top_k", {"top_k": self.top_k})):
            try:
                rep = ifpca.ifpca_pipeline(data, **kwargs)
                report[mode] = [{"q": r.q, "n_selected": r.n_selected, "errors": r.errors} for r in rep.rows]
            except ValueError as exc:
                report[mode] = str(exc)
                failed += 1
        try:
            report["kmeans"] = ifpca.baseline_kmeans(data)
        except ValueError as exc:
            report["kmeans"] = str(exc)
            failed += 1
        return report, failed

    def warm_up(self) -> None:
        for _ in range(2):
            self.pipeline()

    def round(self, k: int, workers: int, tracer=None) -> Outcome:
        if workers == 1:
            runs = [self.pipeline()]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                runs = [f.result() for f in [pool.submit(self.pipeline) for _ in range(workers)]]
        reports = []
        for report, _ in runs:
            report["X_matches"] = bool(np.array_equal(report.pop("X"), self.X))
            reports.append(report)
        return Outcome(len(runs), 5 * len(runs), sum(f for _, f in runs), reports)

    def expected(self) -> dict:
        """Selected counts and error counts computed apart from the package."""
        truth = np.where(self.classes == 0, -1, 1)
        Xs = checks.mad_normalize(self.X)
        n, p = Xs.shape
        scores = checks.two_sided_scores(Xs)
        sels = {"sweep": [np.flatnonzero(scores > math.sqrt(2 * q * math.log(p))) for q in self.q_grid],
                "fdr": [checks.fdr_selection(scores, n, self.fdr)],
                "top_k": [np.sort(np.argsort(-scores, kind="stable")[: self.top_k])]}
        return {mode: [(sel, checks.best_split_errors(Xs, sel, truth)) for sel in s] for mode, s in sels.items()}

    def check(self, rounds: dict) -> list[str]:
        bad = []
        expected = self.expected()
        n = self.X.shape[0]
        reports = [r for by_mode in rounds.values() for out in by_mode.values() for r in out.payload]
        first = reports[0]
        failed = [mode for mode in ("sweep", "fdr", "top_k", "kmeans") if isinstance(first[mode], str)]
        if failed:
            return [f"{mode} failed: {first[mode]}" for mode in failed]
        for mode, rows in expected.items():
            for i, (row, (sel, errors)) in enumerate(zip(first[mode], rows)):
                bad += checks.pipeline_row(f"{mode} row {i}", row, sel, errors)
        if not any(row["errors"] <= n // 4 for row in first["sweep"]):
            bad.append(f"no q-sweep row clusters well below chance (<= {n // 4} errors of {n})")
        if not 0 <= first["kmeans"] <= n // 2:
            bad.append(f"baseline k-means error count {first['kmeans']} outside [0, {n // 2}]")
        if not first["X_matches"]:
            bad.append("load_labeled_csv did not reproduce the written matrix")
        if any(r != first for r in reports):
            bad.append("pipeline runs on the same file disagree")
        return bad


WORKLOADS = {w.name: w for w in (PhaseGrid, ScreenLargeP, AggregationSearch, AppliedPipeline)}
