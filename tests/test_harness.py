import ast
import hashlib
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rareweak import cluster, harness, model
from rareweak.harness import (
    METHODS,
    SweepSpec,
    TrialSpec,
    TrialStats,
    canonical_json,
    run_sweep,
    run_trial,
    sweep_csv_rows,
    trial_seed,
)
from rareweak.metrics import cos_angle
from rareweak.model import ArwParams, NoiseSpec, diagonal_coloring, gen_dataset
from rareweak.phase import rho_star_theta
from rareweak.spectral import q_star


def small_spec(seed=0, **params_kw):
    base = dict(p=300, theta=0.5, beta=0.4, alpha=0.15)
    base.update(params_kw)
    return TrialSpec(
        params=ArwParams(**base),
        methods={"simple_agg": {}, "classical_pca": {}, "recover_if_q": {"q": 1.5}, "agg_chi2": {}},
        seed=seed,
    )


class TestRunTrial:
    def test_null_model_random_guess_range(self):
        errs = []
        for seed in range(10):
            spec = TrialSpec(
                params=ArwParams(p=2_000, theta=0.5, beta=0.4, alpha=math.inf),
                methods={"simple_agg": {}, "classical_pca": {}},
                seed=seed,
            )
            rec = run_trial(spec)
            errs.extend(e["hamming"] for e in rec.clustering.values())
        assert 0.3 <= float(np.mean(errs)) <= 0.5

    def test_noiseless_like_strong_signal_zero_error(self):
        spec = TrialSpec(
            params=ArwParams(p=200, theta=0.9, beta=0.05, alpha=0.01),
            methods={"simple_agg": {}, "classical_pca": {}},
            seed=3,
        )
        rec = run_trial(spec)
        assert all(e["hamming"] == 0.0 for e in rec.clustering.values())

    def test_repeat_identical(self):
        a = run_trial(small_spec(seed=5)).to_dict()
        b = run_trial(small_spec(seed=5)).to_dict()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_method_error_does_not_abort(self):
        spec = TrialSpec(
            params=ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.15),
            methods={"sparse_agg_exact": {"N": 50}, "simple_agg": {}},
            seed=1,
        )
        rec = run_trial(spec)
        assert "enumeration budget" in rec.clustering["sparse_agg_exact"]["error"]
        assert "hamming" in rec.clustering["simple_agg"]
        assert rec.has_errors

    def test_overflowing_sums_are_method_errors(self):
        # finite data whose 3-column sums may overflow: every aggregation solver refuses it
        # before summing, and the trial records that per method
        params = ArwParams(p=10, theta=0.8, beta=0.5, alpha=0.1)  # n = 6
        methods = {
            "sparse_agg_exact": {"N": 3},
            "sparse_agg_greedy": {"N": 3},
            "signed_sparse_agg": {"N": 3},
            "sparse_agg_l1": {"N": 3},
        }
        spec = TrialSpec(params=params, methods=methods, seed=2, noise=NoiseSpec.colored(B=1e307 * np.eye(10)))
        rec = run_trial(spec)
        entries = [rec.clustering[name] for name in methods if name != "sparse_agg_l1"] + [rec.tests["sparse_agg_l1"]]
        assert entries == [{"error": "sums of 3 columns of X may overflow: entries too large"}] * 4
        assert rec.has_errors

    def test_colored_spec_round_trip(self):
        # a spec file lists A and B; it loads to the Python-built spec, and the record names them by digest
        rng = np.random.default_rng(3)
        noise = NoiseSpec.colored(A=rng.standard_normal((17, 17)), B=diagonal_coloring(300, 4.0))
        params = ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.15)
        spec = TrialSpec(params=params, methods={"simple_agg": {}}, seed=4, noise=noise)
        listed = {"kind": "colored", "A": noise.A.tolist(), "B": noise.B.tolist()}
        text = json.dumps({"params": params.to_dict(), "methods": {"simple_agg": {}}, "seed": 4, "noise": listed})
        back = TrialSpec.from_dict(json.loads(text))
        np.testing.assert_array_equal(back.noise.A, noise.A)
        np.testing.assert_array_equal(back.noise.B, noise.B)
        assert back.spec_hash() == spec.spec_hash() != replace(spec, noise=NoiseSpec.white()).spec_hash()
        assert replace(spec, noise=NoiseSpec.colored(B=noise.B)).spec_hash() != spec.spec_hash()
        digest = {
            name: {"shape": list(m.shape), "sha256": hashlib.sha256(m.tobytes()).hexdigest()}
            for name, m in (("A", noise.A), ("B", noise.B))
        }
        record = run_trial(back).to_dict()["spec"]
        assert record == spec.to_dict() and record["noise"] == {"kind": "colored", **digest}

    def test_record_digests_each_matrix_once(self, monkeypatch):
        # the record's spec dict is built once and its hash is spec_hash: A and B are digested once each
        calls = []
        digest = model._matrix_digest
        monkeypatch.setattr(model, "_matrix_digest", lambda m: calls.append(m.shape) or digest(m))
        noise = NoiseSpec.colored(A=diagonal_coloring(17, 2.0), B=diagonal_coloring(300, 4.0))
        params = ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.15)
        spec = TrialSpec(params=params, methods={"agg_chi2": {}}, noise=noise)
        rec = run_trial(spec)
        assert sorted(calls) == [(17, 17), (300, 300)]
        assert rec.spec_hash == spec.spec_hash()

    def test_colored_hash_reads_matrix_bytes(self):
        # a coloring matrix enters the hash by its shape and bytes: equal matrices built
        # separately (or stored in another order) hash the same, a one-entry change does not
        params = ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.15)

        def spec_hash(B):
            return TrialSpec(params=params, methods={"simple_agg": {}}, noise=NoiseSpec.colored(B=B)).spec_hash()

        B = diagonal_coloring(300, 4.0)
        changed = B.copy()
        changed[7, 3] = 1e-12
        assert spec_hash(B) == spec_hash(diagonal_coloring(300, 4.0)) == spec_hash(np.asfortranarray(B))
        assert spec_hash(changed) != spec_hash(B)

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_white_hash_is_the_spec_json_hash(self, seed):
        spec = small_spec(seed=seed)
        blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
        assert spec.spec_hash() == hashlib.sha256(blob.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1", None])
    def test_bad_seed_rejected_when_built(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            small_spec(seed=seed)

    def test_integral_seed_stored_as_int(self):
        spec = small_spec(seed=7.0)
        assert spec.seed == 7 and type(spec.seed) is int
        assert spec.spec_hash() == small_spec(seed=7).spec_hash()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(params=ArwParams(p=100, theta=0.5, beta=0.4, alpha=0.2), methods={"magic": {}})

    @pytest.mark.parametrize(
        "methods, bad",
        [
            ({"if_pca": {"Q": 0.01}}, "Q"),
            ({"sparse_agg_l1": {"solver": "greedy"}}, "solver"),
            # the solver and its settings follow from p and N; a spec sets neither
            ({"sparse_agg_exact": {"budget": 10}}, "budget"),
            ({"sparse_agg_greedy": {"restarts": 2}}, "restarts"),
            ({"signed_sparse_agg": {"greedy": True}}, "greedy"),
            ({"recover_sa_n": {"N": 3, "greedy": False}}, "greedy"),
            ({"sparse_agg_l1": {"restarts": None}}, "restarts"),
        ],
    )
    def test_unaccepted_option_rejected(self, methods, bad):
        (name,) = methods
        with pytest.raises(ValueError, match=f"{name}.*{bad}"):
            TrialSpec(params=ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.2), methods=methods)

    def test_zero_N_is_not_the_default(self):
        spec = TrialSpec(
            params=ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.15),
            methods={"sparse_agg_greedy": {"N": 0}, "sparse_agg_exact": {"N": None}},
            seed=1,
        )
        rec = run_trial(spec)
        assert rec.clustering["sparse_agg_greedy"] == {"error": "N must lie in [1, 300], got 0"}
        assert "error" in rec.clustering["sparse_agg_exact"]  # None takes the default N=31: over budget

    @pytest.mark.parametrize(
        "name, group", [("sparse_agg_l1", "tests"), ("signed_sparse_agg", "clustering"), ("recover_sa_n", "recovery")]
    )
    def test_one_exact_or_greedy_rule(self, name, group, monkeypatch):
        # the exact search runs within the enumeration budget and the greedy one above it
        params = ArwParams(p=40, theta=0.5, beta=0.8, alpha=0.2)  # default N=3: C(40, 3) = 9880 supports
        ran = []
        for solver in ("_exact_search", "_greedy_search"):
            real = getattr(cluster, solver)
            monkeypatch.setattr(cluster, solver, lambda *args, real=real, solver=solver: ran.append(solver) or real(*args))
        for budget, solver in [(cluster.DEFAULT_ENUM_BUDGET, "_exact_search"), (10, "_greedy_search")]:
            monkeypatch.setattr(cluster, "DEFAULT_ENUM_BUDGET", budget)
            ran.clear()
            entry = getattr(run_trial(TrialSpec(params=params, methods={name: {}}, seed=4)), group)[name]
            assert "error" not in entry
            assert ran == [solver]

    def test_recover_sa_n_over_budget_runs_greedy(self):
        # C(60, 20) is far over the enumeration budget, so the one rule picks the greedy search
        spec = TrialSpec(
            params=ArwParams(p=60, theta=0.5, beta=0.5, alpha=0.2), methods={"recover_sa_n": {"N": 20}}, seed=3
        )
        entry = run_trial(spec).recovery["recover_sa_n"]
        assert "error" not in entry
        assert entry["support_size"] == 20

    @pytest.mark.parametrize("N", [-1, 301])
    def test_N_range_checked_before_the_budget_is_charged(self, N, monkeypatch):
        # an N outside [1, p] is refused by the range check before the budget count C(p, N) is formed
        charged, real = [], math.comb
        monkeypatch.setattr(math, "comb", lambda *args: charged.append(args) or real(*args))
        methods = {"recover_sa_n": {"N": N}, "sparse_agg_l1": {"N": N}, "signed_sparse_agg": {"N": N}}
        spec = TrialSpec(params=ArwParams(p=300, theta=0.5, beta=0.4, alpha=0.15), methods=methods, seed=1)
        rec = run_trial(spec)
        error = {"error": f"N must lie in [1, 300], got {N}"}
        assert rec.recovery["recover_sa_n"] == rec.tests["sparse_agg_l1"] == rec.clustering["signed_sparse_agg"] == error
        assert (300, N) not in charged

    def test_entries_call_through_module_attributes(self, monkeypatch):
        # a tracer swaps module attributes; every table entry must pick the swap up
        from rareweak import cluster, hyptest, spectral

        calls = {
            "simple_agg": (cluster, "simple_aggregation"),
            "sparse_agg_exact": (cluster, "sparse_aggregation_exact"),
            "sparse_agg_greedy": (cluster, "sparse_aggregation_greedy"),
            "classical_pca": (cluster, "classical_pca"),
            "if_pca": (spectral, "chi2_scores"),
            "signed_sparse_agg": (cluster, "signed_sparse_aggregation"),
            "recover_sa_star": (cluster, "simple_aggregation"),
            "recover_if_star": (cluster, "classical_pca"),
            "recover_sa_n": (cluster, "sparse_aggregation_exact"),
            "recover_if_q": (spectral, "chi2_scores"),
            "recover_signed_pca": (cluster, "classical_pca"),
            "agg_chi2": (hyptest, "simple_agg_test"),
            "sparse_agg_l1": (cluster, "sparse_aggregation_exact"),
            "higher_criticism": (spectral, "chi2_scores"),
        }
        seen = []

        def spy(real, attr):
            def wrapper(*args, **kwargs):
                seen.append(attr)
                return real(*args, **kwargs)

            return wrapper

        for module, attr in set(calls.values()):  # spy once on an attribute that several entries call
            monkeypatch.setattr(module, attr, spy(getattr(module, attr), attr))
        for name, (_, attr) in calls.items():
            seen.clear()
            spec = TrialSpec(params=ArwParams(p=120, theta=0.5, beta=0.8, alpha=0.05), methods={name: {}}, seed=2)
            assert not run_trial(spec).has_errors
            assert seen[0] == attr, name
        # the three methods that read the unsigned greedy search share one call: C(120, 4) is over budget
        seen.clear()
        shared = {"sparse_agg_greedy": {"N": 4}, "sparse_agg_l1": {"N": 4}, "recover_sa_n": {"N": 4}}
        assert not run_trial(TrialSpec(params=spec.params, methods=shared, seed=2)).has_errors
        assert seen.count("sparse_aggregation_greedy") == 1
        # and the three methods that read the chi-square column scores share one pass over X
        seen.clear()
        screens = {"if_pca": {}, "recover_if_q": {}, "higher_criticism": {}}
        assert not run_trial(TrialSpec(params=spec.params, methods=screens, seed=2)).has_errors
        assert seen.count("chi2_scores") == 1
        # the three methods that read classical PCA share one call
        seen.clear()
        pca = {"classical_pca": {}, "recover_if_star": {}, "recover_signed_pca": {}}
        assert not run_trial(TrialSpec(params=spec.params, methods=pca, seed=2)).has_errors
        assert seen.count("classical_pca") == 1
        # and the two methods that read the row-sum labels share one call
        seen.clear()
        row_sums = {"simple_agg": {}, "recover_sa_star": {}}
        assert not run_trial(TrialSpec(params=spec.params, methods=row_sums, seed=2)).has_errors
        assert seen.count("simple_aggregation") == 1

    def test_failed_shared_result_is_not_kept(self, monkeypatch):
        # only results are kept: each reader of a call that raises calls it again and records
        # the error, and the methods that do not read it still run
        calls = []

        def broken(X):
            calls.append(X.shape)
            raise ValueError("no PCA here")

        monkeypatch.setattr(cluster, "classical_pca", broken)
        readers = {"classical_pca": {}, "recover_if_star": {}, "recover_signed_pca": {}}
        methods = readers | {"simple_agg": {}, "recover_sa_star": {}, "higher_criticism": {}}
        rec = run_trial(TrialSpec(params=ArwParams(p=120, theta=0.5, beta=0.8, alpha=0.05), methods=methods, seed=2))
        assert rec.clustering["classical_pca"] == {"error": "no PCA here"}
        assert rec.recovery["recover_if_star"] == rec.recovery["recover_signed_pca"] == {"error": "no PCA here"}
        assert len(calls) == 3
        others = [rec.clustering["simple_agg"], rec.recovery["recover_sa_star"], rec.tests["higher_criticism"]]
        assert all("error" not in entry for entry in others)

    def test_all_method_kinds_run(self):
        spec = TrialSpec(
            params=ArwParams(p=120, theta=0.5, beta=0.4, alpha=0.05, sign_mix_a=0.5),
            methods={
                "simple_agg": {},
                "sparse_agg_exact": {"N": 2},
                "sparse_agg_greedy": {"N": 2},
                "classical_pca": {},
                "if_pca": {"q": 0.5},
                "signed_sparse_agg": {"N": 2},
                "recover_sa_star": {},
                "recover_if_star": {},
                "recover_sa_n": {"N": 2},
                "recover_if_q": {"q": 1.0},
                "recover_signed_pca": {},
                "agg_chi2": {},
                "sparse_agg_l1": {"N": 2},
                "higher_criticism": {},
            },
            seed=11,
        )
        rec = run_trial(spec)
        assert not rec.has_errors
        assert set(rec.clustering) == {
            "simple_agg",
            "sparse_agg_exact",
            "sparse_agg_greedy",
            "classical_pca",
            "if_pca",
            "signed_sparse_agg",
        }
        assert "signed_hamming" in rec.recovery["recover_signed_pca"]
        assert set(rec.tests) == {"agg_chi2", "sparse_agg_l1", "higher_criticism"}


def test_traced_names_resolve(monkeypatch):
    # benchmarks/run.py --trace 1 wraps these names and reads these results; a deletion must not break it
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    loader = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "benchmark_spans", spans)  # its dataclasses look their module up
    loader.loader.exec_module(spans)
    for module, name in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"rareweak.{module}"), name)), f"{module}.{name}"

    from rareweak.cluster import if_pca
    from rareweak.spectral import leading_left_singular

    X = np.random.default_rng(5).standard_normal((6, 40))
    _, counts = spans._counts("spectral.leading_left_singular", (X,), {}, leading_left_singular(X))
    assert set(counts) == {"iterations", "unconverged", "gflop"}
    _, counts = spans._counts("cluster.if_pca", (X, 0.1), {}, if_pca(X, 0.1))
    assert counts["selected"] >= 0


def test_exported_names_resolve():
    import rareweak

    for info in pkgutil.iter_modules(rareweak.__path__):
        module = importlib.import_module(f"rareweak.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


def test_package_reexports_are_in_module_all():
    # a name the package root re-exports is public in its own module too, so that
    # dropping it from a module's __all__ cannot leave the root exporting it
    import rareweak

    tree = ast.parse(Path(rareweak.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"rareweak.{node.module}")
        for alias in node.names:
            assert alias.asname is None and alias.name in module.__all__, f"{node.module}.{alias.name}"


def stats_of(params: ArwParams) -> TrialStats:
    """TrialStats on a zero X of the calibration's shape, seed 0: for the rules that read only params."""
    return TrialStats(np.zeros((params.n, params.p)), params, 0)


@pytest.mark.parametrize("budget, greedy", [(16, False), (15, True)])
def test_signed_rule_charges_evaluated_pairs(budget, greedy, monkeypatch):
    # p = N = 5: the signed enumeration evaluates one support with 2^4 sign patterns
    monkeypatch.setattr(cluster, "DEFAULT_ENUM_BUDGET", budget)
    stats = stats_of(ArwParams(p=5, theta=0.5, beta=0.5, alpha=0.2))
    assert stats.greedy({"N": 5}, signed=True) is greedy
    assert stats.greedy({"N": 5}) is False


# theta = 1/2: IF-PCA's range is 1/2 < beta < 3/4, open at both ends
IFPCA_RANGE_EDGES = [(0.5, False), (math.nextafter(0.5, 1), True), (math.nextafter(0.75, 0), True), (0.75, False)]


@pytest.mark.parametrize("beta, inside", IFPCA_RANGE_EDGES)
def test_ifpca_range_sets_default_q_and_region(beta, inside):
    # the default q and the ifpca_cosine region switch on together, at the range's ends
    params = ArwParams(p=400, theta=0.5, beta=beta, r=0.3)
    assert stats_of(params).q({}) == (q_star(0.5, beta, 0.3) if inside else 3.0)
    sweep = SweepSpec(p=400, theta=0.5, betas=(beta,), strength_kind="r", strengths=(0.3,), reps=1)
    (cell,) = run_sweep(sweep)["cells"]
    assert ("ifpca_cosine" in cell["regions"]) is inside
    if not inside:
        with pytest.raises(ValueError, match="beta must lie in"):
            rho_star_theta(0.5, beta)


@pytest.mark.parametrize("beta", [0.6, 0.75])
def test_alpha_cell_has_no_ifpca_range(beta):
    # an alpha cell takes q = 3 and the six alpha regions, inside IF-PCA's range or not
    assert stats_of(ArwParams(p=400, theta=0.5, beta=beta, alpha=0.2)).q({}) == 3.0
    sweep = SweepSpec(p=400, theta=0.5, betas=(beta,), strength_kind="alpha", strengths=(0.2,), reps=1)
    (cell,) = run_sweep(sweep)["cells"]
    assert len(cell["regions"]) == 6 and "ifpca_cosine" not in cell["regions"]


def test_every_option_type_has_a_method():
    # the type table names exactly the options some method accepts, so none outlives its last method
    assert set(harness._OPTION_TYPES) == set().union(*(method.options for method in METHODS.values()))


@pytest.mark.parametrize(
    "params, options",
    [
        # default N = 3: every search enumerates
        (ArwParams(p=40, theta=0.5, beta=0.75, alpha=0.1, sign_mix_a=0.5), {}),
        # default N = 6: every search is greedy, and sparse_agg_exact records its budget error
        (ArwParams(p=300, theta=0.5, beta=0.7, alpha=0.1), {}),
        # exact searches at N = 2 beside greedy ones at N = 4 and the default N = 6
        (
            ArwParams(p=300, theta=0.5, beta=0.7, alpha=0.1),
            {
                "sparse_agg_exact": {"N": 2},
                "recover_sa_n": {"N": 2},
                "signed_sparse_agg": {"N": 2},
                "sparse_agg_greedy": {"N": 4},
            },
        ),
    ],
    ids=["exact", "greedy", "mixed"],
)
def test_shared_results_match_one_method_trials(params, options):
    # results shared within a trial must leave every entry as its own trial records it
    methods = {name: options.get(name, {}) for name in METHODS}
    together = run_trial(TrialSpec(params=params, methods=methods, seed=0))
    for name, opts in methods.items():
        alone = run_trial(TrialSpec(params=params, methods={name: opts}, seed=0))
        group = METHODS[name].group
        assert getattr(together, group)[name] == getattr(alone, group)[name], name


# the n-vector each clustering method takes the signs of, formed from X and the result
SCORE_FORMULAS = {
    "simple_agg": lambda X, res: X.sum(axis=1),
    "sparse_agg_exact": lambda X, res: X[:, res.selected].sum(axis=1),
    "sparse_agg_greedy": lambda X, res: X[:, res.selected].sum(axis=1),
    "classical_pca": lambda X, res: res.singular.vector,
    "if_pca": lambda X, res: res.singular.vector,
    "signed_sparse_agg": lambda X, res: X @ res.mu_hat,
}


@pytest.mark.parametrize("sign_mix_a", [0.0, 0.5], ids=["one_sided", "signed"])
def test_clustering_score_contract(sign_mix_a):
    # each clustering result carries the vector it signs, and the record's cosine is read off it
    params = ArwParams(p=40, theta=0.5, beta=0.75, alpha=0.1, sign_mix_a=sign_mix_a)  # default N = 3
    methods = {name: {"q": 0.5} if name == "if_pca" else {} for name in SCORE_FORMULAS}
    assert set(methods) == {name for name, method in METHODS.items() if method.group == "clustering"}
    record = run_trial(TrialSpec(params=params, methods=methods, seed=12))
    ds = gen_dataset(params, seed=12)
    stats = TrialStats(ds.X, params, 12)
    for name, formula in SCORE_FORMULAS.items():
        res = METHODS[name].run(stats, methods[name])
        assert res.labels.tolist() == cluster._sgn(res.score).tolist(), name
        assert res.score.tobytes() == formula(ds.X, res).tobytes(), name
        assert record.clustering[name]["cosine"] == cos_angle(res.score, ds.labels), name


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = trial_seed(7, 3, 4)
        assert a == trial_seed(7, 3, 4)
        assert a != trial_seed(7, 3, 5)
        assert a != trial_seed(7, 4, 4)
        assert a != trial_seed(8, 3, 4)

    def test_adding_cells_never_perturbs(self):
        before = [trial_seed(0, cell, rep) for cell in range(3) for rep in range(2)]
        after = [trial_seed(0, cell, rep) for cell in range(5) for rep in range(2)][:6]
        assert before == after


def sweep_json(result: dict) -> str:
    """canonical_json of a run_sweep result without its meta block (wall time, timestamp)."""
    return canonical_json({k: v for k, v in result.items() if k != "meta"})


def tiny_sweep(**kw):
    base = dict(
        p=300,
        theta=0.5,
        betas=(0.2, 0.4),
        strength_kind="alpha_ratio",
        strengths=(0.5, 1.5),
        reps=3,
        methods={"simple_agg": {}, "agg_chi2": {}},
        master_seed=42,
    )
    base.update(kw)
    return SweepSpec(**base)


# a one-cell sweep with several reps, the default grid, and an invalid cell (beta = 1.5) between valid ones
SWEEP_CASES = {
    "one_cell": dict(betas=(0.3,), strengths=(0.2,), strength_kind="alpha", reps=4),
    "grid": {},
    "invalid_cell": dict(betas=(0.2, 1.5, 0.4), strengths=(1.5,), reps=2),
}


class TestRunSweep:
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_single_cell_matches_trial_aggregation(self, case):
        # each cell is the aggregate of its own trials in rep order; an invalid cell records its error once
        sweep = tiny_sweep(**SWEEP_CASES[case])
        cells = run_sweep(sweep)["cells"]
        grid = [(beta, strength) for beta in sweep.betas for strength in sweep.strengths]
        assert [(c["cell"], c["beta"], c["strength"]) for c in cells] == [(i, *bs) for i, bs in enumerate(grid)]
        for cell in cells:
            if cell["beta"] > 1:
                assert cell == {"cell": cell["cell"], "beta": 1.5, "strength": 1.5, "error": "beta must lie in (0, 1)"}
                continue
            params = sweep.cell_params(cell["beta"], cell["strength"])
            records = [
                run_trial(TrialSpec(params=params, methods=sweep.methods, seed=trial_seed(42, cell["cell"], rep)))
                for rep in range(sweep.reps)
            ]
            assert cell["results"] == harness._aggregate_cell(records)
            # and, independently of _aggregate_cell, the statistics agree with the trials
            hamming = np.array([r.clustering["simple_agg"]["hamming"] for r in records])
            se = hamming.std(ddof=1) / math.sqrt(sweep.reps)
            summary = cell["results"]["clustering"]["simple_agg"]
            assert summary["hamming"]["mean"] == pytest.approx(np.mean(hamming))
            assert summary["hamming"]["median"] == pytest.approx(np.median(hamming))
            assert summary["hamming"]["ci_low"] == pytest.approx(np.mean(hamming) - 1.959964 * se)
            assert summary["hamming"]["ci_high"] == pytest.approx(np.mean(hamming) + 1.959964 * se)
            assert summary["hamming"]["n"] == sweep.reps
            assert summary["fallback_rate"] == pytest.approx(np.mean([r.clustering["simple_agg"]["fallback"] for r in records]))
            rejects = [r.tests["agg_chi2"]["reject"] for r in records]
            assert cell["results"]["tests"]["agg_chi2"]["rejection_rate"] == pytest.approx(np.mean(rejects))

    def test_signed_recovery_statistics_match_trials(self):
        # the recovery group's statistics, signed Hamming included, and its CSV column,
        # checked against numpy over the cell's own trial records
        sweep = tiny_sweep(betas=(0.3,), strengths=(0.5,), reps=2, sign_mix_a=0.5, methods={"recover_signed_pca": {}})
        result = run_sweep(sweep)
        (cell,) = result["cells"]
        params = sweep.cell_params(0.3, 0.5)
        records = [
            run_trial(TrialSpec(params=params, methods=sweep.methods, seed=trial_seed(42, 0, rep))).recovery
            for rep in range(2)
        ]
        summary = cell["results"]["recovery"]["recover_signed_pca"]
        assert set(summary) == {"hamming", "support_size", "signed_hamming"}
        for key, stats in summary.items():
            values = np.array([float(r["recover_signed_pca"][key]) for r in records])
            se = values.std(ddof=1) / math.sqrt(2)
            assert stats["mean"] == pytest.approx(np.mean(values))
            assert stats["median"] == pytest.approx(np.median(values))
            assert stats["ci_low"] == pytest.approx(np.mean(values) - 1.959964 * se)
            assert stats["ci_high"] == pytest.approx(np.mean(values) + 1.959964 * se)
            assert stats["n"] == 2
        (row,) = sweep_csv_rows(result)
        assert row["recovery_hamming:recover_signed_pca"] == summary["hamming"]["mean"]

    def test_summary_keys_of_every_method(self):
        # one field-presence rule summarizes every group: each method's cell summary has exactly these keys
        sweep = tiny_sweep(betas=(0.75,), strength_kind="alpha", strengths=(0.1,), reps=2, sign_mix_a=0.5,
                           p=40, methods={name: {} for name in METHODS})
        (cell,) = run_sweep(sweep)["cells"]
        assert cell["results"]["n_errors"] == 0
        clustering = {"hamming", "cosine", "fallback_rate"}
        recovery = {"hamming", "support_size"}
        tests = {"rejection_rate", "ci_low", "ci_high", "statistic", "n"}
        want = {
            "simple_agg": clustering,
            "sparse_agg_exact": clustering | {"n_selected"},
            "sparse_agg_greedy": clustering | {"n_selected"},
            "classical_pca": clustering,
            "if_pca": clustering | {"n_selected"},
            "signed_sparse_agg": clustering | {"n_selected"},
            "recover_sa_star": recovery,
            "recover_if_star": recovery,
            "recover_sa_n": recovery,
            "recover_if_q": recovery,
            "recover_signed_pca": recovery | {"signed_hamming"},
            "agg_chi2": tests,
            "sparse_agg_l1": tests,
            "higher_criticism": tests,
        }
        got = {name: set(summary) for group in harness.GROUPS for name, summary in cell["results"][group].items()}
        assert got == want

    def test_r_cell_at_rho_star_on_boundary(self):
        rho = rho_star_theta(0.5, 0.6)
        sweep = tiny_sweep(betas=(0.6,), strength_kind="r", strengths=(rho - 0.05, rho, rho + 0.05), reps=1)
        regions = [cell["regions"] for cell in run_sweep(sweep)["cells"]]
        assert regions == [{"ifpca_cosine": kind} for kind in ("impossible", "on_boundary", "possible")]

    def test_region_annotations_present(self):
        result = run_sweep(tiny_sweep())
        cell = result["cells"][0]
        assert cell["regions"]["clustering:statistical"] in ("possible", "impossible", "on_boundary")
        assert cell["regions"]["hypothesis_testing:ctub"] in ("possible", "impossible", "on_boundary")

    def test_deterministic_json_modulo_meta(self):
        a = sweep_json(run_sweep(tiny_sweep()))
        b = sweep_json(run_sweep(tiny_sweep()))
        assert a == b

    @pytest.mark.parametrize("case", SWEEP_CASES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_serial(self, case, workers):
        serial = sweep_json(run_sweep(tiny_sweep(**SWEEP_CASES[case])))
        parallel = sweep_json(run_sweep(tiny_sweep(**SWEEP_CASES[case]), workers=workers))
        assert serial == parallel

    def test_one_cell_runs_its_reps_at_once(self, monkeypatch):
        # the job is one trial, not one cell, so two workers run one cell's two reps together;
        # two threads stand in for the worker processes, which cannot unpickle this closure
        barrier = threading.Barrier(2, timeout=10)
        real = harness.run_trial

        def meet(spec):
            barrier.wait()
            return real(spec)

        asked = []
        monkeypatch.setattr(harness, "run_trial", meet)
        with ThreadPoolExecutor(max_workers=2) as pool:
            monkeypatch.setattr(harness, "_worker_pool", lambda workers: asked.append(workers) or pool)
            (cell,) = run_sweep(tiny_sweep(**{**SWEEP_CASES["one_cell"], "reps": 2}), workers=2)["cells"]
        assert asked == [2]
        assert cell["results"]["clustering"]["simple_agg"]["hamming"]["n"] == 2

    def test_serial_trials_run_on_the_calling_thread(self, monkeypatch):
        threads = []
        real = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda spec: threads.append(threading.get_ident()) or real(spec))
        run_sweep(tiny_sweep(), workers=1)
        assert threads == [threading.get_ident()] * 12  # 2 betas x 2 strengths x 3 reps

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
            run_sweep(tiny_sweep(), workers=workers)

    @pytest.mark.parametrize(
        "edit, needle",
        [
            ({"master_seed": -1}, "master_seed must be an integer of at least 0"),
            ({"master_seed": 1.5}, "master_seed must be an integer of at least 0"),
            ({"p": 300.5}, "p must be an integer of at least 2"),
            ({"p": True}, "p must be an integer of at least 2"),
            ({"reps": 0}, "reps must be an integer of at least 1"),
            ({"reps": 2.5}, "reps must be an integer of at least 1"),
        ],
    )
    def test_bad_counts_rejected_when_built(self, edit, needle):
        with pytest.raises(ValueError, match=needle):
            tiny_sweep(**edit)

    @pytest.mark.parametrize(
        "name, grid, shown",
        [
            ("betas", ("x",), "'x'"),
            ("betas", (0.2, True), "True"),
            ("strengths", (None,), "None"),
            ("strengths", (0.5, [1.5]), r"\[1.5\]"),
            ("strengths", (0.5, "1.5"), "'1.5'"),
        ],
    )
    def test_bad_grid_entries_rejected_when_built(self, name, grid, shown):
        # a non-number used to reach the workers: a string crashed a comparison, a null failed each cell
        with pytest.raises(ValueError, match=f"^{name} entries must be real numbers, got {shown}$"):
            tiny_sweep(**{name: grid})

    @pytest.mark.parametrize(
        "edit, needle",
        [
            ({"theta": 1.5}, r"theta must lie in \(0, 1\)"),
            ({"theta": 0.0}, r"theta must lie in \(0, 1\)"),
            ({"theta": math.nan}, r"theta must lie in \(0, 1\)"),
            ({"sign_mix_a": 0.9}, r"sign_mix_a must lie in \[0, 1/2\]"),
            ({"sign_mix_a": -0.1}, r"sign_mix_a must lie in \[0, 1/2\]"),
            ({"ratio_reference": ("nope", "x")}, "unknown problem 'nope'"),
            ({"ratio_reference": ("clustering", "x")}, "unknown bound kind 'x'"),
            ({"ratio_reference": ("clustering",)}, r"ratio_reference must be a \(problem, bound kind\) pair"),
            ({"methods": {}}, "at least one method is required"),
            ({"betas": ()}, "grids must be nonempty"),
            ({"strengths": []}, "grids must be nonempty"),
            ({"strength_kind": "tau"}, "bad strength_kind 'tau'"),
            ({"methods": ["simple_agg"]}, r"methods must be an object mapping method names to options, got \['simple"),
            ({"betas": 0.3}, "betas must be a list, got 0.3"),
            ({"ratio_reference": None}, "ratio_reference must be a list, got None"),
        ],
    )
    def test_bad_model_fields_rejected_when_built(self, edit, needle):
        # these used to fail each cell through ArwParams or PhaseQuery instead of the spec
        with pytest.raises(ValueError, match=f"^{needle}"):
            tiny_sweep(**edit)

    def test_numeric_grid_entries_kept_as_given(self):
        sweep = tiny_sweep(betas=(0.2, np.float64(0.4)), strengths=(1, 1.5))
        assert sweep.to_dict()["strengths"] == [1, 1.5] and type(sweep.to_dict()["strengths"][0]) is int

    def test_cell_failures_recorded_without_stopping(self):
        sweep = tiny_sweep(strength_kind="r", strengths=(0.5, 2.0))  # r=2.0 is invalid
        result = run_sweep(sweep)
        errors = [c for c in result["cells"] if "error" in c]
        good = [c for c in result["cells"] if "error" not in c]
        assert len(errors) == 2 and len(good) == 2

    def test_csv_rows_one_per_cell(self):
        result = run_sweep(tiny_sweep())
        rows = sweep_csv_rows(result)
        assert len(rows) == len(result["cells"]) == 4
        assert all("clustering_hamming:simple_agg" in r or "error" in r for r in rows)

    def test_r_sweep_cosine_increases_across_transition(self):
        sweep = SweepSpec(
            p=3_000,
            theta=0.4,
            betas=(0.6,),
            strength_kind="r",
            strengths=(0.05, 0.6),
            reps=4,
            methods={"if_pca": {}},
            master_seed=1,
        )
        result = run_sweep(sweep)
        low, high = result["cells"]
        assert low["regions"]["ifpca_cosine"] == "impossible"
        assert high["regions"]["ifpca_cosine"] == "possible"
        assert (
            high["results"]["clustering"]["if_pca"]["cosine"]["mean"]
            > low["results"]["clustering"]["if_pca"]["cosine"]["mean"] + 0.3
        )


def worker_pids() -> set[int]:
    """The process ids of the current worker pool's processes."""
    return set(harness._workers[1]._processes)


def package_env() -> dict:
    """The environment of a child Python that imports this checkout's package."""
    src = str(Path(harness.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class KillOnUnpickle(dict):
    """Method options (empty, so valid) that kill the process which unpickles them: a
    worker dies inside its job, while the serial path, which pickles nothing, runs as usual."""

    def __reduce__(self):
        return signal.raise_signal, (signal.SIGKILL,)


def ignores_sigint(pid: int) -> bool:
    """Whether the process ignores SIGINT, read off its SigIgn mask in /proc."""
    status = Path(f"/proc/{pid}/status").read_text()
    mask = int(re.search(r"^SigIgn:\s*([0-9a-f]+)$", status, re.MULTILINE).group(1), 16)
    return bool(mask >> (signal.SIGINT - 1) & 1)


class TestWorkerPool:
    def test_pool_kept_between_sweeps_and_replaced_by_another_size(self):
        sweep = tiny_sweep(**SWEEP_CASES["invalid_cell"])
        serial = sweep_json(run_sweep(sweep))
        pools = []
        for workers in (2, 2, 3, 2):
            assert sweep_json(run_sweep(sweep, workers=workers)) == serial
            assert harness._workers[0] == workers
            pools.append(harness._workers[1])
        assert pools[0] is pools[1]
        assert len({id(pool) for pool in pools[1:]}) == 3

    def test_concurrent_sweeps_of_two_sizes_each_equal_serial(self):
        # each sweep queues its jobs before another can replace the pool, which
        # then waits for them instead of shutting the pool down under the sweep
        sweep = tiny_sweep()
        serial = sweep_json(run_sweep(sweep))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as threads:
                futures = [threads.submit(run_sweep, sweep, workers) for workers in (2, 3, 2, 3)]
                bodies = [sweep_json(future.result(timeout=120)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert bodies == [serial] * 4

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_dead_worker_fails_its_sweep_and_the_next_gets_a_fresh_pool(self):
        sweep = tiny_sweep()
        serial = sweep_json(run_sweep(sweep))
        fatal = tiny_sweep(methods={"simple_agg": KillOnUnpickle()})
        assert not any(cell["results"]["n_errors"] for cell in run_sweep(fatal)["cells"])  # harmless in-process
        run_sweep(sweep, workers=2)
        broken = harness._workers[1]
        with pytest.raises(BrokenProcessPool):
            run_sweep(fatal, workers=2)
        assert sweep_json(run_sweep(sweep, workers=2)) == serial
        assert harness._workers[1] is not broken

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads the signal mask from /proc")
    def test_workers_ignore_sigint(self):
        sweep = tiny_sweep()
        serial = sweep_json(run_sweep(sweep))
        run_sweep(sweep, workers=2)
        pool, pids = harness._workers[1], worker_pids()
        deadline = time.monotonic() + 60
        while not all(ignores_sigint(pid) for pid in pids):  # a worker still starting up has not set it yet
            assert time.monotonic() < deadline
            time.sleep(0.05)
        for pid in pids:
            os.kill(pid, signal.SIGINT)
        assert sweep_json(run_sweep(sweep, workers=2)) == serial
        assert harness._workers[1] is pool and worker_pids() == pids

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_no_process_outlives_a_sweeping_script(self, ending):
        # the script runs in its own process group, so every process it starts
        # (workers and multiprocessing's resource tracker) is found by the group id;
        # a script that exits has reaped them all by then, while a killed script's
        # workers only exit once they see their parent gone
        script = (
            "import json, multiprocessing, os, signal, sys\n"
            "from rareweak.harness import SweepSpec, run_sweep\n"
            "run_sweep(SweepSpec.from_dict(json.loads(sys.argv[1])), workers=2)\n"
            "print(len(multiprocessing.active_children()), flush=True)\n"
            "if sys.argv[2] == 'kill':\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(tiny_sweep().to_dict()), ending],
            env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        out, _ = child.communicate(timeout=120)
        assert out.split() == ["2"]
        assert child.returncode == (0 if ending == "exit" else -signal.SIGKILL)
        deadline = time.monotonic() + (0 if ending == "exit" else 60)
        while True:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the script's group is still running"
            time.sleep(0.05)


class TestTestingErrors:
    def test_null_cell_reads_type_one_error(self):
        # a strength of Infinity is the null: its rejection rate is the type I error,
        # and the alternative cell's is one minus the type II error
        text = """{"p": 2000, "theta": 0.5, "betas": [0.2], "strength_kind": "alpha",
                   "strengths": [Infinity, 0.05], "reps": 10, "methods": {"agg_chi2": {}}}"""
        null, alt = run_sweep(SweepSpec.from_dict(json.loads(text)))["cells"]
        assert null["strength"] == math.inf and null["alpha"] is None and null["regions"] == {}
        assert null["results"]["tests"]["agg_chi2"]["rejection_rate"] == 0.0
        assert alt["alpha"] == 0.05 and alt["regions"]
        assert alt["results"]["tests"]["agg_chi2"]["rejection_rate"] == 1.0


class TestPersistence:
    def test_replay_reproduces_losses(self):
        rec = run_trial(small_spec(seed=10))
        loaded = json.loads(json.dumps(rec.to_dict()))
        again = run_trial(TrialSpec.from_dict(loaded["spec"]))
        assert again.clustering == loaded["clustering"]
        assert again.recovery == loaded["recovery"]
        assert again.tests == loaded["tests"]

    def test_sweep_json_round_trip(self):
        result = run_sweep(tiny_sweep(reps=2))
        assert json.loads(canonical_json(result))["cells"] == result["cells"]

    def test_null_cell_json_is_strict(self):
        # strict JSON has no Infinity: the null strength is written "inf" (and -inf "-inf"),
        # and the written spec loads back as the sweep that ran
        sweep = tiny_sweep(betas=(0.2,), strength_kind="alpha", strengths=(math.inf, -math.inf, 0.1), reps=2)
        result = run_sweep(sweep)

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        body = json.loads(canonical_json(result), parse_constant=refuse)
        assert body["spec"]["strengths"] == ["inf", "-inf", 0.1]
        assert [cell["strength"] for cell in body["cells"]] == ["inf", "-inf", 0.1]
        assert result["cells"][0]["strength"] == math.inf
        assert SweepSpec.from_dict(body["spec"]) == sweep


# n = 110: large enough that the bits of X @ X.T depend on the BLAS thread count
WIDE = dict(p=12_100, theta=0.5, betas=(0.6,), strength_kind="r", strengths=(0.35,), reps=3)
WIDE_METHODS = {"classical_pca": {}, "if_pca": {}}


def _spy_classical_pca(monkeypatch, during):
    """Make classical_pca call during() first, through the module attribute the method table reads."""
    real = cluster.classical_pca

    def spy(X):
        during()
        return real(X)

    monkeypatch.setattr(cluster, "classical_pca", spy)


class TestBlasPin:
    def test_wide_sweep_parallel_equals_serial(self):
        sweep = SweepSpec(**WIDE, methods=WIDE_METHODS, master_seed=8)
        assert sweep.cell_params(0.6, 0.35).n == 110
        serial = sweep_json(run_sweep(sweep))
        parallel = sweep_json(run_sweep(sweep, workers=2))
        assert serial == parallel

    def test_wide_sweep_equals_one_thread_process(self):
        sweep = SweepSpec(**WIDE, methods=WIDE_METHODS, master_seed=8)
        script = (
            "import json, sys\n"
            "from rareweak.harness import SweepSpec, canonical_json, run_sweep\n"
            "result = run_sweep(SweepSpec.from_dict(json.loads(sys.argv[1])))\n"
            "sys.stdout.write(canonical_json({k: v for k, v in result.items() if k != 'meta'}))\n"
        )
        env = {**package_env(), "OPENBLAS_NUM_THREADS": "1"}
        child = subprocess.run(
            [sys.executable, "-c", script, json.dumps(sweep.to_dict())], env=env, capture_output=True, text=True, check=True
        )
        assert child.stdout == sweep_json(run_sweep(sweep))

    def test_one_thread_inside_restored_after(self, blas, monkeypatch):
        seen = []
        _spy_classical_pca(monkeypatch, lambda: seen.append(blas()))
        assert not run_trial(small_spec(seed=1)).has_errors
        assert seen == [1] and blas() == 2

    def test_restored_after_exception(self, blas, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        _spy_classical_pca(monkeypatch, boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_trial(small_spec(seed=1))
        assert blas() == 2
        assert harness._pin["inside"] == 0

    def test_overlapping_trials_restore_when_the_last_leaves(self, blas, monkeypatch):
        both_inside = threading.Barrier(2, timeout=60)
        early_done = threading.Event()
        seen, failures = {}, []

        def during():
            both_inside.wait()
            name = threading.current_thread().name
            if name == "late":
                assert early_done.wait(60)
            seen[name] = blas()  # the late trial reads this after the early one has left

        _spy_classical_pca(monkeypatch, during)

        def trial(seed):
            try:
                assert not run_trial(small_spec(seed=seed)).has_errors
            except Exception as exc:  # surfaced by the asserts below
                failures.append(exc)

        early = threading.Thread(target=trial, args=(1,), name="early")
        late = threading.Thread(target=trial, args=(2,), name="late")
        early.start()
        late.start()
        early.join(60)
        seen["between"] = blas()
        early_done.set()
        late.join(60)
        assert not early.is_alive() and not late.is_alive()
        assert not failures
        assert seen == {"early": 1, "between": 1, "late": 1}
        assert blas() == 2 and harness._pin["inside"] == 0

    def test_many_threads_never_see_a_lost_update(self, blas, monkeypatch):
        # more threads than cores, entering together and switching often: a lost
        # update of the count would let one trial restore two threads while
        # another is still inside, or save the pinned 1 as the count to restore
        seen = []
        _spy_classical_pca(monkeypatch, lambda: seen.append(blas()))
        spec = TrialSpec(params=ArwParams(p=60, theta=0.5, beta=0.5, alpha=0.2), methods={"classical_pca": {}})
        together = threading.Barrier(6, timeout=60)

        def trials():
            for _ in range(25):
                together.wait()
                run_trial(spec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=trials) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 150
        assert blas() == 2 and harness._pin["inside"] == 0

    def test_meta_records_the_pin(self):
        meta = run_sweep(tiny_sweep(reps=1))["meta"]
        assert meta["blas_pinned"] is (harness._openblas() is not None)

    def test_no_openblas_does_nothing(self, blas, monkeypatch):
        seen = []
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        _spy_classical_pca(monkeypatch, lambda: seen.append(blas()))
        assert not run_trial(small_spec(seed=1)).has_errors
        assert seen == [2] and blas() == 2
        result = run_sweep(tiny_sweep(reps=1, methods={"classical_pca": {}}))
        assert result["meta"]["blas_pinned"] is False
        assert seen[1:] == [2] * 4
