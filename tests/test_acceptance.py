"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
Criterion 2a asserts an asymptotic alignment level that is out of reach
at this problem size (see the printed analysis); it is expected to fail
and is kept as stated rather than weakened.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from rareweak.cluster import if_pca, sparse_aggregation_exact, sparse_aggregation_greedy
from rareweak.harness import SweepSpec, TrialSpec, canonical_json, run_sweep, run_trial, trial_seed
from rareweak.ifpca import baseline_kmeans, ifpca_pipeline, load_labeled_csv
from rareweak.metrics import cos_angle
from rareweak.model import ArwParams, gen_dataset
from rareweak.numerics import chisq_sf, folded_mean, std_normal_sf
from rareweak.phase import (
    BOUND_KINDS,
    PROBLEMS,
    VARIANTS,
    PhaseQuery,
    boundary,
    hypothesis_segment_count,
    rho_star_theta,
)
from rareweak.spectral import leading_left_singular, predict_null_selection, q_star

MASTER = 20250808


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------
# 1. clustering phase transition on a (beta, alpha) grid straddling the
#    statistical boundary; the designated tractable method for the chosen
#    beta range is simple aggregation
# --------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_1_clustering_phase_grid():
    t0 = time.time()
    ratios = (0.5, 0.75, 1.0, 1.5, 2.0)
    sweep = SweepSpec(
        p=5_000,
        theta=0.5,
        betas=(0.05, 0.09, 0.13, 0.17, 0.21),
        strength_kind="alpha_ratio",
        strengths=ratios,
        reps=20,
        methods={"simple_agg": {}},
        master_seed=MASTER,
    )
    result = run_sweep(sweep)
    bad_cells = []
    for cell in result["cells"]:
        ratio = cell["strength"]
        mean = cell["results"]["clustering"]["simple_agg"]["hamming"]["mean"]
        if ratio <= 0.8 and not mean < 0.10:
            bad_cells.append((cell["beta"], ratio, mean, "< 0.10"))
        if ratio >= 1.25 and not mean > 0.35:
            bad_cells.append((cell["beta"], ratio, mean, "> 0.35"))
    elapsed = time.time() - t0
    verdict(
        "criterion 1 (clustering phase grid)",
        not bad_cells and elapsed < 600,
        f"25 cells, 20 reps, {elapsed:.0f}s; violations: {bad_cells or 'none'}",
    )


# --------------------------------------------------------------------------
# 2. screened-PCA cosine transition at theta=0.4, beta=0.75, p=10^4
# --------------------------------------------------------------------------
THETA2, BETA2, P2 = 0.4, 0.75, 10_000
RHO2 = rho_star_theta(THETA2, BETA2)


def _cosines(r: float, q: float, cell: int) -> list[float]:
    params = ArwParams(p=P2, theta=THETA2, beta=BETA2, r=r)
    out = []
    for rep in range(10):
        ds = gen_dataset(params, seed=trial_seed(MASTER, cell, rep))
        res = if_pca(ds.X, q)
        out.append(cos_angle(res.singular.vector, ds.labels))
    return out


def test_criterion_2a_ifpca_cosine_above_curve():
    t0 = time.time()
    r = RHO2 + 0.15
    mean = float(np.mean(_cosines(r, q_star(THETA2, BETA2, r), cell=20)))
    elapsed = time.time() - t0
    verdict(
        "criterion 2a (cosine above curve)",
        mean >= 0.9 and elapsed < 600,
        f"mean cos = {mean:.3f} over 10 seeds at r = transition + 0.15 ({elapsed:.0f}s); "
        "the asymptotic target 0.9 is unreachable at p = 1e4: the post-selection "
        "signal eigenvalue exceeds the noise band by only a factor p^0.022 ~ 1.2 here, "
        "and the expected signal count is 10, so the mean sits near 0.6-0.8 even out "
        "to p = 3e5; kept as stated rather than weakened (see README)",
    )


def test_criterion_2b_ifpca_cosine_below_curve():
    t0 = time.time()
    r = RHO2 - 0.15
    means = {q: float(np.mean(_cosines(r, q, cell=21 + j))) for j, q in enumerate((0.2, 0.5, 0.8))}
    elapsed = time.time() - t0
    verdict(
        "criterion 2b (cosine below curve)",
        all(m <= 0.8 for m in means.values()) and elapsed < 600,
        f"mean cos by q: { {q: round(m, 3) for q, m in means.items()} } ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# 3. null calibration and power of the global tests at p=10^4, n=100
# --------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_3_test_calibration_and_power():
    t0 = time.time()
    null_params = ArwParams(p=10_000, theta=0.5, beta=0.4, alpha=math.inf)
    rej_sa = rej_hc = 0
    for rep in range(200):
        rec = run_trial(
            TrialSpec(
                params=null_params,
                methods={"agg_chi2": {}, "higher_criticism": {}},
                seed=trial_seed(MASTER, 30, rep),
            )
        )
        rej_sa += rec.tests["agg_chi2"]["reject"]
        rej_hc += rec.tests["higher_criticism"]["reject"]
    sa_null, hc_null = rej_sa / 200, rej_hc / 200

    pow_sa = pow_hc = 0
    sa_alt = ArwParams(p=10_000, theta=0.5, beta=0.3, alpha=0.15)  # dense regime point
    hc_alt = ArwParams(p=10_000, theta=0.5, beta=0.6, alpha=0.05)  # sparse regime point
    for rep in range(50):
        rec = run_trial(TrialSpec(params=sa_alt, methods={"agg_chi2": {}}, seed=trial_seed(MASTER, 31, rep)))
        pow_sa += rec.tests["agg_chi2"]["reject"]
        rec = run_trial(
            TrialSpec(params=hc_alt, methods={"higher_criticism": {}}, seed=trial_seed(MASTER, 32, rep))
        )
        pow_hc += rec.tests["higher_criticism"]["reject"]
    elapsed = time.time() - t0
    ok = sa_null <= 0.05 and hc_null <= 0.10 and pow_sa / 50 >= 0.9 and pow_hc / 50 >= 0.9
    verdict(
        "criterion 3 (test calibration and power)",
        ok,
        f"null rates: agg={sa_null:.3f} (<=0.05), hc={hc_null:.3f} (<=0.10); "
        f"power: agg={pow_sa / 50:.2f}, hc={pow_hc / 50:.2f} (>=0.9) ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# 4. analytic spot checks
# --------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_4_analytic_spot_checks():
    problems = []
    if abs(folded_mean(0.0) - math.sqrt(2 / math.pi)) > 1e-12:
        problems.append("folded mean at 0")

    for problem in PROBLEMS:
        for kind in BOUND_KINDS:
            for variant in VARIANTS:
                for theta in (0.3, 0.5, 2 / 3, 0.8):
                    betas = np.linspace(1e-6, 1 - 1e-6, 10_000)
                    vals = np.array(
                        [
                            boundary(PhaseQuery(problem, kind, variant, theta, b)).alpha_boundary
                            for b in betas
                        ]
                    )
                    step = betas[1] - betas[0]
                    if not np.all(np.abs(np.diff(vals)) <= step + 1e-9):
                        problems.append(f"continuity {problem}/{kind}/{variant}/theta={theta}")

    theta, beta = 0.5, 0.55
    r0 = (beta - theta / 2) / 3
    if abs(q_star(theta, beta, r0 - 1e-14) - q_star(theta, beta, r0 + 1e-14)) > 1e-12:
        problems.append("q* branch continuity")

    if hypothesis_segment_count(0.5) != 3 or hypothesis_segment_count(0.8) != 2:
        problems.append("hypothesis segment counts")

    verdict("criterion 4 (analytic spot checks)", not problems, f"violations: {problems or 'none'}")


# --------------------------------------------------------------------------
# 5. oracle equivalence
# --------------------------------------------------------------------------
def test_criterion_5_oracle_equivalence():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n, p, N, tau = 30, 16, 3, 1.5
        ell = rng.integers(0, 2, n) * 2 - 1
        mu = np.zeros(p)
        mu[rng.choice(p, N, replace=False)] = tau
        X = np.outer(ell, mu) + rng.standard_normal((n, p))
        ex = sparse_aggregation_exact(X, N)
        gr = sparse_aggregation_greedy(X, N, restarts=8, seed=seed)
        hits += set(gr.selected.tolist()) == set(ex.selected.tolist())

    rng = np.random.default_rng(MASTER)
    worst_angle = 0.0
    for _ in range(100):
        M = rng.standard_normal((50, 200))
        pair = leading_left_singular(M)
        u = np.linalg.svd(M, full_matrices=False)[0][:, 0]
        chord = min(np.linalg.norm(pair.vector - u), np.linalg.norm(pair.vector + u))
        worst_angle = max(worst_angle, float(chord))

    worst_rel = 0.0
    for x in np.linspace(0.01, 30.0, 500):
        want = 2.0 * std_normal_sf(math.sqrt(x))
        worst_rel = max(worst_rel, abs(chisq_sf(float(x), 1) - want) / want)

    ok = hits >= 90 and worst_angle <= 1e-8 and worst_rel <= 1e-10
    verdict(
        "criterion 5 (oracle equivalence)",
        ok,
        f"greedy=exact support on {hits}/100 (>=90); worst singular-vector angle "
        f"{worst_angle:.2e} (<=1e-8); worst dof-1 relative error {worst_rel:.2e} (<=1e-10)",
    )


# --------------------------------------------------------------------------
# 6. post-selection noise spectrum inside the predicted band
# --------------------------------------------------------------------------
def test_criterion_6_postselection_spectrum():
    p, theta = 5_000, 0.5
    n = int(round(p**theta))
    summary = {}
    ok = True
    for j, q in enumerate((0.3, 0.7)):
        pred = predict_null_selection(p, theta, q)
        lo, hi = pred.eigen_range
        cut = n + 2 * math.sqrt(q * n * math.log(p))
        inside = 0
        for rep in range(40):
            rng = np.random.default_rng(trial_seed(MASTER, 60 + j, rep))
            Z = rng.standard_normal((n, p))
            sel = np.sum(Z * Z, axis=0) > cut
            if not sel.any():
                inside += 1
                continue
            ev = np.linalg.svd(Z[:, sel], compute_uv=False) ** 2
            inside += bool(ev.max() <= hi and ev.min() >= lo)
        summary[q] = (pred.regime, inside)
        ok = ok and inside >= 38
    verdict(
        "criterion 6 (post-selection spectrum)",
        ok,
        f"trials inside band (of 40, need >=38): "
        f"q=0.3 {summary[0.3][1]} ({summary[0.3][0]}), q=0.7 {summary[0.7][1]} ({summary[0.7][0]})",
    )


# --------------------------------------------------------------------------
# 7. optional external dataset reproduction (skipped when data is absent)
# --------------------------------------------------------------------------
def _leukemia_paths():
    data = os.environ.get("RAREWEAK_LEUKEMIA_DATA", "data/leukemia.csv")
    labels = os.environ.get("RAREWEAK_LEUKEMIA_LABELS", "data/leukemia_labels.txt")
    return Path(data), Path(labels)


def test_criterion_7_leukemia_benchmark():
    data_path, labels_path = _leukemia_paths()
    if not (data_path.exists() and labels_path.exists()):
        print("\nACCEPTANCE criterion 7 (leukemia benchmark): SKIPPED - dataset not present")
        pytest.skip("leukemia dataset not present")
    data = load_labeled_csv(data_path, labels_path=labels_path)
    selected = ifpca_pipeline(data, top_k=2133)
    all_features = ifpca_pipeline(data, top_k=data.X.shape[1])
    km = baseline_kmeans(data)
    ok = selected.rows[0].errors == 1 and all_features.rows[0].errors == 21
    verdict(
        "criterion 7 (leukemia benchmark)",
        ok,
        f"errors with 2133 features: {selected.rows[0].errors} (want 1); "
        f"without selection: {all_features.rows[0].errors} (want 21); "
        f"plain k-means: {km} (reference ~20)",
    )


# --------------------------------------------------------------------------
# 8. sweep determinism: byte-identical JSON outside the meta block
# --------------------------------------------------------------------------
def test_criterion_8_sweep_determinism():
    spec = SweepSpec(
        p=500,
        theta=0.5,
        betas=(0.2, 0.4),
        strength_kind="alpha_ratio",
        strengths=(0.6, 1.4),
        reps=5,
        methods={"simple_agg": {}, "classical_pca": {}, "recover_if_q": {"q": 1.0}, "agg_chi2": {}},
        master_seed=MASTER,
    )
    a = canonical_json({k: v for k, v in run_sweep(spec).items() if k != "meta"})
    b = canonical_json({k: v for k, v in run_sweep(spec, workers=3).items() if k != "meta"})
    verdict(
        "criterion 8 (sweep determinism)",
        a == b,
        f"rerun JSON identical outside meta block ({len(a)} bytes)",
    )
