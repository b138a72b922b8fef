"""Rare/weak two-class clustering laboratory.

Synthetic data calibrated by exponents of the feature count, four
clustering methods, four support estimators, three global tests, exact
phase-boundary curves, and a seeded Monte Carlo harness that checks the
predicted transitions at desk scale.
"""

from .cluster import (
    ClusterResult,
    EnumerationBudgetError,
    classical_pca,
    default_sparsity,
    if_pca,
    kmeans_1d_two,
    signed_sparse_aggregation,
    simple_aggregation,
    sparse_aggregation_exact,
    sparse_aggregation_greedy,
)
from .harness import SweepSpec, TrialRecord, TrialSpec, run_sweep, run_trial, trial_seed
from .hyptest import TestOutcome, higher_criticism_test, simple_agg_test, sparse_agg_test
from .metrics import (
    cos_angle,
    empirical_test_error,
    hamming_clustering,
    hamming_recovery,
    hamming_recovery_signed,
)
from .model import (
    ArwParams,
    Dataset,
    NoiseSpec,
    calibrate,
    diagonal_coloring,
    gen_dataset,
    gen_labels,
    gen_mu,
    load_dataset,
    save_dataset,
)
from .numerics import bh_threshold, chisq_sf, folded_mean, std_normal_sf
from .phase import PhaseAnswer, PhaseQuery, boundary, classify, rho_star, rho_star_theta
from .recover import (
    RecoveryResult,
    recover_if_q,
    recover_if_star,
    recover_sa_N,
    recover_sa_star,
    recover_signed_pca,
)
from .spectral import (
    SingularPair,
    SpectralPrediction,
    chi2_scores,
    leading_left_singular,
    predict_null_selection,
    predict_selection,
    q_star,
    q_tilde,
    select_features,
)

__version__ = "0.1.0"
