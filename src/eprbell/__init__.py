"""Lossy two-mode squeezed states: teleportation fidelity, separability
criteria, and CHSH quantities, with a seeded Monte-Carlo cross-check."""

from .bell import (
    BellResult,
    ScaledChsh,
    b_of_j,
    loss_bound_ok,
    maximize_b,
    optimize_scaled_chsh,
    pi_corr,
    scaled_chsh,
)
from .criteria import (
    CRITERIA_CSV_COLUMNS,
    CriteriaReport,
    classify,
    conditional_variances,
    duan_sum,
    mu_variances,
    nbar_threshold,
)
from .epr_model import (
    EprParams,
    GaussianEprState,
    SecondMoments,
    TwoModePoint,
    make_state,
    mu_opt,
    second_moments,
    sigma_pair,
    wigner,
)
from .oracle import OracleConfig, OracleEstimate, mc_fidelity, sample_epr
from .report import (
    SweepSpec,
    Table,
    fig1,
    fig2,
    fig3,
    fig4,
    table_from_csv,
    table_from_jsonl,
    table_to_csv,
    table_to_jsonl,
)
from .teleport import FidelityResult, fidelity

__version__ = "0.1.0"
