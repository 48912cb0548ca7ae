"""Lossy two-mode squeezed states: teleportation fidelity, separability
criteria, and CHSH quantities, with a seeded Monte-Carlo cross-check.

The closed forms import only ``math``; the Monte-Carlo oracle needs numpy,
so its names are loaded from ``eprbell.oracle`` on first use."""

from .bell import (
    BellResult,
    ScaledChsh,
    b_of_j,
    loss_bound_ok,
    maximize_b,
    optimize_scaled_chsh,
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
from .epr_model import EprParams, GaussianEprState, make_state, mu_opt
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

_ORACLE_NAMES = ("OracleConfig", "OracleEstimate", "mc_fidelity")

__all__ = [
    "BellResult", "ScaledChsh", "b_of_j", "loss_bound_ok", "maximize_b", "optimize_scaled_chsh", "scaled_chsh",
    "CRITERIA_CSV_COLUMNS", "CriteriaReport", "classify", "conditional_variances", "duan_sum", "mu_variances",
    "nbar_threshold", "EprParams", "GaussianEprState", "make_state", "mu_opt", *_ORACLE_NAMES,
    "SweepSpec", "Table", "fig1", "fig2", "fig3", "fig4", "table_from_csv", "table_from_jsonl", "table_to_csv",
    "table_to_jsonl", "FidelityResult", "fidelity",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
