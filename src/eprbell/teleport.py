"""Coherent-state teleportation fidelity of the shared EPR state.

For the unit-gain protocol the average fidelity over coherent inputs is
F = 1/(1 + sigma_minus_sq); the classical channel alone is capped at
F = 1/2, which this state family crosses exactly when it becomes
nonseparable (duan_sum < 1).  The convention assumes ideal detection on
the sending side; detector-inefficiency offsets are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import duan_sum
from .epr_model import GaussianEprState

__all__ = ["FidelityResult", "fidelity"]

F_CLASSICAL = 0.5


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    beats_classical: bool  # F > 1/2, possible only with a nonseparable state
    beats_two_thirds: bool  # F > 2/3, needs more than 3 dB of effective squeezing


def _fidelity(duan):
    """F = 1/(1 + duan_sum) for floats or arrays."""
    return 1.0 / (1.0 + duan)


def fidelity(state: GaussianEprState) -> FidelityResult:
    """Teleportation fidelity F = 1/(1 + duan_sum) with boundary flags.

    Built from the variance sum so that F = 1/(1 + duan_sum) holds exactly;
    for nbar = 0 this equals 1/(2 - eta*(1 - exp(-2r))).
    """
    f = _fidelity(duan_sum(state))
    return FidelityResult(
        fidelity=f,
        beats_classical=f > F_CLASSICAL,
        beats_two_thirds=f > 2.0 / 3.0,
    )
