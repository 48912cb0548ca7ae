"""Coherent-state teleportation fidelity of the shared EPR state.

For the unit-gain protocol the average fidelity over coherent inputs is
F = 1/(1 + sigma_minus_sq); the classical channel alone is capped at
F = 1/2, which this state family crosses exactly when it becomes
nonseparable (duan_sum < 1).  The convention assumes ideal detection on
the sending side; detector-inefficiency offsets are out of scope.
"""

from __future__ import annotations

from collections import namedtuple

from .criteria import duan_sum
from .epr_model import GaussianEprState

__all__ = ["FidelityResult", "fidelity"]

F_CLASSICAL = 0.5


# beats_classical is F > 1/2, possible only with a nonseparable state;
# beats_two_thirds is F > 2/3, which needs more than 3 dB of effective squeezing.
FidelityResult = namedtuple("FidelityResult", "fidelity beats_classical beats_two_thirds")


def _fidelity(duan: float) -> float:
    """F = 1/(1 + duan_sum), the kernel that fidelity and the figure tables share."""
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
