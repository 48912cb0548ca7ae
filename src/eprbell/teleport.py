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


# beats_classical is F > 1/2, possible only with a nonseparable state;
# beats_two_thirds is F > 2/3, which needs more than 3 dB of effective squeezing.
FidelityResult = namedtuple("FidelityResult", "fidelity beats_classical beats_two_thirds")


def _fidelity(duan: float) -> float:
    """F = 1/(1 + duan_sum), the kernel that fidelity and the figure tables share."""
    return 1.0 / (1.0 + duan)


def fidelity(state: GaussianEprState) -> FidelityResult:
    """Teleportation fidelity F = 1/(1 + duan_sum) with boundary flags.

    F > 1/2 is duan_sum < 1 and F > 2/3 is duan_sum < 1/2; each flag is decided
    on duan_sum, as classify decides the same boundaries, so the rounding of F
    cannot put a state on the wrong side.  For nbar = 0, F = 1/(2 - eta*(1 - exp(-2r))).
    """
    sm = duan_sum(state)
    return FidelityResult(fidelity=_fidelity(sm), beats_classical=sm < 1.0, beats_two_thirds=sm < 0.5)
