"""Gaussian model of a lossy two-mode squeezed (EPR) state.

The state family has three knobs: the squeezing ``r`` of the initial
two-mode squeezed vacuum, a beam-splitter transmission ``eta`` applied
identically to both modes, and the mean thermal photon number ``nbar``
of the two ancilla modes entering the open beam-splitter ports.  After
tracing out the ancillas, the surviving two-mode state is Gaussian,
zero-mean, and completely described by the pair of variance scales

    sigma_plus_sq  = eta * exp(+2r) + (1 - eta) * (1 + 2*nbar)
    sigma_minus_sq = eta * exp(-2r) + (1 - eta) * (1 + 2*nbar)

attached to the (x1+x2, p1-p2) and (x1-x2, p1+p2) quadrature combinations
respectively.  Quadratures follow the alpha = x + i*p convention, so the
vacuum has Var(x) = Var(p) = 1/4 per mode; every threshold downstream
(1/16, 1/2, 1) assumes this normalization.

The beam splitters are never materialized as a channel: the traced-out
result above is the only state ever needed, so construction bakes it in.
A :class:`GaussianEprState` is built from its :class:`EprParams` alone and
derives the variance pair from them; no pair is ever taken from outside.
Every library output is a closed form of the variance pair; the Wigner
density and the second moments, which the tests check those closed forms
against, live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EprParams",
    "GaussianEprState",
    "make_state",
    "sigma_pair",
    "mu_opt",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_NBAR_MAX = math.sqrt(sys.float_info.max) / 2.0


def _real(name: str, value) -> float:
    """value as a finite float; anything else (an int beyond the float range too) raises ValueError."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class EprParams:
    """Physical knobs: squeezing r >= 0, transmission eta in [0, 1], thermal nbar >= 0.

    r is bounded above by the float overflow edge 2r <= ln(DBL_MAX), beyond
    which exp(2r) is not representable, and nbar by sqrt(DBL_MAX)/2, beyond
    which the products of the variances that the criteria report overflow.
    """

    r: float
    eta: float
    nbar: float = 0.0

    def __post_init__(self):
        for name in ("r", "eta", "nbar"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if 2.0 * self.r > _LOG_FLOAT_MAX:
            raise ValueError(f"r must be <= {_LOG_FLOAT_MAX / 2.0} (exp(2r) overflows), got {self.r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.nbar <= _NBAR_MAX:
            raise ValueError(f"nbar must be in [0, {_NBAR_MAX}], got {self.nbar}")


@dataclass(frozen=True)
class GaussianEprState:
    """Two-mode Gaussian state of the given knobs.

    Built from :class:`EprParams` alone; the (sigma_plus_sq, sigma_minus_sq)
    pair is derived from them once, by :func:`sigma_pair`, so the knobs and
    the variances cannot disagree.  The knobs are retained because several
    derived reports (thermal threshold, sweep rows) need (r, eta, nbar),
    which cannot be recovered from the two variance scales alone.
    """

    params: EprParams
    sigma_plus_sq: float = field(init=False)
    sigma_minus_sq: float = field(init=False)

    def __post_init__(self):
        sigma_plus_sq, sigma_minus_sq = sigma_pair(self.params.r, self.params.eta, self.params.nbar)
        object.__setattr__(self, "sigma_plus_sq", float(sigma_plus_sq))
        object.__setattr__(self, "sigma_minus_sq", float(sigma_minus_sq))


def sigma_pair(r, eta, nbar):
    """(sigma_plus_sq, sigma_minus_sq) of the module docstring for floats or
    broadcast-compatible arrays of already validated knobs."""
    thermal = (1.0 - eta) * (1.0 + 2.0 * nbar)
    return eta * np.exp(2.0 * r) + thermal, eta * np.exp(-2.0 * r) + thermal


def make_state(params: EprParams) -> GaussianEprState:
    """Build the traced-out two-mode Gaussian state for the given knobs.

    For eta = 1 this reduces to the pure squeezed-vacuum pair
    (exp(2r), exp(-2r)) regardless of nbar.
    """
    return GaussianEprState(params)


def _mu_opt(r, eta, sp, sm):
    """:func:`mu_opt` for floats or broadcast-compatible arrays, with sp - sm
    written as 2*eta*sinh(2r): the difference cancels the thermal term, and
    at small r every digit with it.  Where the true gain is within an ulp of
    1 the quotient can round above it, so it is capped at 1."""
    return np.minimum(2.0 * eta * np.sinh(2.0 * r) / (sp + sm), 1.0)


def mu_opt(state: GaussianEprState) -> float:
    """Optimal linear-estimator gain <x1 x2>/<x2^2> = (sp - sm)/(sp + sm).

    Lies in [0, 1] for r >= 0 and tends to 1 as the correlations become
    perfect (r >> 1 at eta = 1).
    """
    p = state.params
    return float(_mu_opt(p.r, p.eta, state.sigma_plus_sq, state.sigma_minus_sq))
