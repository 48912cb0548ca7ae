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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EprParams",
    "GaussianEprState",
    "TwoModePoint",
    "SecondMoments",
    "make_state",
    "sigma_pair",
    "wigner",
    "second_moments",
    "mu_opt",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EprParams:
    """Physical knobs: squeezing r >= 0, transmission eta in [0, 1], thermal nbar >= 0.

    r is bounded above by the float overflow edge 2r <= ln(DBL_MAX), beyond
    which exp(2r) is not representable.
    """

    r: float
    eta: float
    nbar: float = 0.0

    def __post_init__(self):
        for name in ("r", "eta", "nbar"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a real number, got {value!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if 2.0 * self.r > _LOG_FLOAT_MAX:
            raise ValueError(f"r must be <= {_LOG_FLOAT_MAX / 2.0} (exp(2r) overflows), got {self.r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.nbar < 0.0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")


@dataclass(frozen=True)
class GaussianEprState:
    """Two-parameter Gaussian state, held as the (sigma_plus_sq, sigma_minus_sq) pair.

    The originating :class:`EprParams` are retained: several derived reports
    (thermal threshold, sweep rows) need (r, eta, nbar), which cannot be
    recovered from the two variance scales alone.
    """

    sigma_plus_sq: float
    sigma_minus_sq: float
    params: EprParams

    def __post_init__(self):
        if not (self.sigma_plus_sq > 0.0 and math.isfinite(self.sigma_plus_sq)):
            raise ValueError(f"sigma_plus_sq must be positive and finite, got {self.sigma_plus_sq}")
        if not (self.sigma_minus_sq > 0.0 and math.isfinite(self.sigma_minus_sq)):
            raise ValueError(f"sigma_minus_sq must be positive and finite, got {self.sigma_minus_sq}")
        if self.sigma_plus_sq < self.sigma_minus_sq:
            raise ValueError("sigma_plus_sq must be >= sigma_minus_sq for r >= 0")


@dataclass(frozen=True)
class TwoModePoint:
    """Phase-space point (x1, p1, x2, p2); alpha_j = x_j + i*p_j.

    Coordinates may be scalars or broadcast-compatible arrays, which lets a
    single point object describe a whole batch of evaluation points.
    """

    x1: object
    p1: object
    x2: object
    p2: object

    def __post_init__(self):
        for name in ("x1", "p1", "x2", "p2"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SecondMoments:
    """Per-mode variances and cross-mode covariances of the zero-mean state."""

    var_x: float
    var_p: float
    cov_xx: float
    cov_pp: float


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
    sigma_plus_sq, sigma_minus_sq = sigma_pair(params.r, params.eta, params.nbar)
    return GaussianEprState(float(sigma_plus_sq), float(sigma_minus_sq), params)


def wigner(state: GaussianEprState, pt: TwoModePoint):
    """Wigner density of the state at a phase-space point (strictly positive).

    W = (4/pi^2) / (sp*sm) * exp(-[(x1+x2)^2+(p1-p2)^2]/sp
                                 -[(x1-x2)^2+(p1+p2)^2]/sm)

    with sp = sigma_plus_sq and sm = sigma_minus_sq.  Integrates to 1 over
    the four coordinates.  Returns an array when the point holds arrays.
    """
    sp = state.sigma_plus_sq
    sm = state.sigma_minus_sq
    q_plus = (pt.x1 + pt.x2) ** 2 + (pt.p1 - pt.p2) ** 2
    q_minus = (pt.x1 - pt.x2) ** 2 + (pt.p1 + pt.p2) ** 2
    return (4.0 / math.pi**2) / (sp * sm) * np.exp(-q_plus / sp - q_minus / sm)


def second_moments(state: GaussianEprState) -> SecondMoments:
    """Symmetric second moments: per-mode variance and x/p cross covariances.

    var_x = var_p = (sp + sm)/8 and cov_xx = -cov_pp = (sp - sm)/8, which at
    eta = 1, nbar = 0 gives cosh(2r)/4 and sinh(2r)/4.
    """
    var = (state.sigma_plus_sq + state.sigma_minus_sq) / 8.0
    cov = (state.sigma_plus_sq - state.sigma_minus_sq) / 8.0
    return SecondMoments(var_x=var, var_p=var, cov_xx=cov, cov_pp=-cov)


def mu_opt(state: GaussianEprState) -> float:
    """Optimal linear-estimator gain <x1 x2>/<x2^2> = (sp - sm)/(sp + sm).

    Lies in [0, 1) for r >= 0 and tends to 1 as the correlations become
    perfect (r >> 1 at eta = 1).
    """
    return (state.sigma_plus_sq - state.sigma_minus_sq) / (
        state.sigma_plus_sq + state.sigma_minus_sq
    )
