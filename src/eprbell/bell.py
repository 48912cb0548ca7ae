"""CHSH quantities for the EPR state: displaced-parity correlations and scaled correlations.

Two routes to a Bell test are provided.  The first measures displaced
parity: the correlation Pi(x1,p1;x2,p2) is proportional to the Wigner
density, Pi = (pi^2/4) W, and the four-point combination

    B(J) = Pi(0,0;0,0) + Pi(sqrt(J),0;0,0) + Pi(0,0;-sqrt(J),0)
           - Pi(sqrt(J),0;-sqrt(J),0)

obeys |B| <= 2 under any local theory.  The library evaluates B in its
reduced closed form (see :func:`b_of_j`); Pi and this four-term definition
live in ``tests/reference.py``, the reference the tests compare against.
The displacement pattern is fixed to this one-parameter family on
purpose; no search over general displacement quadruples is attempted.
The second route is the scaled coincidence correlation
E(phi1, phi2) = V*cos(phi1 - phi2 + theta) of a polarization-style CHSH
measurement, where the visibility V absorbs losses and
|S| <= 2*sqrt(2)*V at the optimal analyzer angles (subject to the usual
fair-sampling caveat at low detection efficiency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epr_model import EprParams, GaussianEprState, _mu_opt

__all__ = [
    "BellResult",
    "ScaledChsh",
    "b_of_j",
    "maximize_b",
    "loss_bound_ok",
    "scaled_chsh",
    "optimize_scaled_chsh",
]

@dataclass(frozen=True)
class BellResult:
    j_max: float
    b_max: float
    violates: bool  # b_max > 2


@dataclass(frozen=True)
class ScaledChsh:
    visibility: float
    theta: float
    angles: tuple[float, float, float, float]  # (phi1, phi1', phi2, phi2')
    s_value: float
    m_scale: float = 1.0  # overall coincidence scale; never enters S


def _b(sp, sm, j):
    """The reduced form of B(J) (see :func:`b_of_j`) for floats or broadcast-compatible arrays."""
    # With sm subnormal (r at its overflow edge) an exponent can overflow to -inf; exp(-inf) = 0 is exact.
    with np.errstate(over="ignore"):
        return (1.0 + 2.0 * np.exp(-j * (1.0 / sp + 1.0 / sm)) - np.exp(-4.0 * j / sm)) / (sp * sm)


def _bell_max(r, eta, sp, sm):
    """(J*, B(J*), B(J*) > 2) of :func:`maximize_b` for floats or broadcast-compatible arrays."""
    mu = _mu_opt(r, eta, sp, sm)
    # A subnormal mu has lost digits that the factor sm (up to ~1e154) would
    # scale back into range; there log1p(mu) = mu, so mu*sm is formed directly.
    mu_sm = 2.0 * eta * np.sinh(2.0 * r) * (sm / (sp + sm))
    j = np.where(mu < np.finfo(float).tiny, mu_sm, np.log1p(mu) * sm) / (3.0 - sm / sp)
    b = _b(sp, sm, j)
    return j, b, b > 2.0


def _loss_bound(r, eta):
    """The flag of :func:`loss_bound_ok` for floats or arrays, halved on both sides against overflow."""
    return (1.0 - eta) * np.cosh(2.0 * r) < 0.5


def _displacements(j):
    """J values as a float array, each checked to be finite and >= 0."""
    j = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(j)) or np.any(j < 0.0):
        raise ValueError(f"j must be finite and >= 0, got {j!r}")
    return j


def b_of_j(state: GaussianEprState, j):
    """CHSH combination of four displaced-parity correlations at displacement J.

    Evaluated in reduced form: with sp = sigma_plus_sq and sm = sigma_minus_sq,
    the four Gaussian terms of the module docstring's definition sum to

        B(J) = [1 + 2*exp(-a*J) - exp(-b*J)] / (sp*sm),  a = 1/sp + 1/sm,  b = 4/sm.

    The four-term sum in ``tests/reference.py`` is the independent
    reference.  Accepts a scalar or array of nonnegative J values.
    """
    b = _b(state.sigma_plus_sq, state.sigma_minus_sq, _displacements(j))
    return float(b) if b.ndim == 0 else b


def maximize_b(state: GaussianEprState) -> BellResult:
    """The displacement J* >= 0 maximizing B(J), and B(J*).

    With a = 1/sp + 1/sm and b = 4/sm (the reduced form of :func:`b_of_j`),
    dB/dJ = [b*exp(-b*J) - 2a*exp(-a*J)] / (sp*sm) vanishes only at

        J* = ln(b / 2a) / (b - a) = log1p(mu_opt) * sm / (3 - sm/sp),

    where ln(2*sp/(sp + sm)) = log1p(mu_opt), with sp - sm = 2*eta*sinh(2r)
    in mu_opt, avoids cancellation at small r,
    and the factor sm keeps 3/sm from overflowing when sm is subnormal
    (r near the overflow edge).  Since sp >= sm, b - a > 0 and the slope at
    J = 0, 2/sm - 2/sp, is >= 0, so J* is the global maximum on J >= 0;
    J* = 0 exactly when sp = sm.  B_max is the reduced form at J*.
    """
    p = state.params
    j_max, b_max, violates = _bell_max(p.r, p.eta, state.sigma_plus_sq, state.sigma_minus_sq)
    return BellResult(j_max=float(j_max), b_max=float(b_max), violates=bool(violates))


def loss_bound_ok(params: EprParams) -> bool:
    """Heuristic flag 2*(1 - eta)*cosh(2r) < 1 for violation-friendly loss.

    The underlying condition is an order-of-magnitude statement ("much less
    than one"); this sharp cut is a reading aid on scan rows, never a
    correctness gate.
    """
    return bool(_loss_bound(params.r, params.eta))


def _chsh_combination(v: float, theta: float, angles) -> float:
    phi1, phi1p, phi2, phi2p = (float(a) for a in angles)
    e = lambda a, b: v * math.cos(a - b + theta)
    return e(phi1, phi2) + e(phi1p, phi2) + e(phi1, phi2p) - e(phi1p, phi2p)


def scaled_chsh(v: float, theta: float, angles) -> ScaledChsh:
    """CHSH combination S = E(1,2) + E(1',2) + E(1,2') - E(1',2') of the
    scaled correlation E(phi1, phi2) = V*cos(phi1 - phi2 + theta).

    ``angles`` is the quadruple (phi1, phi1', phi2, phi2').  Local theories
    bound |S| by 2; the quantum ceiling is 2*sqrt(2)*V.
    """
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise ValueError(f"visibility must be in [0, 1], got {v!r}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    angles = tuple(float(a) for a in angles)
    if len(angles) != 4:
        raise ValueError(f"angles must be a quadruple, got {len(angles)} values")
    return ScaledChsh(v, theta, angles, _chsh_combination(v, theta, angles))


def optimize_scaled_chsh(v: float, theta: float = 0.0) -> ScaledChsh:
    """Analyzer angles maximizing the scaled CHSH combination.

    The optimum of E(phi1, phi2) = V*cos(phi1 - phi2 + theta) sits at the
    standard quadruple rigidly shifted by theta on one side, giving
    S = 2*sqrt(2)*V independent of theta.
    """
    angles = (0.0, math.pi / 2.0, theta + math.pi / 4.0, theta - math.pi / 4.0)
    return scaled_chsh(v, theta, angles)
