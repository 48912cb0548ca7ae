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
import sys
from collections import namedtuple

from .epr_model import EprParams, GaussianEprState, _mu_opt, _real, _reals

__all__ = [
    "BellResult",
    "ScaledChsh",
    "b_of_j",
    "maximize_b",
    "loss_bound_ok",
    "scaled_chsh",
    "optimize_scaled_chsh",
]

# violates is b_max > 2
BellResult = namedtuple("BellResult", "j_max b_max violates")
# angles is (phi1, phi1', phi2, phi2'); m_scale, the overall coincidence scale, never enters S
ScaledChsh = namedtuple("ScaledChsh", "visibility theta angles s_value m_scale", defaults=(1.0,))


def _b(sp: float, sm: float, j: float) -> float:
    """The reduced form of B(J) (see :func:`b_of_j`) at one J."""
    # With sm subnormal (r at its overflow edge) -4*j/sm can overflow to -inf; exp(-inf) = 0 is exact.
    return (1.0 + 2.0 * math.exp(-j * (1.0 / sp + 1.0 / sm)) - math.exp(-4.0 * j / sm)) / (sp * sm)


def _bell_max(r: float, eta: float, sp: float, sm: float) -> tuple[float, float, bool]:
    """(J*, B(J*), B(J*) > 2) of :func:`maximize_b` for the knobs and their variance pair."""
    mu = _mu_opt(r, eta, sp, sm)
    if mu < sys.float_info.min:
        # A subnormal mu has lost digits that the factor sm (up to ~1e154) would
        # scale back into range; there log1p(mu) = mu, so mu*sm is formed directly.
        j = 2.0 * eta * math.sinh(2.0 * r) * (sm / (sp + sm)) / (3.0 - sm / sp)
    else:
        j = math.log1p(mu) * sm / (3.0 - sm / sp)
    b = _b(sp, sm, j)
    return j, b, b > 2.0


def _loss_bound(r: float, eta: float) -> bool:
    """The flag of :func:`loss_bound_ok`, halved on both sides against overflow."""
    return (1.0 - eta) * math.cosh(2.0 * r) < 0.5


def _displacement(j) -> float:
    """One J value as a float, checked to be finite and >= 0."""
    value = _real("j", j)
    if value < 0.0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    return value


def b_of_j(state: GaussianEprState, j: float) -> float:
    """CHSH combination of four displaced-parity correlations at displacement J.

    Evaluated in reduced form: with sp = sigma_plus_sq and sm = sigma_minus_sq,
    the four Gaussian terms of the module docstring's definition sum to

        B(J) = [1 + 2*exp(-a*J) - exp(-b*J)] / (sp*sm),  a = 1/sp + 1/sm,  b = 4/sm.

    The four-term sum in ``tests/reference.py`` is the independent
    reference.  Takes one nonnegative J and returns a float; for a grid,
    call it once per J.
    """
    return _b(state.sigma_plus_sq, state.sigma_minus_sq, _displacement(j))


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
    return BellResult(*_bell_max(p.r, p.eta, state.sigma_plus_sq, state.sigma_minus_sq))


def loss_bound_ok(params: EprParams) -> bool:
    """Heuristic flag 2*(1 - eta)*cosh(2r) < 1 for violation-friendly loss.

    The underlying condition is an order-of-magnitude statement ("much less
    than one"); this sharp cut is a reading aid on scan rows, never a
    correctness gate.
    """
    return _loss_bound(params.r, params.eta)


def scaled_chsh(v: float, theta: float, angles) -> ScaledChsh:
    """CHSH combination S = E(1,2) + E(1',2) + E(1,2') - E(1',2') of the
    scaled correlation E(phi1, phi2) = V*cos(phi1 - phi2 + theta).

    ``angles`` is the quadruple (phi1, phi1', phi2, phi2').  Local theories
    bound |S| by 2; the quantum ceiling is 2*sqrt(2)*V.
    """
    v, theta = _real("visibility", v), _real("theta", theta)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v!r}")
    angles = _reals("angles", angles)
    if len(angles) != 4:
        raise ValueError(f"angles must be a quadruple, got {len(angles)} values")
    phi1, phi1p, phi2, phi2p = angles
    e = lambda a, b: v * math.cos(a - b + theta)
    return ScaledChsh(v, theta, angles, e(phi1, phi2) + e(phi1p, phi2) + e(phi1, phi2p) - e(phi1p, phi2p))


def optimize_scaled_chsh(v: float, theta: float = 0.0) -> ScaledChsh:
    """Analyzer angles maximizing the scaled CHSH combination.

    The optimum of E(phi1, phi2) = V*cos(phi1 - phi2 + theta) sits at the
    standard quadruple rigidly shifted by theta on one side, giving
    S = 2*sqrt(2)*V independent of theta.
    """
    theta = _real("theta", theta)
    angles = (0.0, math.pi / 2.0, theta + math.pi / 4.0, theta - math.pi / 4.0)
    return scaled_chsh(v, theta, angles)
