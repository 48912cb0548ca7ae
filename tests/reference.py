"""Reference physics for the tests, kept out of the library.

The library evaluates every quantity as a closed form of the variance pair
(sp, sm).  The definitions those closed forms were reduced from live here,
written out directly, so that the tests can compare the two:

* the Wigner density of the two-mode state, the displaced-parity
  correlation Pi = (pi^2/4) W and the four-term CHSH combination B(J);
* the per-mode second moments;
* the oracle's documented stream materialised in one draw, and a per-mode
  sampler that solves four Gaussian factors for (x1, p1, x2, p2);
* :func:`exact`, a 50-digit mpmath evaluation of every scalar output.
"""

import math
from typing import NamedTuple

import numpy as np


def wigner(state, x1, p1, x2, p2):
    """Wigner density at (x1, p1, x2, p2); scalars or broadcast-compatible arrays.

    W = (4/pi^2) / (sp*sm) * exp(-[(x1+x2)^2+(p1-p2)^2]/sp
                                 -[(x1-x2)^2+(p1+p2)^2]/sm)
    """
    sp, sm = state.sigma_plus_sq, state.sigma_minus_sq
    q_plus = (x1 + x2) ** 2 + (p1 - p2) ** 2
    q_minus = (x1 - x2) ** 2 + (p1 + p2) ** 2
    return (4.0 / math.pi**2) / (sp * sm) * np.exp(-q_plus / sp - q_minus / sm)


def pi_corr(state, x1, p1, x2, p2):
    """Displaced-parity correlation Pi = (pi^2/4) W; 1/(sp*sm) at the origin."""
    return (math.pi**2 / 4.0) * wigner(state, x1, p1, x2, p2)


def b_four_term(state, j):
    """The defining four-point combination of displaced-parity correlations."""
    root = math.sqrt(j)
    return (
        pi_corr(state, 0.0, 0.0, 0.0, 0.0)
        + pi_corr(state, root, 0.0, 0.0, 0.0)
        + pi_corr(state, 0.0, 0.0, -root, 0.0)
        - pi_corr(state, root, 0.0, -root, 0.0)
    )


class SecondMoments(NamedTuple):
    var_x: float
    var_p: float
    cov_xx: float
    cov_pp: float


def second_moments(state):
    """var_x = var_p = (sp + sm)/8 and cov_xx = -cov_pp = (sp - sm)/8."""
    var = (state.sigma_plus_sq + state.sigma_minus_sq) / 8.0
    cov = (state.sigma_plus_sq - state.sigma_minus_sq) / 8.0
    return SecondMoments(var_x=var, var_p=var, cov_xx=cov, cov_pp=-cov)


def reference_exponentials(config):
    """The oracle's documented stream, materialised at once: one draw of N
    uniforms v, mapped to the unit exponentials t = -log1p(-v); sample i has
    noise_sq = sigma_minus_sq * t[i]."""
    return -np.log1p(-np.random.default_rng(config.seed).random(config.samples))


def reference_factors(state, config):
    """Four Gaussian factors (x1+x2, x1-x2, p1-p2, p1+p2), each scaled to its
    variance: one (4, N) standard-normal draw from the seed's stream."""
    z = np.random.default_rng(config.seed).standard_normal((4, config.samples))
    scale = np.array([state.sigma_plus_sq, state.sigma_minus_sq] * 2) / 2.0
    return np.sqrt(scale)[:, None] * z


def reference_samples(state, config):
    """(N, 4) rows of (x1, p1, x2, p2), solved from reference_factors."""
    sum_x, diff_x, diff_p, sum_p = reference_factors(state, config)
    return np.stack(
        [(sum_x + diff_x) / 2.0, (sum_p + diff_p) / 2.0,
         (sum_x - diff_x) / 2.0, (sum_p - diff_p) / 2.0],
        axis=1,
    )


class Exact(NamedTuple):
    sp: object
    sm: object
    mu: object
    cond: object
    j_star: object
    b_star: object
    fidelity: object
    nbar_threshold: object


def exact(r, eta, nbar):
    """Every scalar output of the state (r, eta, nbar) as 50-digit mpmath numbers.

    sp - sm is written as 2*eta*sinh(2r) and 1 - exp(-2r) as -expm1(-2r):
    at 50 digits the differences lose every digit at small r or large nbar.
    """
    import mpmath

    with mpmath.workdps(50):
        r, eta, nbar = map(mpmath.mpf, (r, eta, nbar))
        thermal = (1 - eta) * (1 + 2 * nbar)
        sp = eta * mpmath.exp(2 * r) + thermal
        sm = eta * mpmath.exp(-2 * r) + thermal
        mu = 2 * eta * mpmath.sinh(2 * r) / (sp + sm)
        j_star = mpmath.log1p(mu) * sm / (3 - sm / sp)
        terms = 1 + 2 * mpmath.exp(-j_star * (1 / sp + 1 / sm)) - mpmath.exp(-4 * j_star / sm)
        b_star = terms / (sp * sm)
        threshold = 0 if r == 0 else mpmath.inf if eta == 1 else eta * -mpmath.expm1(-2 * r) / (2 * (1 - eta))
        return Exact(sp, sm, mu, sp * sm / (2 * (sp + sm)), j_star, b_star, 1 / (1 + sm), threshold)
