"""Separability and Heisenberg-type boundary criteria for the EPR state.

Two families of predicates are evaluated against one state:

* the sum criterion ``duan_sum < 1`` on the joint quadrature variances
  (sufficient for nonseparability, no Gaussian assumption needed), plus
  its mu-weighted generalization ``dx_mu^2 + dp_mu^2 < (1 + mu^2)/2``;
* the stricter Heisenberg-type product condition
  ``dx_mu^2 * dp_mu^2 < 1/16`` and the derived sum form ``< 1/2`` that
  underpin the claim that only fidelity above 2/3 counts as quantum.

All predicates are strict inequalities with no tolerance band: a state
sitting exactly on a boundary does not satisfy the criterion.  The free
weight in the sum criterion is fixed to a = 1 (symmetric modes).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .epr_model import EprParams, GaussianEprState, _real, mu_opt

__all__ = [
    "CriteriaReport",
    "duan_sum",
    "nbar_threshold",
    "mu_variances",
    "conditional_variances",
    "classify",
    "CRITERIA_CSV_COLUMNS",
]


class CriteriaReport(namedtuple("CriteriaReport", (
    "r eta nbar duan_sum duan_nonseparable mu dx_mu_sq dp_mu_sq cond_var_x cond_var_p gg_product gg_hi_satisfied"
    " gg_sum_satisfied simon_mu_nonseparable nbar_threshold gg_product_mu1 gg_hi_satisfied_mu1 gg_sum_mu1"
    " gg_sum_satisfied_mu1"
))):
    """Every boundary predicate evaluated for one state.

    The headline fields are evaluated at the estimator gain ``mu`` (the
    optimal gain unless overridden); the ``*_mu1`` fields repeat the
    Heisenberg-type evaluations at mu = 1, the gain the teleportation
    protocol itself uses.  ``nbar_threshold`` is +inf at eta = 1, where no
    amount of ancilla thermal noise can reach the state.
    """

    __slots__ = ()


# One CSV row of a report: every field but the mu = 1 repeats, in declaration order.
CRITERIA_CSV_COLUMNS = tuple(name for name in CriteriaReport._fields if not name.endswith("_mu1"))


def duan_sum(state: GaussianEprState) -> float:
    """Joint-quadrature variance sum <(x1-x2)^2> + <(p1+p2)^2> = sigma_minus_sq.

    This is the mu = 1 sum of :func:`mu_variances`, [0 + 4*sm]/8 twice, held
    exactly as sm.  The state is nonseparable whenever the result is < 1.
    """
    return state.sigma_minus_sq


def nbar_threshold(r: float, eta: float) -> float:
    """Largest ancilla occupancy still compatible with nonseparability.

    Returns eta*(1 - exp(-2r)) / (2*(1 - eta)), with 1 - exp(-2r) taken as
    -expm1(-2r), which keeps full precision at small r; 0 when r = 0 (no
    squeezing, never entangled) and +inf when eta = 1 (ancillas never couple in).
    """
    p = EprParams(r, eta)  # the one validator of the knobs; its floats are used below
    if p.r == 0.0:
        return 0.0
    if p.eta == 1.0:
        return math.inf
    return p.eta * -math.expm1(-2.0 * p.r) / (2.0 * (1.0 - p.eta))


def mu_variances(state: GaussianEprState, mu: float) -> tuple[float, float]:
    """Error variances <(x1 - mu*x2)^2> and <(p1 + mu*p2)^2> of a gain-mu estimate.

    Evaluated as [sp*(1-mu)^2 + sm*(1+mu)^2]/8, which is algebraically equal
    to var*(1+mu^2) - 2*mu*cov but free of the cancellation that form
    suffers at large squeezing.  The two sectors coincide by symmetry.
    A mu for which the weighted sum overflows raises ValueError.
    """
    mu = _real("mu", mu)
    try:
        var = (
            state.sigma_plus_sq * (1.0 - mu) ** 2 + state.sigma_minus_sq * (1.0 + mu) ** 2
        ) / 8.0
    except OverflowError:  # (1 -+ mu)**2 beyond the float range
        var = math.inf
    if var == math.inf:
        raise ValueError(f"mu = {mu!r} makes the gain-mu variances overflow")
    return var, var


def conditional_variances(state: GaussianEprState) -> tuple[float, float]:
    """Residual variances V_{x2|x1} and V_{p2|p1} after optimal linear inference.

    V = <x2^2> - <x1 x2>^2 / <x1^2>, equal for the x and p sectors and equal
    to the gain-mu error variances evaluated at the optimal gain.  With
    var = (sp + sm)/8 and cov = (sp - sm)/8 this is sp*sm / (2*(sp + sm)),
    evaluated as sm / (2*(1 + sm/sp)): the difference cancels
    catastrophically at large squeezing, and sp*sm overflows at large nbar.
    """
    sm = state.sigma_minus_sq
    cond = sm / (2.0 * (1.0 + sm / state.sigma_plus_sq))
    return cond, cond


def classify(state: GaussianEprState, mu: float | None = None) -> CriteriaReport:
    """Evaluate every boundary predicate for one state.

    ``mu`` defaults to the optimal estimator gain.  The conditional
    variances always refer to optimal inference regardless of ``mu``.  At
    the optimal gain they are also the gain-mu error variances, and are
    reported as such: :func:`mu_variances` would scale the rounding error
    of mu by sp, which at large r outgrows the variances themselves.  An
    explicit ``mu`` for which ``gg_product`` overflows raises ValueError;
    under the nbar bound no field at the optimal gain or at mu = 1 can.
    """
    params = state.params
    d_sum = duan_sum(state)
    cond_x, cond_p = conditional_variances(state)
    if mu is None:
        mu = mu_opt(state)
        dx_mu_sq, dp_mu_sq = cond_x, cond_p
    else:
        mu = _real("mu", mu)
        dx_mu_sq, dp_mu_sq = mu_variances(state, mu)
    gg_product = dx_mu_sq * dp_mu_sq
    if gg_product == math.inf:
        raise ValueError(f"mu = {mu!r} makes gg_product overflow")
    gg_sum = dx_mu_sq + dp_mu_sq

    dx1_sq, dp1_sq = mu_variances(state, 1.0)
    gg_product_mu1 = dx1_sq * dp1_sq
    gg_sum_mu1 = dx1_sq + dp1_sq

    return CriteriaReport(
        r=params.r,
        eta=params.eta,
        nbar=params.nbar,
        duan_sum=d_sum,
        duan_nonseparable=d_sum < 1.0,
        mu=mu,
        dx_mu_sq=dx_mu_sq,
        dp_mu_sq=dp_mu_sq,
        cond_var_x=cond_x,
        cond_var_p=cond_p,
        gg_product=gg_product,
        gg_hi_satisfied=gg_product < 1.0 / 16.0,
        gg_sum_satisfied=gg_sum < 0.5,
        simon_mu_nonseparable=gg_sum < (1.0 + mu**2) / 2.0,
        nbar_threshold=nbar_threshold(params.r, params.eta),
        gg_product_mu1=gg_product_mu1,
        gg_hi_satisfied_mu1=gg_product_mu1 < 1.0 / 16.0,
        gg_sum_mu1=gg_sum_mu1,
        gg_sum_satisfied_mu1=gg_sum_mu1 < 0.5,
    )
