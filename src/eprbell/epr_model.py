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
Every library output is a closed form of the variance pair, each written
once as a scalar kernel in ``math`` (such as :func:`_sigma_pair` and
:func:`_mu_opt` here) that the scalar API and the figure tables both call,
so neither needs numpy.  The Wigner density and the second moments, which
the tests check those closed forms against, live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from collections import namedtuple

__all__ = [
    "EprParams",
    "GaussianEprState",
    "make_state",
    "mu_opt",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_NBAR_MAX = math.sqrt(sys.float_info.max) / 2.0


def _shown(value) -> str:
    """repr(value) for an error message, cut to 60 characters past 80; an int over 20 digits by its digit count,
    and a value whose repr raises (such as a list holding an int past the 4300-digit text limit) by its type."""
    if not isinstance(value, int) or abs(value) < 10**20:
        try:
            text = repr(value)
        except (ValueError, RecursionError):  # the 4300-digit limit on int text; a container nested too deep
            return f"<a {type(value).__name__!r} value that repr cannot print>"
        return text if len(text) <= 80 else f"{text[:60]}... <{len(text)} characters>"
    digits = int(math.log10(abs(value))) + 1
    digits += (abs(value) >= 10**digits) - (abs(value) < 10 ** (digits - 1))  # log10 may round across a power of 10
    return f"<an integer of {digits} digits>"


# _real, _reals and _count are the one rule for each number, list or count from outside.
def _real(name: str, value) -> float:
    """value as a finite float.  A bool, text, None or an int beyond the float range raises ValueError."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {_shown(value)}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got {_shown(value)}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _reals(name: str, values) -> tuple[float, ...]:
    """:func:`_real` on each item of a sequence; a scalar, text or None in its place raises ValueError."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple([_real(name, value) for value in values])
        except TypeError:  # values is not iterable
            pass
    raise ValueError(f"{name} must be a sequence of real numbers, got {_shown(values)}")


def _count(name: str, value, minimum: int = 1) -> int:
    """value as an int >= minimum: an integral number (a numpy integer too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return operator.index(value)


class _Checked:
    """Base of a named-tuple record whose __new__ checks its values.  namedtuple's own
    _make, which _replace calls, builds the tuple directly; this one goes through cls()."""

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


class EprParams(_Checked, namedtuple("EprParams", "r eta nbar")):
    """Physical knobs: squeezing r >= 0, transmission eta in [0, 1], thermal nbar >= 0.

    r is bounded above by the float overflow edge 2r <= ln(DBL_MAX), beyond
    which exp(2r) is not representable, and nbar by sqrt(DBL_MAX)/2, beyond
    which the products of the variances that the criteria report overflow.
    """

    __slots__ = ()

    def __new__(cls, r: float, eta: float, nbar: float = 0.0):
        r, eta, nbar = _real("r", r), _real("eta", eta), _real("nbar", nbar)
        if r < 0.0:
            raise ValueError(f"r must be >= 0, got {r}")
        if 2.0 * r > _LOG_FLOAT_MAX:
            raise ValueError(f"r must be <= {_LOG_FLOAT_MAX / 2.0} (exp(2r) overflows), got {r}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {eta}")
        if not 0.0 <= nbar <= _NBAR_MAX:
            raise ValueError(f"nbar must be in [0, {_NBAR_MAX}], got {nbar}")
        return super().__new__(cls, r, eta, nbar)


class GaussianEprState(_Checked, namedtuple("GaussianEprState", "params sigma_plus_sq sigma_minus_sq")):
    """Two-mode Gaussian state of the given knobs.

    Built from :class:`EprParams` alone; the (sigma_plus_sq, sigma_minus_sq)
    pair is derived from them once, by :func:`_sigma_pair`, so the knobs and
    the variances cannot disagree; neither ``_make`` nor ``_replace`` takes a
    pair.  The knobs are retained because several
    derived reports (thermal threshold, sweep rows) need (r, eta, nbar),
    which cannot be recovered from the two variance scales alone.
    """

    __slots__ = ()

    def __new__(cls, params: EprParams):
        if not isinstance(params, EprParams):  # EprParams is the one validator of the knobs
            raise ValueError(f"params must be an EprParams, got {_shown(params)}")
        return super().__new__(cls, params, *_sigma_pair(params.r, params.eta, params.nbar))

    def __getnewargs__(self):  # pickle and copy rebuild the state from its knobs
        return (self.params,)

    def _replace(self, /, params: EprParams | None = None, **pair):
        """The state of other knobs; a variance pair in ``pair`` raises ValueError."""
        if pair:
            raise ValueError(f"the variance pair is derived from params, not given; got {', '.join(pair)}")
        return type(self)(self.params if params is None else params)


def _sigma_pair(r: float, eta: float, nbar: float) -> tuple[float, float]:
    """(sigma_plus_sq, sigma_minus_sq) of the module docstring for knobs that
    EprParams has already validated; not public, since it checks none of them."""
    thermal = (1.0 - eta) * (1.0 + 2.0 * nbar)
    return eta * math.exp(2.0 * r) + thermal, eta * math.exp(-2.0 * r) + thermal


def make_state(params: EprParams) -> GaussianEprState:
    """Build the traced-out two-mode Gaussian state for the given knobs.

    For eta = 1 this reduces to the pure squeezed-vacuum pair
    (exp(2r), exp(-2r)) regardless of nbar.
    """
    return GaussianEprState(params)


def _mu_opt(r: float, eta: float, sp: float, sm: float) -> float:
    """:func:`mu_opt` of the knobs and their variance pair, with sp - sm
    written as 2*eta*sinh(2r): the difference cancels the thermal term, and
    at small r every digit with it.  Where the true gain is within an ulp of
    1 the quotient can round above it, so it is capped at 1."""
    return min(2.0 * eta * math.sinh(2.0 * r) / (sp + sm), 1.0)


def mu_opt(state: GaussianEprState) -> float:
    """Optimal linear-estimator gain <x1 x2>/<x2^2> = (sp - sm)/(sp + sm).

    Lies in [0, 1] for r >= 0 and tends to 1 as the correlations become
    perfect (r >> 1 at eta = 1).
    """
    p = state.params
    return _mu_opt(p.r, p.eta, state.sigma_plus_sq, state.sigma_minus_sq)
