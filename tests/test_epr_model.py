import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eprbell
from eprbell import EprParams, GaussianEprState, OracleConfig, fidelity, make_state, maximize_b, mu_opt, sigma_pair
from reference import exact, reference_samples, second_moments, wigner

LN2_HALF = math.log(2.0) / 2.0

params_st = st.builds(
    EprParams,
    r=st.floats(0.0, 3.0),
    eta=st.floats(0.01, 1.0),
    nbar=st.floats(0.0, 2.0),
)


def test_make_state_vacuum():
    s = make_state(EprParams(r=0.0, eta=1.0, nbar=0.0))
    assert s.sigma_plus_sq == 1.0
    assert s.sigma_minus_sq == 1.0


def test_make_state_three_db():
    s = make_state(EprParams(r=LN2_HALF, eta=1.0))
    assert s.sigma_plus_sq == pytest.approx(2.0, abs=1e-15)
    assert s.sigma_minus_sq == pytest.approx(0.5, abs=1e-15)


def test_make_state_lossy_thermal():
    s = make_state(EprParams(r=1.0, eta=0.5, nbar=0.5))
    assert s.sigma_plus_sq == pytest.approx(0.5 * math.exp(2.0) + 1.0, rel=1e-15)
    assert s.sigma_minus_sq == pytest.approx(0.5 * math.exp(-2.0) + 1.0, rel=1e-15)
    # frozen values
    assert s.sigma_plus_sq == pytest.approx(4.694528049465325, abs=1e-12)
    assert s.sigma_minus_sq == pytest.approx(1.0676676416183064, abs=1e-12)


def test_eta_one_ignores_nbar():
    for nbar in (0.0, 0.7, 25.0):
        s = make_state(EprParams(r=0.8, eta=1.0, nbar=nbar))
        assert s.sigma_plus_sq == math.exp(1.6)
        assert s.sigma_minus_sq == math.exp(-1.6)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(r=-0.1, eta=1.0), "r"),
        (dict(r=math.nan, eta=1.0), "r"),
        (dict(r=1.0, eta=1.2), "eta"),
        (dict(r=1.0, eta=-0.01), "eta"),
        (dict(r=1.0, eta=math.inf), "eta"),
        (dict(r=1.0, eta=0.5, nbar=-1.0), "nbar"),
        (dict(r=1.0, eta=0.5, nbar=math.nan), "nbar"),
        (dict(r=400.0, eta=0.9), "r"),
        (dict(r=1.0, eta=0.5, nbar=1e300), "nbar"),
        (dict(r="x", eta=0.5), "r must be a real number"),
        (dict(r=None, eta=0.5), "r must be a real number"),
    ],
)
def test_params_validation_names_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        EprParams(**kwargs)


HUGE = 10**400  # a Python int beyond the float range


@pytest.mark.parametrize(
    "call",
    [
        lambda: EprParams(r=HUGE, eta=0.5),
        lambda: eprbell.nbar_threshold(HUGE, 0.5),
        lambda: eprbell.SweepSpec(r_grid=(HUGE,)),
        lambda: eprbell.classify(make_state(EprParams(0.5, 0.9)), mu=HUGE),
        lambda: eprbell.mu_variances(make_state(EprParams(0.5, 0.9)), HUGE),
        lambda: eprbell.b_of_j(make_state(EprParams(0.5, 0.9)), HUGE),
        lambda: eprbell.fig2((0.1,), 0.9, (HUGE,)),
        lambda: eprbell.scaled_chsh(HUGE, 0.0, (0.0, 1.0, 2.0, 3.0)),
        lambda: eprbell.scaled_chsh(0.9, 0.0, (0.0, 1.0, 2.0, math.nan)),
        lambda: eprbell.optimize_scaled_chsh(0.5, theta=HUGE),
        lambda: eprbell.SweepSpec.from_range(0.0, 3.0, 2.5),
    ],
    ids=[
        "EprParams", "nbar_threshold", "SweepSpec", "classify", "mu_variances", "b_of_j", "fig2",
        "scaled_chsh", "scaled_chsh-nan-angle", "optimize_scaled_chsh", "from_range-fractional-count",
    ],
)
def test_library_entries_reject_malformed_numbers_with_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_overflow_edge_is_the_largest_accepted_r():
    edge = math.log(sys.float_info.max) / 2.0
    s = make_state(EprParams(r=edge, eta=1.0))
    assert math.isfinite(s.sigma_plus_sq)
    with pytest.raises(ValueError, match="r"):
        EprParams(r=math.nextafter(edge, math.inf), eta=1.0)
    for eta in (0.9, 1.0):
        result = fidelity(make_state(EprParams(r=354.0, eta=eta)))
        assert math.isfinite(result.fidelity) and result.beats_classical


def test_nbar_bound_is_the_largest_accepted_nbar():
    bound = math.sqrt(sys.float_info.max) / 2.0
    assert EprParams(r=0.0, eta=0.0, nbar=bound).nbar == bound
    with pytest.raises(ValueError, match="nbar"):
        EprParams(r=0.0, eta=0.0, nbar=math.nextafter(bound, math.inf))


def test_wigner_vacuum_origin():
    s = make_state(EprParams(0.0, 1.0))
    assert wigner(s, 0, 0, 0, 0) == pytest.approx(4.0 / math.pi**2, rel=1e-15)


def test_wigner_origin_general():
    s = make_state(EprParams(0.9, 0.6, 0.4))
    expected = (4.0 / math.pi**2) / (s.sigma_plus_sq * s.sigma_minus_sq)
    assert wigner(s, 0, 0, 0, 0) == pytest.approx(expected, rel=1e-15)


def test_wigner_unit_displacement():
    # x1 = 1 puts one unit in each quadrature pair: exponent -1/sp - 1/sm = -2
    s = make_state(EprParams(0.0, 1.0))
    expected = (4.0 / math.pi**2) * math.exp(-2.0)
    assert wigner(s, 1.0, 0, 0, 0) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=50)
@given(params_st, st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_wigner_nonnegative_and_positive_in_range(params, x1, p1, x2, p2):
    s = make_state(params)
    value = wigner(s, x1, p1, x2, p2)
    assert value >= 0.0
    exponent = (
        -((x1 + x2) ** 2 + (p1 - p2) ** 2) / s.sigma_plus_sq
        - ((x1 - x2) ** 2 + (p1 + p2) ** 2) / s.sigma_minus_sq
    )
    if exponent > -700.0:  # inside double-precision exp range
        assert value > 0.0


def _normalization_quadrature(state, n):
    half = 6.0 * math.sqrt(max(state.sigma_plus_sq, state.sigma_minus_sq))
    axis = np.linspace(-half, half, n)
    w1 = np.full(n, axis[1] - axis[0])
    w1[0] *= 0.5
    w1[-1] *= 0.5
    w3 = w1[:, None, None] * w1[None, :, None] * w1[None, None, :]
    p1, x2, p2 = np.meshgrid(axis, axis, axis, indexing="ij")
    total = 0.0
    for i, x1 in enumerate(axis):
        total += w1[i] * float(np.sum(wigner(state, x1, p1, x2, p2) * w3))
    return total


@pytest.mark.parametrize(
    "params, n",
    [
        (EprParams(LN2_HALF, 1.0, 0.0), 64),
        (EprParams(1.0, 0.7, 0.3), 64),
        (EprParams(1.5, 0.5, 0.0), 72),
    ],
)
def test_wigner_normalization(params, n):
    assert _normalization_quadrature(make_state(params), n) == pytest.approx(1.0, abs=1e-4)


def test_second_moments_vacuum():
    m = second_moments(make_state(EprParams(0.0, 1.0)))
    assert m.var_x == 0.25
    assert m.var_p == 0.25
    assert m.cov_xx == 0.0
    assert m.cov_pp == 0.0


def test_second_moments_three_db():
    m = second_moments(make_state(EprParams(LN2_HALF, 1.0)))
    assert m.var_x == pytest.approx(0.3125, abs=1e-15)
    assert m.cov_xx == pytest.approx(0.1875, abs=1e-15)
    assert m.cov_pp == pytest.approx(-0.1875, abs=1e-15)


@settings(max_examples=50)
@given(params_st)
def test_second_moments_invariants(params):
    m = second_moments(make_state(params))
    assert m.var_x == m.var_p
    assert m.cov_xx == -m.cov_pp
    assert abs(m.cov_xx) < m.var_x or (params.r == 0.0 and m.cov_xx == 0.0)


def test_second_moments_pure_state_closed_form():
    for r in (0.2, 0.7, 1.3):
        m = second_moments(make_state(EprParams(r, 1.0)))
        assert m.var_x == pytest.approx(math.cosh(2 * r) / 4.0, rel=1e-14)
        assert m.cov_xx == pytest.approx(math.sinh(2 * r) / 4.0, rel=1e-14)


def test_second_moments_match_sampling():
    state = make_state(EprParams(LN2_HALF, 1.0))
    n = 1_000_000
    pts = reference_samples(state, OracleConfig(samples=n, seed=7))
    m = second_moments(state)
    var_se = m.var_x * math.sqrt(2.0 / (n - 1))
    cov_se = math.sqrt((m.var_x * m.var_x + m.cov_xx**2) / n)
    assert np.var(pts[:, 0]) == pytest.approx(m.var_x, abs=4 * var_se)
    assert np.var(pts[:, 3]) == pytest.approx(m.var_p, abs=4 * var_se)
    assert np.mean(pts[:, 0] * pts[:, 2]) == pytest.approx(m.cov_xx, abs=4 * cov_se)
    assert np.mean(pts[:, 1] * pts[:, 3]) == pytest.approx(m.cov_pp, abs=4 * cov_se)


def test_mu_opt_no_correlation():
    assert mu_opt(make_state(EprParams(0.0, 0.8, 0.2))) == 0.0


def test_mu_opt_lossless_is_tanh():
    for r in (0.1, 0.5, 2.0):
        assert mu_opt(make_state(EprParams(r, 1.0))) == pytest.approx(math.tanh(2 * r), rel=1e-14)


def test_mu_opt_saturates():
    assert mu_opt(make_state(EprParams(5.0, 1.0))) == pytest.approx(1.0, abs=1e-4)
    assert mu_opt(make_state(EprParams(5.0, 1.0))) < 1.0


def test_mu_opt_matches_closed_form_grid():
    # moment form vs eta*sinh(2r) / ((1-eta) + eta*cosh(2r)), nbar = 0 only
    for r in np.linspace(0.0, 3.0, 31):
        for eta in np.linspace(0.02, 1.0, 29):
            state = make_state(EprParams(float(r), float(eta)))
            closed = eta * math.sinh(2 * r) / ((1 - eta) + eta * math.cosh(2 * r))
            assert mu_opt(state) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("nbar", [0.0, 1e6])
@pytest.mark.parametrize("eta", [0.01, 0.5, 1.0])
@pytest.mark.parametrize("r", [1e-12, 1e-8, 1e-4, 0.5, 354.8])
def test_mu_opt_and_j_star_match_mpmath(r, eta, nbar):
    # sp - sm cancels the thermal term: at r = 1e-12, eta = 0.01, nbar = 1e6 it left mu_opt = 0
    state = make_state(EprParams(r, eta, nbar))
    ref = exact(r, eta, nbar)
    for got, want in ((mu_opt(state), ref.mu), (maximize_b(state).j_max, ref.j_star)):
        assert abs(got - want) <= 4 * math.ulp(float(want))


def test_loss_ordering():
    # sigma_minus grows with loss; sigma_plus shrinks with loss while e^{2r} > 1+2nbar
    r, nbar = 0.9, 0.4
    etas = np.linspace(0.05, 1.0, 40)
    states = [make_state(EprParams(r, float(e), nbar)) for e in etas]
    minus = [s.sigma_minus_sq for s in states]
    plus = [s.sigma_plus_sq for s in states]
    assert all(a > b for a, b in zip(minus, minus[1:]))  # decreasing in eta
    assert math.exp(2 * r) > 1 + 2 * nbar
    assert all(a < b for a, b in zip(plus, plus[1:]))  # increasing in eta


def test_purity_boundary():
    for r in (0.05, 0.5, 1.5):
        pure = make_state(EprParams(r, 1.0))
        assert pure.sigma_plus_sq * pure.sigma_minus_sq == pytest.approx(1.0, abs=1e-14)
        for eta in (0.05, 0.5, 0.99):
            mixed = make_state(EprParams(r, eta))
            assert mixed.sigma_plus_sq * mixed.sigma_minus_sq > 1.0 + 1e-9


def test_state_takes_no_variance_pair_from_outside():
    # The pair (2, 0.5) belongs to r = ln2/2, not to these knobs' r = 0.
    with pytest.raises(TypeError):
        GaussianEprState(2.0, 0.5, EprParams(0.0, 1.0))
    with pytest.raises(TypeError):
        GaussianEprState(EprParams(0.0, 1.0), sigma_plus_sq=2.0, sigma_minus_sq=0.5)


@given(params_st)
def test_state_derives_its_variance_pair_from_its_knobs(params):
    s = GaussianEprState(params)
    assert (s.sigma_plus_sq, s.sigma_minus_sq) == sigma_pair(params.r, params.eta, params.nbar)
    assert make_state(params) == s
