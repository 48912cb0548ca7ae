import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprbell import (
    EprParams,
    b_of_j,
    duan_sum,
    fidelity,
    loss_bound_ok,
    make_state,
    maximize_b,
    optimize_scaled_chsh,
    scaled_chsh,
)
from reference import b_four_term, pi_corr, wigner

LN2_HALF = math.log(2.0) / 2.0
RT2 = math.sqrt(2.0)


def state(r, eta, nbar=0.0):
    return make_state(EprParams(r=r, eta=eta, nbar=nbar))


def pi_reference(s, x1, p1, x2, p2):
    # independent transcription of the displaced-parity correlation
    sp, sm = s.sigma_plus_sq, s.sigma_minus_sq
    exponent = -((x1 + x2) ** 2 + (p1 - p2) ** 2) / sp - ((x1 - x2) ** 2 + (p1 + p2) ** 2) / sm
    return math.exp(exponent) / (sp * sm)


def test_pi_origin_lossless_is_one():
    for r in (0.0, 0.3, 1.7):
        assert pi_corr(state(r, 1.0), 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-15)


def test_pi_origin_general():
    s = state(0.9, 0.75, 0.3)
    expected = 1.0 / (s.sigma_plus_sq * s.sigma_minus_sq)
    assert pi_corr(s, 0, 0, 0, 0) == pytest.approx(expected, rel=1e-14)


def test_pi_vacuum_displacement():
    s = state(0.0, 1.0)
    for j in (0.0, 0.2, 1.5):
        got = pi_corr(s, math.sqrt(j), 0, 0, 0)
        assert got == pytest.approx(math.exp(-2.0 * j), rel=1e-13)


def test_pi_is_scaled_wigner_and_matches_reference():
    rng = np.random.default_rng(2024)
    n = 100_000
    r = rng.uniform(0.0, 2.5, n)
    eta = rng.uniform(0.05, 1.0, n)
    nbar = rng.uniform(0.0, 1.0, n)
    coords = rng.uniform(-3.0, 3.0, (n, 4))
    for i in range(0, n, 20_000):  # spot-check states one by one, vectorize the rest below
        s = state(r[i], eta[i], nbar[i])
        pt = coords[i]
        assert pi_corr(s, *pt) == pytest.approx((math.pi**2 / 4.0) * wigner(s, *pt), rel=1e-15)
        assert pi_corr(s, *pt) == pytest.approx(pi_reference(s, *pt), rel=1e-12)
    # one state, vectorized over all the points
    s = state(0.8, 0.9, 0.2)
    pt = coords.T
    got = pi_corr(s, *pt)
    want = (math.pi**2 / 4.0) * wigner(s, *pt)
    np.testing.assert_allclose(got, want, rtol=1e-15)
    ref = np.array([pi_reference(s, *row) for row in coords[:2000]])
    np.testing.assert_allclose(got[:2000], ref, rtol=1e-12)


def test_b_at_zero_displacement():
    for r, eta, nbar in [(0.0, 1.0, 0.0), (0.7, 0.8, 0.1), (2.0, 0.5, 0.0)]:
        s = state(r, eta, nbar)
        expected = 2.0 / (s.sigma_plus_sq * s.sigma_minus_sq)
        assert b_of_j(s, 0.0) == pytest.approx(expected, rel=1e-14)
    assert b_of_j(state(1.3, 1.0), 0.0) == pytest.approx(2.0, abs=1e-14)


def test_b_vacuum_never_violates():
    s = state(0.0, 1.0)
    js = np.linspace(0.0, 10.0, 500)
    values = np.array([b_of_j(s, j) for j in js])
    np.testing.assert_allclose(values, 1.0 + 2.0 * np.exp(-2 * js) - np.exp(-4 * js), rtol=1e-13)
    assert np.all(values <= 2.0 + 1e-15)
    assert values[0] == pytest.approx(2.0, abs=1e-15)


def test_b_exceeds_two_at_small_displacement_lossless():
    s = state(1.0, 1.0)
    assert b_of_j(s, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert any(b_of_j(s, j) > 2.0 for j in (0.01, 0.03, 0.05))


def test_b_rejects_bad_displacement():
    with pytest.raises(ValueError):
        b_of_j(state(0.5, 0.9), -0.1)
    with pytest.raises(ValueError):
        b_of_j(state(0.5, 0.9), math.nan)


@pytest.mark.parametrize("grid", [(0.1, 0.2), [0.1], np.array([0.1, 0.2])], ids=["tuple", "list", "ndarray"])
def test_b_of_j_takes_one_displacement(grid):
    # b_of_j maps one J to one float, as every kernel wrapper does; a grid is a call per J.
    with pytest.raises(ValueError, match="j must be a real number"):
        b_of_j(state(0.5, 0.9), grid)
    assert type(b_of_j(state(0.5, 0.9), np.float64(0.1))) is float


@settings(max_examples=150)
@given(
    st.floats(0.0, 3.0),
    st.floats(0.05, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 10.0),
)
def test_b_matches_closed_form(r, eta, nbar, j):
    s = state(r, eta, nbar)
    assert b_of_j(s, j) == pytest.approx(b_four_term(s, j), abs=1e-12)


def test_maximize_vacuum_boundary():
    # sp == sm (no squeezing, or no transmission): B falls monotonically from J = 0
    for r, eta, nbar in [(0.0, 1.0, 0.0), (0.0, 0.6, 0.4), (1.5, 0.0, 0.0), (0.7, 0.0, 0.5)]:
        s = state(r, eta, nbar)
        result = maximize_b(s)
        assert result.j_max == 0.0
        assert b_of_j(s, 0.0) == 2.0 / (s.sigma_plus_sq * s.sigma_minus_sq)
        assert result.b_max == b_of_j(s, 0.0)
        assert not result.violates


def test_maximize_lossless_violates_for_any_squeezing():
    for r in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0):
        result = maximize_b(state(r, 1.0))
        assert result.violates, f"no violation at r={r}"
        assert result.b_max > 2.0


@pytest.mark.parametrize("r", [10.0, 354.0, 354.5, 354.89])
def test_maximize_lossless_limit_up_to_the_overflow_edge(r):
    # sp*sm = 1 and sm -> 0: a*J* -> ln2/3 and b*J* -> 4 ln2/3.  Near the edge
    # sm is subnormal, and a J* written with 3/sm overflows to J* = 0.
    result = maximize_b(state(r, 1.0))
    assert result.b_max == pytest.approx(1.0 + 2.0 ** (2.0 / 3.0) - 2.0 ** (-4.0 / 3.0), abs=1e-12)
    assert result.violates
    assert result.j_max > 0.0


def test_maximize_is_a_local_maximum():
    for r, eta, nbar in [(LN2_HALF, 1.0, 0.0), (0.3, 0.9, 0.0), (1.0, 0.95, 0.2)]:
        s = state(r, eta, nbar)
        result = maximize_b(s)
        assert result.b_max == pytest.approx(b_of_j(s, result.j_max), abs=1e-14)
        assert result.b_max >= b_of_j(s, 0.0)
        for delta in (1e-6, 1e-3, 0.05):
            assert b_of_j(s, result.j_max + delta) <= result.b_max + 1e-12
            if result.j_max - delta >= 0.0:
                assert b_of_j(s, result.j_max - delta) <= result.b_max + 1e-12


def test_maximize_beats_dense_grid():
    for r, eta, nbar in [
        (LN2_HALF, 1.0, 0.0),
        (0.02, 0.7, 0.0),
        (1.0, 0.9, 0.0),
        (0.5, 0.9, 0.3),
        (1.0, 0.95, 0.2),
        (1.2, 0.0, 0.0),
        (0.7, 0.0, 0.5),
    ]:
        s = state(r, eta, nbar)
        result = maximize_b(s)
        dense = max(b_of_j(s, j) for j in np.linspace(0.0, 30.0 * s.sigma_minus_sq, 20001))
        assert result.b_max >= dense - 1e-12


def test_maximize_mixed_state_counterexample():
    # nonseparable, violates the CHSH bound, and yet the fidelity sits below 2/3
    s = state(LN2_HALF, 0.9)
    result = maximize_b(s)
    assert result.violates
    assert fidelity(s).fidelity < 2.0 / 3.0
    assert duan_sum(s) < 1.0


def test_no_violation_without_entanglement():
    rs = np.linspace(0.0, 3.0, 60)
    etas = np.linspace(0.0, 1.0, 60)
    for nbar in (0.0, 0.6):
        for r in rs:
            for eta in etas:
                s = state(float(r), float(eta), nbar)
                if duan_sum(s) >= 1.0:
                    assert maximize_b(s).b_max <= 2.0 + 1e-9


def test_loss_bound_flag():
    assert loss_bound_ok(EprParams(0.0, 1.0))
    assert loss_bound_ok(EprParams(5.0, 1.0))
    assert loss_bound_ok(EprParams(2.0, 0.99))  # 2*0.01*cosh(4) ~ 0.546
    assert not loss_bound_ok(EprParams(2.0, 0.9))  # 2*0.1*cosh(4) ~ 5.46


def test_scaled_chsh_standard_optimum():
    result = scaled_chsh(1.0, 0.0, (0.0, math.pi / 2, math.pi / 4, -math.pi / 4))
    assert result.s_value == pytest.approx(2.0 * RT2, abs=1e-12)


def test_scaled_chsh_visibility_boundary():
    result = optimize_scaled_chsh(1.0 / RT2)
    assert result.s_value == pytest.approx(2.0, abs=1e-12)


def test_scaled_chsh_experimental_anchor():
    result = optimize_scaled_chsh(2.46 / (2.0 * RT2))
    assert result.visibility == pytest.approx(0.8697413408594534, abs=1e-12)
    assert result.s_value == pytest.approx(2.46, abs=1e-12)


def test_scaled_chsh_rejects_anything_but_four_angles():
    for angles in ((0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(ValueError, match="quadruple"):
            scaled_chsh(0.9, 0.0, angles)


def test_scaled_chsh_rejects_bad_visibility():
    for v in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            scaled_chsh(v, 0.0, (0.0, 1.0, 2.0, 3.0))


def test_scaled_chsh_rejects_non_finite_theta():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta"):
            scaled_chsh(0.9, theta, (0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="theta"):
            optimize_scaled_chsh(0.9, theta)


@settings(max_examples=200)
@given(
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.tuples(*[st.floats(-math.pi, math.pi)] * 4),
)
def test_scaled_chsh_tsirelson_scaling(v, theta, angles):
    result = scaled_chsh(v, theta, angles)
    assert abs(result.s_value) <= 2.0 * RT2 * v + 1e-12


def test_scaled_chsh_linear_in_visibility():
    angles = (0.3, 1.9, -0.4, 0.8)
    theta = 0.65
    base = scaled_chsh(1.0, theta, angles).s_value
    for v in np.linspace(0.0, 1.0, 10):
        assert scaled_chsh(float(v), theta, angles).s_value == pytest.approx(v * base, abs=1e-13)


def test_optimize_scaled_chsh_values():
    assert optimize_scaled_chsh(1.0).s_value == pytest.approx(2.0 * RT2, abs=1e-9)
    assert optimize_scaled_chsh(0.0).s_value == pytest.approx(0.0, abs=1e-15)


def test_optimize_scaled_chsh_theta_invariance():
    a = optimize_scaled_chsh(0.83, theta=0.0)
    b = optimize_scaled_chsh(0.83, theta=0.3)
    assert a.s_value == pytest.approx(b.s_value, abs=1e-12)
    assert a.angles != b.angles


def test_optimize_scaled_chsh_beats_random_search():
    rng = np.random.default_rng(11)
    for v, theta in [(1.0, 0.0), (0.7, 0.4), (0.9, -1.2)]:
        best = optimize_scaled_chsh(v, theta).s_value
        assert best == pytest.approx(2.0 * RT2 * v, abs=1e-9)
        for angles in rng.uniform(-math.pi, math.pi, (2000, 4)):
            assert scaled_chsh(v, theta, tuple(angles)).s_value <= best + 1e-12
