import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eprbell
from eprbell import (
    EprParams, GaussianEprState, OracleConfig, SweepSpec, Table, fidelity, make_state, maximize_b, mu_opt, report,
)
from eprbell.epr_model import _sigma_pair
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


_STATE = GaussianEprState(EprParams(0.5, 0.9, 0.1))
# Each numeric argument of a public entry, as a call that puts one value there; a grid,
# angle or cell slot puts it after valid elements.
NUMBER_SLOTS = {
    "EprParams.r": lambda v: EprParams(v, 0.9),
    "EprParams.eta": lambda v: EprParams(0.5, v),
    "EprParams.nbar": lambda v: EprParams(0.5, 0.9, v),
    "nbar_threshold.r": lambda v: eprbell.nbar_threshold(v, 0.9),
    "nbar_threshold.eta": lambda v: eprbell.nbar_threshold(0.5, v),
    "mu_variances.mu": lambda v: eprbell.mu_variances(_STATE, v),
    "classify.mu": lambda v: eprbell.classify(_STATE, v),
    "b_of_j.j": lambda v: eprbell.b_of_j(_STATE, v),
    "scaled_chsh.v": lambda v: eprbell.scaled_chsh(v, 0.0, (0.0, 1.0, 2.0, 3.0)),
    "scaled_chsh.theta": lambda v: eprbell.scaled_chsh(0.9, v, (0.0, 1.0, 2.0, 3.0)),
    "scaled_chsh.angle": lambda v: eprbell.scaled_chsh(0.9, 0.0, (0.0, 1.0, 2.0, v)),
    "optimize_scaled_chsh.v": lambda v: eprbell.optimize_scaled_chsh(v),
    "optimize_scaled_chsh.theta": lambda v: eprbell.optimize_scaled_chsh(0.9, v),
    "OracleConfig.samples": lambda v: OracleConfig(v, 1),
    "OracleConfig.seed": lambda v: OracleConfig(10, v),
    "SweepSpec.r_grid": lambda v: SweepSpec((0.1, v)),
    "SweepSpec.eta_list": lambda v: SweepSpec((0.1,), (0.9, v)),
    "SweepSpec.nbar": lambda v: SweepSpec((0.1,), nbar=v),
    "SweepSpec.from_range.r_min": lambda v: SweepSpec.from_range(v, 1.0, 3),
    "SweepSpec.from_range.r_max": lambda v: SweepSpec.from_range(0.0, v, 3),
    "SweepSpec.from_range.r_count": lambda v: SweepSpec.from_range(0.0, 1.0, v),
    "default_fig1_spec.eta_list": lambda v: report.default_fig1_spec((0.9, v)),
    "default_fig1_spec.nbar": lambda v: report.default_fig1_spec(nbar=v),
    "default_fig3_spec.eta_list": lambda v: report.default_fig3_spec((0.9, v)),
    "default_fig3_spec.nbar": lambda v: report.default_fig3_spec(nbar=v),
    "default_fig4_spec.eta_list": lambda v: report.default_fig4_spec((0.9, v)),
    "default_fig4_spec.nbar": lambda v: report.default_fig4_spec(nbar=v),
    "fig2.r_list": lambda v: report.fig2((0.1, v), 0.9, (0.0, 1.0)),
    "fig2.eta": lambda v: report.fig2((0.1,), v, (0.0, 1.0)),
    "fig2.j_grid": lambda v: report.fig2((0.1,), 0.9, (0.0, v)),
    "fig2.nbar": lambda v: report.fig2((0.1,), 0.9, (0.0, 1.0), v),
    "fig2_stacked.r_list": lambda v: report.fig2_stacked((0.1, v), (0.9,), (0.0, 1.0)),
    "fig2_stacked.eta_list": lambda v: report.fig2_stacked((0.1,), (0.9, v), (0.0, 1.0)),
    "fig2_stacked.j_grid": lambda v: report.fig2_stacked((0.1,), (0.9,), (0.0, v)),
    "fig2_stacked.nbar": lambda v: report.fig2_stacked((0.1,), (0.9,), (0.0, 1.0), v),
    "column_text.values": lambda v: report.column_text("a", (1.0, v)),
    "column_text.values-json": lambda v: report.column_text("a", (1.0, v), json_form=True),
    "table_to_csv.cell": lambda v: eprbell.table_to_csv(Table(("a",), ((1.0,), (v,)))),
    "table_to_jsonl.cell": lambda v: eprbell.table_to_jsonl(Table(("a",), ((1.0,), (v,)))),
}
# Public callables with no numeric argument of their own: they take a state, params,
# spec, config or text, whose numbers the slots above cover.
NO_NUMBER_ARGUMENT = {
    "GaussianEprState", "make_state", "fidelity", "duan_sum", "conditional_variances", "mu_opt",
    "maximize_b", "loss_bound_ok", "mc_fidelity", "fig1", "fig3", "fig4", "default_fig2_j_grid",
    "table_from_csv", "table_from_jsonl",
}
# Result records store what they are given.
NOT_VALIDATING = {"BellResult", "CriteriaReport", "FidelityResult", "OracleEstimate", "ScaledChsh", "Table"}


def test_number_slots_cover_every_public_callable():
    public = {name for name in eprbell.__all__ if callable(getattr(eprbell, name))}
    public |= {name for name in report.__all__ if callable(getattr(report, name))}
    assert public == {slot.split(".")[0] for slot in NUMBER_SLOTS} | NO_NUMBER_ARGUMENT | NOT_VALIDATING


# Each value a slot may take, by test id.  The first five are not finite real numbers
# (nor counts), so every slot rejects them, but for the two slots in VALID_NON_NUMBERS.
ANY_NUMBER = {
    "None": None, "str": "x", "numeric-str": "1.5", "huge-int": HUGE, "True": True,
    "nan": math.nan, "inf": math.inf, "subnormal": 1e-320, "minus-zero": -0.0,
}
NOT_A_NUMBER = ("None", "str", "numeric-str", "huge-int", "True")
# classify's mu=None is the optimal-gain default; a sample count has no upper bound.
VALID_NON_NUMBERS = {("classify.mu", "None"), ("OracleConfig.samples", "huge-int")}


@pytest.mark.parametrize("value", ANY_NUMBER)
@pytest.mark.parametrize("slot", NUMBER_SLOTS)
def test_public_entries_return_or_raise_value_error_for_any_number(slot, value):
    """Each numeric argument of each public entry, given each value in turn, gives a
    result or a ValueError, never another exception or a warning (pytest makes
    RuntimeWarning an error); a bool, text, None or an int beyond the float range
    always gives the ValueError."""
    try:
        NUMBER_SLOTS[slot](ANY_NUMBER[value])
    except ValueError:
        return
    assert value not in NOT_A_NUMBER or (slot, value) in VALID_NON_NUMBERS, f"{slot} took {value}"


@pytest.mark.parametrize("value", [None, 0.5, "0.5", 3], ids=["None", "float", "str", "int"])
@pytest.mark.parametrize("call", [
    lambda v: SweepSpec(v),
    lambda v: SweepSpec((0.1,), v),
    lambda v: eprbell.scaled_chsh(0.9, 0.0, v),
    lambda v: report.fig2(v, 0.9, (0.0, 1.0)),
    lambda v: report.fig2((0.1,), 0.9, v),
    lambda v: report.fig2_stacked((0.1,), v, (0.0, 1.0)),
], ids=["SweepSpec.r_grid", "SweepSpec.eta_list", "scaled_chsh.angles", "fig2.r_list", "fig2.j_grid",
        "fig2_stacked.eta_list"])
def test_a_scalar_for_a_sequence_raises_value_error(call, value):
    with pytest.raises(ValueError, match="must be a sequence of real numbers"):
        call(value)


def _nested(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("call, shown", [
    (lambda: EprParams(HUGE, 0.9), "<an integer of 401 digits>"),
    (lambda: eprbell.b_of_j(_STATE, HUGE), "<an integer of 401 digits>"),
    (lambda: SweepSpec.from_range(0.0, 1.0, HUGE), "<an integer of 401 digits>"),
    (lambda: OracleConfig(-HUGE, 1), "<an integer of 401 digits>"),
    (lambda: OracleConfig(10, 10**20), "<an integer of 21 digits>"),
    (lambda: SweepSpec((0.1,), (0.9,), [HUGE]), "got [1" + "0" * 58 + "... <403 characters>"),
    (lambda: SweepSpec((0.1,), (0.9,), "x" * 1000), "got '" + "x" * 59 + "... <1002 characters>"),
    (lambda: SweepSpec((0.1,), (0.9,), [10**5000]), "nbar must be a real number, got <a 'list' value that repr"),
    (lambda: OracleConfig(10, _nested(10**5)), "seed must be an integer >= 0, got <a 'list' value that repr"),
], ids=["EprParams", "b_of_j", "from_range", "OracleConfig.samples", "OracleConfig.seed", "SweepSpec.nbar-list",
        "SweepSpec.nbar-text", "SweepSpec.nbar-unprintable", "OracleConfig.seed-too-deep"])
def test_any_value_gives_a_short_message(call, shown):
    # An int of more than 20 digits is named by its digit count; any other long repr is cut to its head and length,
    # and a value whose repr raises (an int past the 4300-digit text limit inside, or too deep) is named by its type.
    with pytest.raises(ValueError) as excinfo:
        call()
    assert shown in str(excinfo.value) and len(str(excinfo.value)) < 200


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
    # nor through the named-tuple ways in, _make and _replace; those take new knobs only
    with pytest.raises(TypeError):
        GaussianEprState._make((EprParams(0.0, 1.0), 2.0, 0.5))
    with pytest.raises(ValueError, match="derived from params"):
        make_state(EprParams(0.0, 1.0))._replace(sigma_minus_sq=0.5)
    other = EprParams(LN2_HALF, 1.0)
    moved = make_state(EprParams(0.0, 1.0))._replace(params=other)
    assert moved == make_state(other) == GaussianEprState._make((other,))


# One instance of each public record.
RECORDS = {
    "EprParams": lambda: EprParams(0.3, 0.9, 0.1),
    "GaussianEprState": lambda: _STATE,
    "BellResult": lambda: maximize_b(_STATE),
    "ScaledChsh": lambda: eprbell.optimize_scaled_chsh(0.9, theta=0.2),
    "CriteriaReport": lambda: eprbell.classify(_STATE),
    "FidelityResult": lambda: fidelity(_STATE),
    "SweepSpec": lambda: SweepSpec((0.1, 0.2), (0.9, 0.5), 0.3),
    "Table": lambda: report.fig1(SweepSpec((0.1, 0.2), (0.9,))),
    "OracleConfig": lambda: OracleConfig(1000, 7),
    "OracleEstimate": lambda: eprbell.mc_fidelity(_STATE, OracleConfig(1000, 7)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_pickle_and_copy(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is type(record) and copied == record


@pytest.mark.parametrize("record, change", [
    (EprParams(0.3, 0.9), {"eta": 5.0}),
    (EprParams(0.3, 0.9), {"r": -1.0}),
    (EprParams(0.3, 0.9), {"nbar": "1"}),
    (SweepSpec((0.1,)), {"r_grid": ()}),
    (SweepSpec((0.1,)), {"eta_list": (1.5,)}),
    (SweepSpec((0.1,)), {"nbar": -1.0}),
    (OracleConfig(10, 1), {"samples": 1}),
    (OracleConfig(10, 1), {"seed": 2**64}),
], ids=["EprParams.eta", "EprParams.r", "EprParams.nbar", "SweepSpec.r_grid", "SweepSpec.eta_list", "SweepSpec.nbar",
        "OracleConfig.samples", "OracleConfig.seed"])
def test_replace_and_make_validate_again(record, change):
    with pytest.raises(ValueError):
        record._replace(**change)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **change}.values())


def test_replace_converts_like_the_constructor():
    assert EprParams(0.3, 0.9)._replace(eta=1) == EprParams(0.3, 1.0)
    assert type(EprParams(0.3, 0.9)._replace(eta=1).eta) is float
    assert SweepSpec((0.1,))._replace(r_grid=[0, 1]).r_grid == (0.0, 1.0)


@given(params_st)
def test_state_derives_its_variance_pair_from_its_knobs(params):
    s = GaussianEprState(params)
    assert (s.sigma_plus_sq, s.sigma_minus_sq) == _sigma_pair(params.r, params.eta, params.nbar)
    assert make_state(params) == s
