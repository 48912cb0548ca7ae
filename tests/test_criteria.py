import json
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprbell import (
    CRITERIA_CSV_COLUMNS,
    CriteriaReport,
    EprParams,
    classify,
    conditional_variances,
    duan_sum,
    fidelity,
    make_state,
    maximize_b,
    mu_opt,
    mu_variances,
    nbar_threshold,
)
from eprbell.cli import main
from reference import exact, second_moments

LN2_HALF = math.log(2.0) / 2.0

params_st = st.builds(
    EprParams,
    r=st.floats(0.0, 3.0),
    eta=st.floats(0.01, 1.0),
    nbar=st.floats(0.0, 2.0),
)


def state(r, eta, nbar=0.0):
    return make_state(EprParams(r=r, eta=eta, nbar=nbar))


def test_duan_sum_vacuum_boundary():
    s = state(0.0, 1.0)
    assert duan_sum(s) == 1.0
    assert not classify(s).duan_nonseparable  # strict inequality at the boundary


def test_duan_sum_three_db():
    assert duan_sum(state(LN2_HALF, 1.0)) == pytest.approx(0.5, abs=1e-15)


def test_duan_sum_equals_sigma_minus_sq():
    for r in np.linspace(0.0, 3.0, 20):
        for eta in np.linspace(0.05, 1.0, 20):
            s = state(float(r), float(eta), 0.3)
            assert duan_sum(s) == pytest.approx(s.sigma_minus_sq, abs=1e-12)


def test_duan_sum_at_thermal_threshold_is_one():
    for r, eta in [(0.3, 0.4), (1.0, 0.5), (2.0, 0.9), (0.07, 0.2)]:
        nbar = nbar_threshold(r, eta)
        assert duan_sum(state(r, eta, nbar)) == pytest.approx(1.0, abs=1e-12)


def test_nbar_threshold_values():
    assert nbar_threshold(0.0, 0.5) == 0.0
    assert nbar_threshold(0.0, 1.0) == 0.0  # no squeezing: never entangled
    assert nbar_threshold(1.5, 1.0) == math.inf
    assert nbar_threshold(1.0, 0.5) == pytest.approx(0.43233235838169365, abs=1e-12)
    assert nbar_threshold(1.0, 0.5) == pytest.approx(0.5 * (1 - math.exp(-2)) / 1.0, rel=1e-15)


@pytest.mark.parametrize("eta", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("r", [1e-12, 1e-8, 1e-4, 0.5, 354.8])
def test_nbar_threshold_matches_mpmath(r, eta):
    ref = exact(r, eta, 0.0).nbar_threshold
    assert abs(nbar_threshold(r, eta) - ref) <= 4.5e-16 * ref


def test_nbar_threshold_validation():
    with pytest.raises(ValueError, match="r"):
        nbar_threshold(-1.0, 0.5)
    with pytest.raises(ValueError, match="eta"):
        nbar_threshold(1.0, 1.5)


def test_mu_variances_mu_zero_is_single_mode_variance():
    s = state(0.8, 0.7, 0.1)
    m = second_moments(s)
    dx, dp = mu_variances(s, 0.0)
    assert dx == pytest.approx(m.var_x, rel=1e-15)
    assert dp == pytest.approx(m.var_p, rel=1e-15)


def test_mu_variances_mu_one_matches_duan_sum():
    for r, eta, nbar in [(0.0, 1.0, 0.0), (LN2_HALF, 1.0, 0.0), (1.2, 0.6, 0.5)]:
        s = state(r, eta, nbar)
        dx, dp = mu_variances(s, 1.0)
        assert dx == dp
        assert dx + dp == pytest.approx(duan_sum(s), abs=1e-15)
        assert dx == pytest.approx(s.sigma_minus_sq / 2.0, rel=1e-14)


def test_mu_variances_vacuum():
    s = state(0.0, 1.0)
    # mu = 0: the bare vacuum variances, product exactly on the 1/16 floor
    dx0, dp0 = mu_variances(s, 0.0)
    assert (dx0, dp0) == (0.25, 0.25)
    assert dx0 * dp0 == 1.0 / 16.0
    # mu = 1: the summed-quadrature variances
    dx1, dp1 = mu_variances(s, 1.0)
    assert (dx1, dp1) == (0.5, 0.5)


@settings(max_examples=80)
@given(params_st, st.floats(-2.0, 2.0))
def test_mu_variances_positive_and_match_moment_form(params, mu):
    s = make_state(params)
    m = second_moments(s)
    dx, dp = mu_variances(s, mu)
    assert dx > 0.0 and dp > 0.0
    naive = m.var_x * (1.0 + mu * mu) - 2.0 * mu * m.cov_xx
    assert dx == pytest.approx(naive, rel=1e-12, abs=1e-13)


def test_mu_variances_rejects_non_finite_mu():
    with pytest.raises(ValueError, match="mu"):
        mu_variances(state(0.5, 0.9), math.nan)


def test_classify_rejects_a_bool_mu():
    # A gain is a real number; a bool is not taken as 1.0.
    with pytest.raises(ValueError, match="mu must be a real number, got True"):
        classify(state(0.5, 0.9), mu=True)
    mu = classify(state(0.5, 0.9), mu=1).mu
    assert mu == 1.0 and type(mu) is float


def test_conditional_variances_vacuum():
    assert conditional_variances(state(0.0, 1.0)) == (0.25, 0.25)


def test_conditional_variances_lossless_closed_form():
    # 1/(4 cosh 2r) per sector; product dips below the 1/16 floor for any r > 0
    for r in (0.1, LN2_HALF, 1.0, 2.5, 5.0, 10.0, 15.0):
        cx, cp = conditional_variances(state(r, 1.0))
        assert cx == pytest.approx(1.0 / (4.0 * math.cosh(2 * r)), rel=1e-12)
        assert cx == cp
        assert cx * cp < 1.0 / 16.0


def test_conditional_variances_equal_optimal_mu_variances():
    for r in np.linspace(0.0, 3.0, 25):
        for eta in np.linspace(0.05, 1.0, 25):
            s = state(float(r), float(eta))
            cx, cp = conditional_variances(s)
            dx, dp = mu_variances(s, mu_opt(s))
            assert cx == pytest.approx(dx, abs=1e-12)
            assert cp == pytest.approx(dp, abs=1e-12)


@pytest.mark.parametrize("nbar", [0.0, 1.0, 1e10, math.sqrt(sys.float_info.max) / 2.0])
@pytest.mark.parametrize("eta", [0.0, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("r", [0.0, 1e-8, 0.5, 20.0, 354.0, 354.89])
def test_conditional_variances_match_mpmath(r, eta, nbar):
    # sp*sm overflowed: r = 354, eta = 0.5, nbar = 1e10 gave inf, not 5000000000.25
    cx, cp = conditional_variances(state(r, eta, nbar))
    ref = float(exact(r, eta, nbar).cond)
    assert cx == cp
    assert abs(cx - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("nbar", [0.0, 1.0, math.sqrt(sys.float_info.max) / 2.0])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
@pytest.mark.parametrize("r", [0.0, 354.0, math.log(sys.float_info.max) / 2.0])
def test_classify_is_finite_on_the_corners_of_the_domain(r, eta, nbar):
    rep = classify(state(r, eta, nbar))
    for name in rep._fields:
        if name != "nbar_threshold":
            assert math.isfinite(getattr(rep, name)), name
    assert math.isfinite(rep.nbar_threshold) or eta == 1.0


R_MAX = math.log(sys.float_info.max) / 2.0
NBAR_MAX = math.sqrt(sys.float_info.max) / 2.0
DBL_MIN = sys.float_info.min


def log_uniform(low_exponent, high):
    """Floats in [10**low_exponent, high], uniform in their logarithm."""
    return st.floats(low_exponent, math.log10(high)).map(lambda e: min(10.0**e, high))


domain_r = st.one_of(st.sampled_from([0.0, R_MAX]), log_uniform(-300, R_MAX))
domain_eta = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 1.0]),
    st.floats(0.0, 1.0),
    log_uniform(-300, 1.0),
    log_uniform(-16, 1.0).map(lambda gap: 1.0 - gap),
)
domain_nbar = st.one_of(st.sampled_from([0.0, NBAR_MAX]), log_uniform(-300, NBAR_MAX))


def within_ulps(got, want, ulps):
    """|got - want| <= ulps units in the last place of want.  Below DBL_MIN
    digits are lost to underflow, so there an absolute DBL_MIN is allowed."""
    import mpmath

    if mpmath.isinf(want):
        return got == want
    error = abs(mpmath.mpf(got) - want)
    return error <= ulps * math.ulp(float(want)) or (abs(want) < DBL_MIN and error <= DBL_MIN)


@settings(max_examples=500)
@given(domain_r, domain_eta, domain_nbar)
def test_outputs_match_the_mpmath_reference_over_the_whole_domain(r, eta, nbar):
    import mpmath

    s = state(r, eta, nbar)
    assert 0 < s.sigma_minus_sq <= s.sigma_plus_sq < math.inf
    rep, fid, bell = classify(s), fidelity(s), maximize_b(s)
    for name in rep._fields:
        assert math.isfinite(getattr(rep, name)) or (name == "nbar_threshold" and eta == 1.0)
    assert (rep.r, rep.eta, rep.nbar) == (r, eta, nbar)
    with mpmath.workdps(50):
        ref = exact(r, eta, nbar)
        gg_sum = 2 * ref.cond
        # Measured worst cases over 61701 corner and log-uniform states (numpy
        # 2.4 on x86-64), in ulp: duan_sum 1.54, nbar_threshold 1.84, cond 2.35,
        # fidelity 3.04, mu 3.09, j_max 3.84, gg_product_mu1 4.0, gg_product 5.0,
        # b_max 5.65.  The products square an error of up to 2.35 ulp.
        fields = {  # name: (value, its reference, ulp bound)
            "duan_sum": (rep.duan_sum, ref.sm, 4),
            "mu": (rep.mu, ref.mu, 4),
            "dx_mu_sq": (rep.dx_mu_sq, ref.cond, 4),
            "dp_mu_sq": (rep.dp_mu_sq, ref.cond, 4),
            "cond_var_x": (rep.cond_var_x, ref.cond, 4),
            "cond_var_p": (rep.cond_var_p, ref.cond, 4),
            "gg_product": (rep.gg_product, ref.cond**2, 8),
            "nbar_threshold": (rep.nbar_threshold, ref.nbar_threshold, 4),
            "gg_product_mu1": (rep.gg_product_mu1, ref.sm**2 / 4, 8),
            "gg_sum_mu1": (rep.gg_sum_mu1, ref.sm, 4),
            "fidelity": (fid.fidelity, ref.fidelity, 4),
            "j_max": (bell.j_max, ref.j_star, 8),
            "b_max": (bell.b_max, ref.b_star, 8),
        }
        for name, (got, want, ulps) in fields.items():
            assert within_ulps(got, want, ulps), (name, got, float(want))
        # Each flag is (value op threshold).  It must agree with the reference
        # wherever the reference is farther from the threshold than the bound
        # on the value; (1 + mu^2)/2 carries mu's 4 ulp plus one rounding.
        lt, gt = operator.lt, operator.gt
        flags = {  # name: (flag, op, value's reference, its ulp bound, threshold, threshold's ulp bound)
            "duan_nonseparable": (rep.duan_nonseparable, lt, ref.sm, 4, 1, 0),
            "gg_hi_satisfied": (rep.gg_hi_satisfied, lt, ref.cond**2, 8, 1 / 16, 0),
            "gg_sum_satisfied": (rep.gg_sum_satisfied, lt, gg_sum, 4, 1 / 2, 0),
            "simon_mu_nonseparable": (rep.simon_mu_nonseparable, lt, gg_sum, 4, (1 + ref.mu**2) / 2, 5),
            "gg_hi_satisfied_mu1": (rep.gg_hi_satisfied_mu1, lt, ref.sm**2 / 4, 8, 1 / 16, 0),
            "gg_sum_satisfied_mu1": (rep.gg_sum_satisfied_mu1, lt, ref.sm, 4, 1 / 2, 0),
            "beats_classical": (fid.beats_classical, gt, ref.fidelity, 4, 1 / 2, 0),
            "beats_two_thirds": (fid.beats_two_thirds, gt, ref.fidelity, 4, 2 / 3, 0),
            "violates": (bell.violates, gt, ref.b_star, 8, 2, 0),
        }
        for name, (flag, op, want, ulps, threshold, threshold_ulps) in flags.items():
            margin = ulps * math.ulp(float(want)) + threshold_ulps * math.ulp(float(threshold))
            assert abs(want - threshold) <= margin or flag == op(want, threshold), name


def test_default_gain_predicates_at_large_squeezing(capsys):
    # [sp(1-mu)^2 + sm(1+mu)^2]/8 with mu = 1 + 2^-52 gave dx_mu_sq = 58672658526.79,
    # mu above 1, and all three default-gain predicates false
    text = criteria_cli(capsys, 49.480993995997331, 1.0, 0.0)
    row = dict(zip(CRITERIA_CSV_COLUMNS, text.strip().splitlines()[1].split(",")))
    assert row["mu"] == "1"
    assert row["dx_mu_sq"] == row["dp_mu_sq"] == row["cond_var_x"] == "5.2519998043254715e-44"
    assert row["gg_hi_satisfied"] == row["gg_sum_satisfied"] == row["simon_mu_nonseparable"] == "true"


def test_default_gain_predicates_follow_the_conditional_variance_up_to_the_r_edge():
    flips = []
    for r in np.linspace(0.0, 354.89, 300):
        for eta in (1.0, 0.99, 0.9, 0.5, 0.1):
            s = state(float(r), eta)
            rep, (cond, _) = classify(s), conditional_variances(s)
            assert 0.0 <= rep.mu <= 1.0
            if (rep.gg_hi_satisfied, rep.gg_sum_satisfied) != (cond * cond < 1.0 / 16.0, 2.0 * cond < 0.5):
                flips.append((float(r), eta))
    assert flips == []


def test_classify_three_db_lossless():
    rep = classify(state(LN2_HALF, 1.0))
    assert rep.duan_sum == pytest.approx(0.5, abs=1e-15)
    assert rep.duan_nonseparable
    assert rep.mu == pytest.approx(0.6, abs=1e-15)
    assert rep.dx_mu_sq == pytest.approx(0.2, abs=1e-14)
    assert rep.cond_var_x == pytest.approx(0.2, abs=1e-14)
    assert rep.gg_product == pytest.approx(0.04, abs=1e-14)
    assert rep.gg_hi_satisfied
    assert rep.gg_sum_satisfied
    assert rep.simon_mu_nonseparable
    assert rep.nbar_threshold == math.inf
    # at unit gain the sum sits exactly on the 1/2 boundary: not satisfied
    assert rep.gg_sum_mu1 == pytest.approx(0.5, abs=1e-15)
    assert not rep.gg_sum_satisfied_mu1
    assert not rep.gg_hi_satisfied_mu1


def test_classify_mu_override_recorded():
    rep = classify(state(LN2_HALF, 1.0), mu=1.0)
    assert rep.mu == 1.0
    assert rep.dx_mu_sq == pytest.approx(0.25, abs=1e-15)
    assert rep.cond_var_x == pytest.approx(0.2, abs=1e-14)  # still optimal inference


def test_gg_hi_needs_transmission_above_half():
    for r in np.linspace(0.01, 10.0, 200):
        assert not classify(state(float(r), 0.3)).gg_hi_satisfied
        # eta = 1/2 pins the product exactly on the 1/16 floor for every r
        assert classify(state(float(r), 0.5)).gg_product == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert any(
        classify(state(float(r), 0.8)).gg_hi_satisfied for r in np.linspace(0.01, 10.0, 200)
    )


def test_mu_criterion_family_detects_all_squeezed_states():
    # the mu = 1 member of the weighted-sum criterion family is the plain sum
    # criterion, which detects every lossy squeezed state at nbar = 0
    for r in np.linspace(0.01, 6.0, 40):
        for eta in np.linspace(0.02, 1.0, 40):
            assert classify(state(float(r), float(eta))).duan_nonseparable


def test_simon_mu_nonseparable_at_optimal_gain():
    # the mu_opt slice detects throughout the moderate-loss region...
    for r in np.linspace(0.1, 6.0, 30):
        for eta in np.linspace(0.3, 1.0, 30):
            assert classify(state(float(r), float(eta))).simon_mu_nonseparable
    # ...but loses power against barely-nonseparable high-loss states, where
    # only the mu = 1 member still detects
    rep = classify(state(0.01, 0.02))
    assert not rep.simon_mu_nonseparable
    assert rep.duan_nonseparable


@settings(max_examples=100)
@given(params_st)
def test_classify_predicate_consistency(params):
    rep = classify(make_state(params))
    assert rep.duan_nonseparable == (rep.duan_sum < 1.0)
    assert rep.gg_hi_satisfied == (rep.gg_product < 1.0 / 16.0)
    assert rep.cond_var_x == rep.cond_var_p
    if rep.gg_hi_satisfied:
        assert rep.simon_mu_nonseparable
    if rep.gg_sum_satisfied_mu1:
        assert rep.duan_nonseparable


def test_duan_fidelity_boundary_coincidence():
    for r in np.linspace(0.0, 3.0, 50):
        for eta in np.linspace(0.05, 1.0, 50):
            s = state(float(r), float(eta), 0.4)
            assert (duan_sum(s) < 1.0) == (fidelity(s).fidelity > 0.5)


def test_duan_monotonicity():
    etas = 0.75
    sums_r = [duan_sum(state(float(r), etas, 0.2)) for r in np.linspace(0, 4, 40)]
    assert all(a >= b for a, b in zip(sums_r, sums_r[1:]))
    sums_n = [duan_sum(state(0.8, etas, float(n))) for n in np.linspace(0, 3, 40)]
    assert all(a <= b for a, b in zip(sums_n, sums_n[1:]))


def criteria_cli(capsys, r, eta, nbar, *flags):
    # reports are serialized by the CLI only, through the report.Table writers
    code = main(["criteria", "--r", repr(r), "--eta", repr(eta), "--nbar", repr(nbar), *flags])
    assert code == 0
    return capsys.readouterr().out


def test_csv_row_layout(capsys):
    rep = classify(state(0.4, 0.9, 0.1))
    text = criteria_cli(capsys, 0.4, 0.9, 0.1)
    header, row = text.strip().split("\n")
    assert header == ",".join(CRITERIA_CSV_COLUMNS)
    cells = row.split(",")
    assert len(cells) == len(CRITERIA_CSV_COLUMNS)
    assert float(cells[0]) == 0.4
    assert cells[CRITERIA_CSV_COLUMNS.index("duan_nonseparable")] in ("true", "false")
    for name, cell in zip(CRITERIA_CSV_COLUMNS, cells):
        value = getattr(rep, name)
        if isinstance(value, bool):
            assert cell == str(value).lower()
        else:
            assert cell == format(value, ".17g")


def test_csv_unbounded_threshold_renders_inf(capsys):
    row = criteria_cli(capsys, 0.4, 1.0, 0.0).strip().splitlines()[1].split(",")
    assert row[CRITERIA_CSV_COLUMNS.index("nbar_threshold")] == "inf"


def test_json_round_trip(capsys):
    rep = classify(state(0.4, 1.0))
    obj = json.loads(criteria_cli(capsys, 0.4, 1.0, 0.0, "--json"))
    assert list(obj) == list(CriteriaReport._fields)
    assert obj["nbar_threshold"] == "inf"
    assert obj["duan_nonseparable"] is True
    assert obj["duan_sum"] == rep.duan_sum
    assert obj["gg_sum_mu1"] == rep.gg_sum_mu1
