"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one printed
pass/fail line per criterion in addition to the pytest verdicts.
"""

import itertools
import math

import numpy as np
import pytest

from eprbell import (
    EprParams,
    OracleConfig,
    b_of_j,
    conditional_variances,
    duan_sum,
    fidelity,
    fig1,
    fig2,
    fig3,
    fig4,
    make_state,
    maximize_b,
    mc_fidelity,
    mu_opt,
    mu_variances,
    nbar_threshold,
    optimize_scaled_chsh,
    scaled_chsh,
    table_to_csv,
)
from eprbell.report import (
    DEFAULT_FIG2_R,
    default_fig1_spec,
    default_fig2_j_grid,
    default_fig3_spec,
    default_fig4_spec,
)
from reference import b_four_term

LN2_HALF = math.log(2.0) / 2.0


def state(r, eta, nbar=0.0):
    return make_state(EprParams(r=r, eta=eta, nbar=nbar))


@pytest.fixture(scope="module")
def fig4_sweep():
    table = fig4(default_fig4_spec())
    idx = {name: i for i, name in enumerate(table.columns)}
    return table, idx


def done(n, text):
    print(f"criterion {n:02d} ({text}): PASS")


def test_criterion_01_fidelity_anchors():
    assert fidelity(state(LN2_HALF, 1.0)).fidelity == pytest.approx(2.0 / 3.0, abs=1e-12)
    for eta in (0.0, 0.5, 1.0):
        assert fidelity(state(0.0, eta)).fidelity == pytest.approx(0.5, abs=1e-12)
    done(1, "exact fidelity anchors")


def test_criterion_02_identity_suite():
    rs = np.linspace(0.0, 3.0, 50)
    etas = np.linspace(0.05, 1.0, 50)
    for nbar in (0.0, 0.3):
        for r in rs:
            for eta in etas:
                s = state(float(r), float(eta), nbar)
                d = duan_sum(s)
                assert abs(fidelity(s).fidelity - 1.0 / (1.0 + d)) <= 1e-12
                assert abs(d - s.sigma_minus_sq) <= 1e-12
                cx, cp = conditional_variances(s)
                dx, dp = mu_variances(s, mu_opt(s))
                assert abs(cx - dx) <= 1e-12
                assert abs(cp - dp) <= 1e-12
                if nbar == 0.0:
                    closed = eta * math.sinh(2 * r) / ((1 - eta) + eta * math.cosh(2 * r))
                    assert abs(mu_opt(s) - closed) <= 1e-12
    done(2, "identity suite on 50x50 grid")


def test_criterion_03_separability_boundary():
    pairs = list(itertools.product((0.1, 0.25, 0.5, 1.0, 2.0), (0.1, 0.35, 0.6, 0.85)))
    assert len(pairs) == 20
    for r, eta in pairs:
        s = state(r, eta, nbar_threshold(r, eta))
        assert duan_sum(s) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(s).fidelity == pytest.approx(0.5, abs=1e-12)
    done(3, "thermal threshold sits on the separability boundary")


def test_criterion_04_heisenberg_product_floor():
    rs = np.linspace(10.0 / 1000.0, 10.0, 1000)
    for eta in (0.3, 0.5):
        products = []
        for r in rs:
            s = state(float(r), eta)
            dx, dp = mu_variances(s, mu_opt(s))
            products.append(dx * dp)
        assert min(products) >= 1.0 / 16.0 - 1e-12
    below = []
    for r in rs:
        s = state(float(r), 0.8)
        dx, dp = mu_variances(s, mu_opt(s))
        below.append(dx * dp < 1.0 / 16.0)
    assert any(below)
    done(4, "product floor holds for eta <= 1/2, breaks above")


def test_criterion_05_bell_closed_form_equivalence():
    rng = np.random.default_rng(515151)
    for _ in range(10_000):
        s = state(
            float(rng.uniform(0.0, 3.0)),
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        j = float(rng.uniform(0.0, 10.0))
        assert abs(b_of_j(s, j) - b_four_term(s, j)) <= 1e-12
    done(5, "closed form equals the four-point combination")


def test_criterion_06_lossless_violation():
    result = maximize_b(state(0.0, 1.0))
    assert result.j_max == 0.0
    assert result.b_max == pytest.approx(2.0, abs=1e-12)
    for r in (0.01, 0.1, LN2_HALF, 1.0, 2.0):
        assert maximize_b(state(r, 1.0)).b_max > 2.0
    done(6, "any lossless squeezing violates the CHSH bound")


def test_criterion_07_mixed_state_counterexample():
    s = state(LN2_HALF, 0.9)
    f = fidelity(s).fidelity
    assert f == pytest.approx(0.6451612903225806, abs=1e-12)
    assert f < 2.0 / 3.0
    assert maximize_b(s).b_max > 2.0
    done(7, "violation with fidelity below two thirds")


def test_criterion_08_no_violation_below_classical_bound(fig4_sweep):
    table, idx = fig4_sweep
    low_fidelity_rows = [row for row in table.rows if row[idx["fidelity"]] <= 0.5]
    assert low_fidelity_rows  # the r = 0 rows qualify
    for row in low_fidelity_rows:
        assert row[idx["b_max"]] <= 2.0 + 1e-9
    done(8, "no CHSH violation at or below the classical fidelity bound")


def test_criterion_09_violation_windows(fig4_sweep):
    table, idx = fig4_sweep
    v90 = [row for row in table.rows if row[idx["eta"]] == 0.9 and row[idx["violates"]]]
    assert v90
    fs = [row[idx["fidelity"]] for row in v90]
    assert all(f < 2.0 / 3.0 for f in fs)
    assert 0.64 <= max(fs) < 2.0 / 3.0  # window edge near 0.66, inside grid resolution
    v70 = [row for row in table.rows if row[idx["eta"]] == 0.7 and row[idx["violates"]]]
    assert v70
    assert all(row[idx["r"]] < 0.05 for row in v70)
    done(9, "violation windows at eta 0.90 and 0.70")


def test_criterion_10_monte_carlo_agreement():
    rng = np.random.default_rng(20260810)
    estimates = []
    for i in range(10):
        params = EprParams(
            r=float(rng.uniform(0.0, 2.0)),
            eta=float(rng.uniform(0.3, 1.0)),
            nbar=float(rng.uniform(0.0, 0.5)),
        )
        s = make_state(params)
        est = mc_fidelity(s, OracleConfig(samples=1_000_000, seed=2000 + i))
        assert abs(est.fidelity_hat - fidelity(s).fidelity) <= 3.0 * est.std_error
        estimates.append((params, est))
    params0, est0 = estimates[0]
    repeat = mc_fidelity(make_state(params0), OracleConfig(samples=1_000_000, seed=2000))
    assert repeat == est0
    done(10, "Monte-Carlo fidelity within 3 standard errors, reproducible")


def test_criterion_11_scaled_chsh():
    rt2 = math.sqrt(2.0)
    assert optimize_scaled_chsh(1.0).s_value == pytest.approx(2.0 * rt2, abs=1e-9)
    assert optimize_scaled_chsh(2.46 / (2.0 * rt2)).s_value == pytest.approx(2.46, abs=1e-9)
    angles = optimize_scaled_chsh(1.0).angles
    for v in np.linspace(0.0, 1.0, 10):
        got = scaled_chsh(float(v), 0.0, angles).s_value
        assert got == pytest.approx(float(v) * 2.0 * rt2, abs=1e-12)
    done(11, "scaled CHSH optimum and linearity")


def test_criterion_12_deterministic_outputs(fig4_sweep):
    fig4_first, _ = fig4_sweep
    outputs = {
        "fig1": table_to_csv(fig1(default_fig1_spec())),
        "fig2": table_to_csv(fig2(DEFAULT_FIG2_R, 0.9, default_fig2_j_grid())),
        "fig3": table_to_csv(fig3(default_fig3_spec())),
        "fig4": table_to_csv(fig4_first),
    }
    # repeated runs, same process
    assert table_to_csv(fig1(default_fig1_spec())) == outputs["fig1"]
    assert table_to_csv(fig2(DEFAULT_FIG2_R, 0.9, default_fig2_j_grid())) == outputs["fig2"]
    assert table_to_csv(fig3(default_fig3_spec())) == outputs["fig3"]
    assert table_to_csv(fig4(default_fig4_spec())) == outputs["fig4"]
    done(12, "figure datasets byte-identical across runs on one machine")
