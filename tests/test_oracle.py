import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from eprbell import (
    EprParams,
    OracleConfig,
    duan_sum,
    fidelity,
    make_state,
    mc_fidelity,
    sample_epr,
)
from eprbell.oracle import BLOCK

LN2_HALF = math.log(2.0) / 2.0


def state(r, eta, nbar=0.0):
    return make_state(EprParams(r=r, eta=eta, nbar=nbar))


@pytest.mark.parametrize(
    "samples, seed",
    [(0, 1), (-5, 1), (2.5, 1), (10, -1), (10, 2**64), (10, 1.5)],
)
def test_config_validation(samples, seed):
    with pytest.raises(ValueError):
        OracleConfig(samples=samples, seed=seed)


def test_sampling_is_deterministic():
    s = state(0.6, 0.8, 0.2)
    config = OracleConfig(samples=10_000, seed=987654321)
    a = sample_epr(s, config)
    b = sample_epr(s, config)
    np.testing.assert_array_equal(a, b)
    ea = mc_fidelity(s, config)
    eb = mc_fidelity(s, config)
    assert ea == eb


def test_different_seeds_differ():
    s = state(0.6, 0.8)
    a = sample_epr(s, OracleConfig(samples=1000, seed=1))
    b = sample_epr(s, OracleConfig(samples=1000, seed=2))
    assert not np.array_equal(a, b)


def test_sample_shape_and_finiteness():
    pts = sample_epr(state(1.0, 0.5, 0.3), OracleConfig(samples=5000, seed=3))
    assert pts.shape == (5000, 4)
    assert np.all(np.isfinite(pts))


def test_difference_quadrature_variance():
    s = state(LN2_HALF, 1.0)
    n = 1_000_000
    pts = sample_epr(s, OracleConfig(samples=n, seed=20240401))
    diff_x = pts[:, 0] - pts[:, 2]
    target = s.sigma_minus_sq / 2.0  # 0.25 at -3 dB
    se = target * math.sqrt(2.0 / (n - 1))
    assert np.var(diff_x) == pytest.approx(target, abs=4 * se)
    sum_x = pts[:, 0] + pts[:, 2]
    target_plus = s.sigma_plus_sq / 2.0
    se_plus = target_plus * math.sqrt(2.0 / (n - 1))
    assert np.var(sum_x) == pytest.approx(target_plus, abs=4 * se_plus)


def test_sample_means_are_zero():
    s = state(0.9, 0.7, 0.4)
    n = 400_000
    pts = sample_epr(s, OracleConfig(samples=n, seed=5))
    for column in range(4):
        sd = float(np.std(pts[:, column]))
        assert abs(float(np.mean(pts[:, column]))) <= 4.0 * sd / math.sqrt(n)


def test_vacuum_duan_sum_estimate():
    s = state(0.0, 1.0)
    n = 400_000
    est = mc_fidelity(s, OracleConfig(samples=n, seed=6))
    # each noise quadrature is N(0, 1/2): the sum of squares has variance 1/n * 2*(1/2)^2*2
    se = math.sqrt(2.0 * 2.0 * 0.25 / n)
    assert est.duan_sum_hat == pytest.approx(1.0, abs=4 * se)


def test_mc_fidelity_anchors():
    cases = [
        (state(0.0, 1.0), 0.5),
        (state(LN2_HALF, 1.0), 2.0 / 3.0),
        (state(1.0, 0.7, 0.2), None),
    ]
    for i, (s, anchor) in enumerate(cases):
        est = mc_fidelity(s, OracleConfig(samples=1_000_000, seed=100 + i))
        analytic = fidelity(s).fidelity
        assert abs(est.fidelity_hat - analytic) <= 3.0 * est.std_error
        if anchor is not None:
            assert abs(est.fidelity_hat - anchor) <= 3.0 * est.std_error
        assert est.std_error > 0.0
        assert abs(est.duan_sum_hat - duan_sum(s)) / duan_sum(s) < 0.02


def test_std_error_scales_as_inverse_root_n():
    s = state(0.5, 0.9)
    small = mc_fidelity(s, OracleConfig(samples=50_000, seed=77))
    large = mc_fidelity(s, OracleConfig(samples=200_000, seed=77))
    ratio = small.std_error / large.std_error
    assert 1.0 <= ratio <= 4.0  # expect ~2 when N is quadrupled


def test_mc_fidelity_needs_two_samples():
    with pytest.raises(ValueError):
        mc_fidelity(state(0.5, 0.9), OracleConfig(samples=1, seed=1))


def reference_samples(s, config):
    """The documented stream, materialised at once: one (4, N) draw, then ndtri."""
    k = np.random.default_rng(config.seed).integers(
        0, 1 << 53, size=(4, config.samples), dtype=np.uint64
    )
    z = ndtri((k.astype(np.float64) + 0.5) * 2.0**-53)
    scale_plus = math.sqrt(s.sigma_plus_sq / 2.0)
    scale_minus = math.sqrt(s.sigma_minus_sq / 2.0)
    sum_x, diff_x = scale_plus * z[0], scale_minus * z[1]
    diff_p, sum_p = scale_plus * z[2], scale_minus * z[3]
    return np.stack(
        [(sum_x + diff_x) / 2.0, (sum_p + diff_p) / 2.0,
         (sum_x - diff_x) / 2.0, (sum_p - diff_p) / 2.0],
        axis=1,
    )


@pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_streamed_blocks_match_the_single_draw(samples):
    s = state(0.8, 0.85, 0.1)
    config = OracleConfig(samples=samples, seed=2**63 + 2**40 + 17)
    pts = reference_samples(s, config)
    np.testing.assert_array_equal(sample_epr(s, config), pts)

    noise_sq = (pts[:, 2] - pts[:, 0]) ** 2 + (pts[:, 3] + pts[:, 1]) ** 2
    f_samples = np.exp(-noise_sq)
    est = mc_fidelity(s, config)
    assert est.fidelity_hat == pytest.approx(float(np.mean(f_samples)), rel=1e-14, abs=0.0)
    assert est.duan_sum_hat == pytest.approx(float(np.mean(noise_sq)), rel=1e-14, abs=0.0)
    se = float(np.std(f_samples, ddof=1)) / math.sqrt(samples)
    assert est.std_error == pytest.approx(se, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("r", [0.0, 3.0, 8.0, 10.0, 15.0])
def test_std_error_free_of_cancellation(r):
    # Var f = sm^2 / ((1+sm)^2 (1+2 sm)); a one-pass sum-of-squares variance
    # loses every digit of it once sm is far below 1.
    s = state(r, 1.0)
    n = 200_000
    est = mc_fidelity(s, OracleConfig(samples=n, seed=4242))
    sm = s.sigma_minus_sq
    closed = sm / ((1.0 + sm) * math.sqrt((1.0 + 2.0 * sm) * n))
    assert est.std_error == pytest.approx(closed, rel=0.02)


@pytest.mark.parametrize("r", [36.0, 100.0, 354.0])
def test_mc_fidelity_passes_at_large_squeezing(r):
    # sp/sm is beyond 2**52 here: noise rebuilt from the per-mode rows as
    # x2 - x1 cancels, and the estimate drifts away from F (or reads 1, SE 0).
    s = state(r, 0.9)
    est = mc_fidelity(s, OracleConfig(samples=20_000, seed=3))
    assert est.std_error > 0.0
    assert abs(est.fidelity_hat - fidelity(s).fidelity) <= 3.0 * est.std_error
    assert abs(est.duan_sum_hat - duan_sum(s)) <= 0.05 * duan_sum(s)


def test_mc_fidelity_memory_does_not_grow_with_samples():
    s = state(0.6, 0.8, 0.2)
    mc_fidelity(s, OracleConfig(samples=2, seed=11))  # first call imports scipy.special
    tracemalloc.start()
    try:
        mc_fidelity(s, OracleConfig(samples=2_000_000, seed=11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # the 2e6 samples alone take 64 MB as an (N, 4) array
