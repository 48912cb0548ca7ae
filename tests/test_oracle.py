import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from eprbell import EprParams, OracleConfig, duan_sum, fidelity, make_state, mc_fidelity
from eprbell import oracle
from eprbell.oracle import BLOCK
from reference import reference_exponentials, reference_samples

LN2_HALF = math.log(2.0) / 2.0


def state(r, eta, nbar=0.0):
    return make_state(EprParams(r=r, eta=eta, nbar=nbar))


@pytest.mark.parametrize(
    "samples, seed",
    [(0, 1), (1, 1), (-5, 1), (2.5, 1), (10, -1), (10, 2**64), (10, 1.5)],
)
def test_config_validation(samples, seed):
    with pytest.raises(ValueError):
        OracleConfig(samples=samples, seed=seed)


def block(s, config, start=0):
    return oracle._block(s, config, start, np.empty(BLOCK))


def test_sampling_is_deterministic():
    s = state(0.6, 0.8, 0.2)
    config = OracleConfig(samples=10_000, seed=987654321)
    np.testing.assert_array_equal(block(s, config), block(s, config))
    ea = mc_fidelity(s, config)
    eb = mc_fidelity(s, config)
    assert ea == eb


def test_different_seeds_differ():
    s = state(0.6, 0.8)
    a = block(s, OracleConfig(samples=1000, seed=1))
    b = block(s, OracleConfig(samples=1000, seed=2))
    assert not np.array_equal(a, b)


def test_sample_shape_and_finiteness():
    noise_sq = block(state(1.0, 0.5, 0.3), OracleConfig(samples=5000, seed=3))
    assert noise_sq.shape == (5000,)
    assert np.all(np.isfinite(noise_sq))
    assert np.all(noise_sq >= 0.0)


def test_difference_quadrature_variance():
    s = state(LN2_HALF, 1.0)
    n = 1_000_000
    pts = reference_samples(s, OracleConfig(samples=n, seed=20240401))
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
    pts = reference_samples(s, OracleConfig(samples=n, seed=5))
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


@pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_streamed_blocks_match_the_single_draw(samples):
    s = state(0.8, 0.85, 0.1)
    config = OracleConfig(samples=samples, seed=2**63 + 2**40 + 17)
    noise_sq = s.sigma_minus_sq * reference_exponentials(config)
    for start in range(0, samples, BLOCK):
        np.testing.assert_array_equal(block(s, config, start), noise_sq[start:start + BLOCK])

    f_samples = np.exp(-noise_sq)
    est = mc_fidelity(s, config)
    assert est.fidelity_hat == pytest.approx(float(np.mean(f_samples)), rel=1e-14, abs=0.0)
    assert est.duan_sum_hat == pytest.approx(float(np.mean(noise_sq)), rel=1e-14, abs=0.0)
    se = float(np.std(f_samples, ddof=1)) / math.sqrt(samples)
    assert est.std_error == pytest.approx(se, rel=1e-6, abs=0.0)


def _calls_on_threads(s, config, threads):
    """mc_fidelity(s, config) on that many threads at once, switching the GIL
    between them as often as possible."""
    results = [None] * threads
    barrier = threading.Barrier(threads)

    def call(k):
        barrier.wait()
        results[k] = mc_fidelity(s, config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=call, args=(k,)) for k in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return results


@pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_results_are_bit_identical_for_any_worker_count(samples):
    # Each call draws into a buffer of its own, so calls from concurrent
    # threads neither share nor overwrite each other's blocks.
    s = state(0.8, 0.85, 0.1)
    config = OracleConfig(samples=samples, seed=2**63 + 2**40 + 17)
    inline = mc_fidelity(s, config)
    for threads in (2, 3):
        assert _calls_on_threads(s, config, threads) == [inline] * threads


@pytest.mark.parametrize(
    "r, eta, nbar",
    [(0.0, 1.0, 0.0), (0.3466, 0.9, 0.0), (1.5, 0.95, 0.0)],  # F = 0.5, 0.645, 0.911
)
def test_oracle_is_calibrated_over_seeds(r, eta, nbar):
    # With N*F >= 3000 the standardised error z = (F_hat - F) / std_error is
    # close to N(0, 1), so over 300 seeds its mean and spread sit near 0 and
    # 1, and |z| > 3 (probability 0.27% each) is rare.  Every state reads the
    # same 300 streams, each through its own map of the uniforms.
    s = state(r, eta, nbar)
    analytic = fidelity(s).fidelity
    seeds = 300
    z = np.array([
        (estimate.fidelity_hat - analytic) / estimate.std_error
        for estimate in (mc_fidelity(s, OracleConfig(samples=10_000, seed=seed)) for seed in range(seeds))
    ])
    assert abs(float(np.mean(z))) <= 0.3
    assert 0.8 <= float(np.std(z, ddof=1)) <= 1.2
    p = math.erfc(3.0 / math.sqrt(2.0))
    # the smallest count c with P(more than c of the seeds beyond 3) <= 1e-6
    tail, c = 1.0, -1
    while tail > 1e-6:
        c += 1
        tail -= math.comb(seeds, c) * p**c * (1.0 - p) ** (seeds - c)
    assert int(np.sum(np.abs(z) > 3.0)) <= c


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


def _mc_fidelity_peak_memory(threads):
    s = state(0.6, 0.8, 0.2)
    tracemalloc.start()
    try:
        _calls_on_threads(s, OracleConfig(samples=2_000_000, seed=11), threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_mc_fidelity_memory_does_not_grow_with_samples():
    peak = _mc_fidelity_peak_memory(threads=1)
    assert peak < 8 * 2**20  # the 2e6 samples alone take 16 MB as one array


def test_mc_fidelity_memory_does_not_grow_with_threads():
    peak = _mc_fidelity_peak_memory(threads=2)
    assert peak < 8 * 2**20  # one block buffer per call, not the whole draw
