import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from eprbell import EprParams, OracleConfig, duan_sum, fidelity, make_state, mc_fidelity
from eprbell import oracle
from eprbell.oracle import BLOCK
from reference import reference_factors, reference_samples

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
    a = oracle._block(s, config, 0).copy()  # the next block overwrites the view
    b = oracle._block(s, config, 0)
    np.testing.assert_array_equal(a, b)
    ea = mc_fidelity(s, config)
    eb = mc_fidelity(s, config)
    assert ea == eb


def test_different_seeds_differ():
    s = state(0.6, 0.8)
    a = oracle._block(s, OracleConfig(samples=1000, seed=1), 0).copy()
    b = oracle._block(s, OracleConfig(samples=1000, seed=2), 0)
    assert not np.array_equal(a, b)


def test_sample_shape_and_finiteness():
    noise = oracle._block(state(1.0, 0.5, 0.3), OracleConfig(samples=5000, seed=3), 0)
    assert noise.shape == (2, 5000)
    assert np.all(np.isfinite(noise))


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
    factors = reference_factors(s, config)
    for start in range(0, samples, BLOCK):
        np.testing.assert_array_equal(oracle._block(s, config, start), factors[[1, 3], start:start + BLOCK])

    noise_sq = factors[1] ** 2 + factors[3] ** 2
    f_samples = np.exp(-noise_sq)
    est = mc_fidelity(s, config)
    assert est.fidelity_hat == pytest.approx(float(np.mean(f_samples)), rel=1e-14, abs=0.0)
    assert est.duan_sum_hat == pytest.approx(float(np.mean(noise_sq)), rel=1e-14, abs=0.0)
    se = float(np.std(f_samples, ddof=1)) / math.sqrt(samples)
    assert est.std_error == pytest.approx(se, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_results_are_bit_identical_for_any_worker_count(monkeypatch, samples):
    s = state(0.8, 0.85, 0.1)
    config = OracleConfig(samples=samples, seed=2**63 + 2**40 + 17)
    monkeypatch.setattr(oracle, "_POOL_BLOCKS", 2)  # every multi-block call runs on the pool
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between the block threads as often as possible
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            results.append(mc_fidelity(s, config))
    finally:
        sys.setswitchinterval(interval)
    assert all(estimate == results[0] for estimate in results)


def test_only_calls_of_many_blocks_use_the_pool(monkeypatch):
    monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    s = state(0.6, 0.8, 0.2)
    mc_fidelity(s, OracleConfig(samples=(oracle._POOL_BLOCKS - 1) * BLOCK, seed=5))
    assert started == []
    mc_fidelity(s, OracleConfig(samples=(oracle._POOL_BLOCKS - 1) * BLOCK + 1, seed=5))
    assert len(started) == 2  # min(workers, blocks); the second starts long before the first block ends


def test_thread_count_follows_cpu_affinity(monkeypatch):
    s = state(0.6, 0.8, 0.2)
    config = OracleConfig(samples=oracle._POOL_BLOCKS * BLOCK, seed=9)
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline = mc_fidelity(s, config)
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert oracle._worker_count() == 3
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    assert mc_fidelity(s, config) == inline
    assert len(started) == 3  # min(CPUs, blocks)


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


def _mc_fidelity_peak_memory(monkeypatch, workers):
    monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
    s = state(0.6, 0.8, 0.2)
    mc_fidelity(s, OracleConfig(samples=2, seed=11))  # first call imports scipy.special
    tracemalloc.start()
    try:
        mc_fidelity(s, OracleConfig(samples=2_000_000, seed=11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_mc_fidelity_memory_does_not_grow_with_samples(monkeypatch):
    peak = _mc_fidelity_peak_memory(monkeypatch, workers=1)
    assert peak < 32 * 2**20  # the 2e6 samples alone take 64 MB as an (N, 4) array


def test_mc_fidelity_memory_does_not_grow_with_threads(monkeypatch):
    peak = _mc_fidelity_peak_memory(monkeypatch, workers=2)
    assert peak < 32 * 2**20  # one block buffer per thread, not the whole draw
