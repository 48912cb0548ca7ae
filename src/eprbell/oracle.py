"""Monte-Carlo verification of the analytic fidelity.

The Wigner density of this state family is a genuine probability density,
so quadratures can be sampled directly: the combinations (x1+x2, p1-p2)
are i.i.d. zero-mean Gaussians of variance sigma_plus_sq/2 and
(x1-x2, p1+p2) of variance sigma_minus_sq/2.  mc_fidelity needs only the
two noise combinations (x1-x2, p1+p2) and draws just those; the per-mode
sampler that solves all four pairs for (x1, p1, x2, p2) lives in
``tests/reference.py``.

Reproducibility contract: all variates are produced by applying the
inverse normal CDF to 53-bit uniforms drawn from a PCG64 stream seeded
with the configured seed, u = (k + 1/2) / 2**53 with k an integer in
[0, 2**53).  The half offset keeps u strictly inside (0, 1).  Each k takes
exactly one 64-bit draw, so for N samples factor f of sample i (factors in
the order x1+x2, x1-x2, p1-p2, p1+p2) sits at stream position f*N + i:
the variates equal those of the single draw
``default_rng(seed).integers(0, 2**53, (4, N), uint64)``.  Sampling and
reduction run over fixed blocks of BLOCK samples, and each block is
computed on its own: each factor drawn gets a fresh PCG64(seed) jumped
ahead to f*N + start with PCG64.advance, so memory does not grow with N.
BLOCK is part of the contract, not a tuning knob: the mean estimates are
math.fsum of the per-block sums over N (exactly rounded), and the
variance combines each block's two-pass (count, mean, M2) in block order
with the pairwise update of Chan, Golub & LeVeque (1979).  A fixed
(seed, samples, state) triple therefore reproduces bit-identical
estimates; platform-dependent rounding of the transcendentals involved is
below 1e-12.

Worker mode: blocks run on a thread pool of one thread per CPU this
process may run on (its affinity mask; run under ``taskset`` for fewer),
capped at the number of blocks.  The integer draw, ndtri and the numpy
reductions release the GIL, so blocks overlap.  Since a block depends
only on its own index and the results are reduced in block order, the
estimates are bit-identical for every thread count.  With one CPU,
or fewer than _POOL_BLOCKS blocks, blocks run inline and no pool is
made: such a call takes a few scheduler periods at most, so on a thread
pool its latency would hinge on whether another CPU happens to be free
at that moment.  A longer call runs its own pool and joins it
before it returns, so no thread outlives the call.  Each thread reuses
one block buffer, so memory is bounded by the threads times BLOCK.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .epr_model import GaussianEprState

__all__ = ["BLOCK", "OracleConfig", "OracleEstimate", "mc_fidelity"]

BLOCK = 2**16
_POOL_BLOCKS = 16  # a call of fewer blocks (~1e6 samples, ~0.1 s) runs inline


@dataclass(frozen=True)
class OracleConfig:
    """Sample count and the 64-bit seed of the deterministic stream."""

    samples: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class OracleEstimate:
    fidelity_hat: float
    std_error: float
    duan_sum_hat: float


def _worker_count() -> int:
    """The number of CPUs this process may run on: the oracle's thread count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_thread = threading.local()  # .buf: this thread's (2, BLOCK) block buffer


def _block(state: GaussianEprState, config: OracleConfig, start: int) -> np.ndarray:
    """Noise factors 1 and 3 (x1 - x2, p1 + p2) of block start // BLOCK, each
    scaled to variance sigma_minus_sq/2: a (2, n) view of this thread's buffer.

    This is the only place that knows the stream layout (see the module
    docstring).  The thread's next block overwrites the view, so consume it
    first.
    """
    # Deferred: importing scipy.special is most of the CLI's start-up time,
    # and only the oracle needs it.
    from scipy.special import ndtri

    if getattr(_thread, "buf", None) is None:
        _thread.buf = np.empty((2, BLOCK))
    z = _thread.buf[:, :min(BLOCK, config.samples - start)]
    for f, row in zip((1, 3), z):
        bit_generator = np.random.PCG64(config.seed)
        bit_generator.advance(f * config.samples + start)
        # Generator.random takes one 64-bit draw x per value and returns k / 2**53 with
        # k = x >> 11, the k of integers(0, 2**53); adding 2**-54 rounds exactly as
        # (k + 1/2) / 2**53 does, and needs no integer temporary.
        np.random.Generator(bit_generator).random(out=row)
        row += 2.0**-54
        ndtri(row, out=row)
        row *= math.sqrt(state.sigma_minus_sq / 2.0)
    return z


def _map_blocks(fn, samples: int) -> list:
    """[fn(start) for each block start], in block order, run on a pool of its
    own when there are at least _POOL_BLOCKS blocks and more than one worker."""
    starts = range(0, samples, BLOCK)
    if len(starts) < _POOL_BLOCKS or (workers := _worker_count()) == 1:
        return list(map(fn, starts))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(workers, len(starts))) as executor:
        return list(executor.map(fn, starts))


def _fidelity_block(state: GaussianEprState, config: OracleConfig, start: int):
    """(n, sum f, sum noise_sq, mean f, M2 of f) of one block, computed in
    place in the block buffer; np.square is bit-identical to x**2."""
    diff_x, sum_p = _block(state, config, start)
    noise_sq = np.square(diff_x, out=diff_x)
    noise_sq += np.square(sum_p, out=sum_p)
    noise_sum = float(np.sum(noise_sq))
    f = np.exp(np.negative(noise_sq, out=noise_sq), out=noise_sq)
    n = len(f)
    f_sum = float(np.sum(f))
    block_mean = f_sum / n
    f -= block_mean
    return n, f_sum, noise_sum, block_mean, float(np.sum(np.square(f, out=f)))


def mc_fidelity(state: GaussianEprState, config: OracleConfig) -> OracleEstimate:
    """Estimate the coherent-state teleportation fidelity by direct simulation.

    Unit-gain teleportation displaces the recreated state by the noise
    n_x = x2 - x1, n_p = p2 + p1 regardless of the input amplitude, so the
    per-sample fidelity is the coherent-state overlap exp(-(n_x^2 + n_p^2)).
    Its expectation equals 1/(1 + sigma_minus_sq): each noise quadrature is
    N(0, s^2) with s^2 = sigma_minus_sq/2, and E[exp(-n^2)] = 1/sqrt(1+2 s^2)
    per independent quadrature.

    The noise quadratures are themselves stream factors, -n_x = x1 - x2
    (factor 1) and n_p = p1 + p2 (factor 3), so only those two are drawn.
    Rebuilding them from the modes would cancel once sp/sm nears 2**52.
    Samples are reduced block by block and never held all at once.
    """
    if config.samples < 2:
        raise ValueError("mc_fidelity needs samples >= 2 to form a standard error")
    blocks = _map_blocks(lambda start: _fidelity_block(state, config, start), config.samples)
    count, mean, m2 = 0, 0.0, 0.0
    for n, _, _, block_mean, block_m2 in blocks:
        delta = block_mean - mean
        total = count + n
        mean += delta * n / total
        m2 += block_m2 + delta * delta * count * n / total
        count = total
    samples = config.samples
    return OracleEstimate(
        fidelity_hat=math.fsum(block[1] for block in blocks) / samples,
        std_error=math.sqrt(m2 / (samples - 1)) / math.sqrt(samples),
        duan_sum_hat=math.fsum(block[2] for block in blocks) / samples,
    )
