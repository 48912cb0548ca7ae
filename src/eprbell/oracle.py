"""Monte-Carlo verification of the analytic fidelity and moments.

The Wigner density of this state family is a genuine probability density,
so quadratures can be sampled directly: the combinations (x1+x2, p1-p2)
are i.i.d. zero-mean Gaussians of variance sigma_plus_sq/2 and
(x1-x2, p1+p2) of variance sigma_minus_sq/2.  sample_epr solves the
linear pairs for the per-mode coordinates; mc_fidelity needs only the two
noise combinations (x1-x2, p1+p2) and draws just those.

Reproducibility contract: all variates are produced by applying the
inverse normal CDF to 53-bit uniforms drawn from a PCG64 stream seeded
with the configured seed, u = (k + 1/2) / 2**53 with k an integer in
[0, 2**53).  The half offset keeps u strictly inside (0, 1).  Each k takes
exactly one 64-bit draw, so for N samples factor f of sample i (factors in
the order x1+x2, x1-x2, p1-p2, p1+p2) sits at stream position f*N + i:
the variates equal those of the single draw
``default_rng(seed).integers(0, 2**53, (4, N), uint64)``.  Sampling and
reduction run over fixed blocks of BLOCK samples, each factor's generator
jumped ahead to its slice with PCG64.advance, so memory does not grow with
N.  BLOCK is part of the contract, not a tuning knob: the mean estimates
are math.fsum of the per-block sums over N (exactly rounded, independent
of block order), and the variance combines each block's two-pass
(count, mean, M2) in block order with the pairwise update of Chan, Golub &
LeVeque (1979).  A fixed (seed, samples, state) triple therefore
reproduces bit-identical estimates; platform-dependent rounding of the
transcendentals involved is below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epr_model import GaussianEprState

__all__ = ["BLOCK", "OracleConfig", "OracleEstimate", "sample_epr", "mc_fidelity"]

BLOCK = 2**16


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


def _blocks(state: GaussianEprState, config: OracleConfig, factors):
    """Yield (len(factors), n) arrays of the requested stream factors, scaled
    to their variances, BLOCK samples at a time.

    This is the only place that knows the stream layout (see the module
    docstring).  The yielded array is a view of a buffer that the next
    block overwrites, so consume it before advancing.
    """
    # Deferred: importing scipy.special is most of the CLI's start-up time,
    # and only the oracle needs it.
    from scipy.special import ndtri

    samples = config.samples
    rngs = []
    for f in factors:
        bit_generator = np.random.PCG64(config.seed)
        bit_generator.advance(f * samples)
        rngs.append(np.random.Generator(bit_generator))
    sigma_sq = (state.sigma_plus_sq, state.sigma_minus_sq)  # even factors, odd factors
    scales = [math.sqrt(sigma_sq[f % 2] / 2.0) for f in factors]
    z_buf = np.empty((len(factors), min(BLOCK, samples)))
    for start in range(0, samples, BLOCK):
        z = z_buf[:, :min(BLOCK, samples - start)]
        for rng, row, scale in zip(rngs, z, scales):
            row[...] = rng.integers(0, 1 << 53, size=len(row), dtype=np.uint64)
            row += 0.5
            row *= 2.0**-53
            ndtri(row, out=row)
            row *= scale
        yield z


def sample_epr(state: GaussianEprState, config: OracleConfig) -> np.ndarray:
    """Draw quadrature samples from the state; returns an (N, 4) array of
    (x1, p1, x2, p2) rows.

    The four Gaussian factors are drawn in the fixed order
    (x1+x2, x1-x2, p1-p2, p1+p2) so the stream layout is part of the
    reproducibility contract; the modes are then solved from the pairs.
    """
    out = np.empty((config.samples, 4))
    starts = range(0, config.samples, BLOCK)
    for start, (sum_x, diff_x, diff_p, sum_p) in zip(starts, _blocks(state, config, range(4))):
        modes = (sum_x + diff_x, sum_p + diff_p, sum_x - diff_x, sum_p - diff_p)  # 2*(x1, p1, x2, p2)
        out[start:start + len(sum_x)] = np.stack(modes, axis=1) / 2.0
    return out


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
    f_sums, noise_sums = [], []
    count, mean, m2 = 0, 0.0, 0.0
    for diff_x, sum_p in _blocks(state, config, (1, 3)):
        noise_sq = diff_x**2 + sum_p**2
        f = np.exp(-noise_sq)
        n = len(f)
        f_sum = float(np.sum(f))
        f_sums.append(f_sum)
        noise_sums.append(float(np.sum(noise_sq)))
        block_mean = f_sum / n
        delta = block_mean - mean
        total = count + n
        mean += delta * n / total
        m2 += float(np.sum((f - block_mean) ** 2)) + delta * delta * count * n / total
        count = total
    samples = config.samples
    return OracleEstimate(
        fidelity_hat=math.fsum(f_sums) / samples,
        std_error=math.sqrt(m2 / (samples - 1)) / math.sqrt(samples),
        duan_sum_hat=math.fsum(noise_sums) / samples,
    )
