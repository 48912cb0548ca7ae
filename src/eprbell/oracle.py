"""Monte-Carlo verification of the analytic fidelity.

The Wigner density of this state family is a genuine probability density,
so quadratures can be sampled directly: the combinations (x1+x2, p1-p2)
are i.i.d. zero-mean Gaussians of variance sigma_plus_sq/2 and
(x1-x2, p1+p2) of variance sigma_minus_sq/2.  mc_fidelity needs only the
squared length n_x^2 + n_p^2 of the noise pair (x1-x2, p1+p2), and for two
i.i.d. N(0, sm/2) variates that is -sm * ln U with U uniform on (0, 1]
(the radial part of Box & Muller 1958), so it draws one uniform per
sample; the per-mode sampler that solves all four pairs for
(x1, p1, x2, p2) lives in ``tests/reference.py``.

Reproducibility contract: sample i takes v_i = k_i / 2**53, k_i an integer
in [0, 2**53), the value at stream position i of
``Generator(PCG64(seed)).random()``, so the N values of a call equal the
single draw ``default_rng(seed).random(N)``.  Sample i's noise is
noise_sq = sm * t with t = -log1p(-v_i): since 1 - v_i >= 2**-53, t is
finite for every k, and at most 53 ln 2.  Sampling and reduction run over fixed
blocks of BLOCK samples, drawn in stream order from one generator into one
buffer per call, so memory does not grow with N and concurrent calls share
nothing.  BLOCK is part of the contract, not a tuning knob: the mean
estimates are math.fsum of the per-block sums over N (exactly rounded), and
the variance folds each block's two-pass (count, mean, M2) into the running
one, in block order, with the pairwise update of Chan, Golub & LeVeque
(1979).  A fixed (seed, samples, state) triple therefore reproduces
bit-identical estimates; platform-dependent rounding of the
transcendentals involved is below 1e-12.  Blocks run one after another on
the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epr_model import GaussianEprState

__all__ = ["BLOCK", "OracleConfig", "OracleEstimate", "mc_fidelity"]

BLOCK = 2**16


@dataclass(frozen=True)
class OracleConfig:
    """Sample count (at least 2, to form a standard error) and the 64-bit seed
    of the deterministic stream."""

    samples: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 2:
            raise ValueError(f"samples must be an integer >= 2, got {self.samples!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class OracleEstimate:
    fidelity_hat: float
    std_error: float
    duan_sum_hat: float


def _noise_blocks(state: GaussianEprState, config: OracleConfig):
    """noise_sq = n_x^2 + n_p^2 of each block of BLOCK samples (the last may be
    shorter) in stream order, as views of one buffer that the next block
    overwrites: the only place that knows the stream layout (module docstring)."""
    rng = np.random.default_rng(config.seed)
    buf = np.empty(min(BLOCK, config.samples))
    for start in range(0, config.samples, BLOCK):
        v = buf[:min(BLOCK, config.samples - start)]
        rng.random(out=v)
        # -sm * log1p(-v) is sm * t exactly: a sign change never rounds.
        np.log1p(np.negative(v, out=v), out=v)
        v *= -state.sigma_minus_sq
        yield v


def mc_fidelity(state: GaussianEprState, config: OracleConfig) -> OracleEstimate:
    """Estimate the coherent-state teleportation fidelity by direct simulation.

    Unit-gain teleportation displaces the recreated state by the noise
    n_x = x2 - x1, n_p = p2 + p1 regardless of the input amplitude, so the
    per-sample fidelity is the coherent-state overlap exp(-(n_x^2 + n_p^2)).
    Its expectation equals 1/(1 + sigma_minus_sq): each noise quadrature is
    N(0, s^2) with s^2 = sigma_minus_sq/2, and E[exp(-n^2)] = 1/sqrt(1+2 s^2)
    per independent quadrature.

    Only the squared noise length is drawn, as sigma_minus_sq times a unit
    exponential, so nothing is rebuilt from the modes: that would cancel
    once sp/sm nears 2**52.  Samples are reduced block by block and never
    held all at once.
    """
    count, mean, m2, f_sums, noise_sums = 0, 0.0, 0.0, [], []
    for noise_sq in _noise_blocks(state, config):
        noise_sums.append(float(np.sum(noise_sq)))
        f = np.exp(np.negative(noise_sq, out=noise_sq), out=noise_sq)
        n = len(f)
        f_sums.append(float(np.sum(f)))
        block_mean = f_sums[-1] / n
        f -= block_mean
        delta = block_mean - mean
        total = count + n
        mean += delta * n / total
        m2 += float(np.sum(np.square(f, out=f))) + delta * delta * count * n / total
        count = total
    return OracleEstimate(
        fidelity_hat=math.fsum(f_sums) / config.samples,
        std_error=math.sqrt(m2 / (config.samples - 1)) / math.sqrt(config.samples),
        duan_sum_hat=math.fsum(noise_sums) / config.samples,
    )
