"""Link latency models.

The paper's testbed has two qualitatively different links: intra-DC
(sub-millisecond, low variance) and inter-DC WAN (tens of milliseconds,
heavier tail). Each model is a distribution over one-way delivery
delays; the network samples one delay per message from the appropriate
model, so latency shapes — not just means — carry through to the
latency-CDF experiments (E3/E4).
"""

from __future__ import annotations

import math
import random
from typing import Optional

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "NormalLatency",
    "LogNormalLatency",
    "ScaledLatency",
    "lan_latency",
    "wan_latency",
    "WAN_LATENCY_FLOOR",
]

#: How many sigmas below the median a log-normal sample may fall before
#: it is clamped. At 8 sigmas the clamp triggers with probability
#: ~6e-16 per draw — unobservable in any run this repository performs —
#: but it gives the distribution a hard floor, which the parallel
#: engine needs: conservative lookahead is only sound if ``sample()``
#: can never undercut ``min_latency()``.
_LOGNORMAL_FLOOR_SIGMAS = 8.0

#: Constant of the Kinderman-Monahan normal sampler (the stdlib's
#: ``random.NV_MAGICCONST``, which is not public API).
_KM_RATIO = 4.0 * math.exp(-0.5) / math.sqrt(2.0)

#: bound once: ``LogNormalLatency.sample`` runs once per message
_log = math.log
_exp = math.exp


class LatencyModel:
    """Distribution over one-way message delays (seconds)."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected delay; used for sanity checks and documentation."""
        raise NotImplementedError

    def min_latency(self) -> float:
        """Hard lower bound on ``sample()``: no draw is ever below this.

        The conservative parallel engine uses the smallest cross-site
        ``min_latency()`` as its lookahead — a message sent now cannot
        arrive at another shard sooner than this, so each shard may
        safely simulate that far past the horizon its peers promised.
        Models without a sharper bound inherit the trivial ``0.0``
        (which disables sharding rather than corrupting it).
        """
        return 0.0


class FixedLatency(LatencyModel):
    """Constant delay; useful for deterministic protocol tests."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"latency must be non-negative, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay

    def min_latency(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def min_latency(self) -> float:
        return self.low

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class NormalLatency(LatencyModel):
    """Gaussian delay truncated below at ``floor`` (default: 10% of the mean)."""

    def __init__(self, mu: float, sigma: float, floor: Optional[float] = None) -> None:
        if mu <= 0 or sigma < 0:
            raise ValueError(f"need mu > 0 and sigma >= 0, got mu={mu}, sigma={sigma}")
        self.mu = mu
        self.sigma = sigma
        self.floor = mu * 0.1 if floor is None else floor

    def sample(self, rng: random.Random) -> float:
        return max(self.floor, rng.gauss(self.mu, self.sigma))

    def mean(self) -> float:
        return self.mu

    def min_latency(self) -> float:
        return self.floor

    def __repr__(self) -> str:
        return f"NormalLatency(mu={self.mu}, sigma={self.sigma})"


class LogNormalLatency(LatencyModel):
    """Log-normal delay — the classic heavy-ish tail of real networks.

    Parameterised by the *median* delay and sigma of the underlying
    normal, which is how network measurements are usually reported.
    """

    def __init__(self, median: float, sigma: float = 0.3) -> None:
        if median <= 0 or sigma < 0:
            raise ValueError(f"need median > 0, sigma >= 0, got {median}, {sigma}")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)
        # A log-normal has no mathematical floor; clamp the far left tail
        # (P ~ 6e-16 per draw) so min_latency() is a true bound.
        self._floor = median * math.exp(-_LOGNORMAL_FLOOR_SIGMAS * sigma)

    def sample(self, rng: random.Random) -> float:
        # rng.lognormvariate(mu, sigma), its two frames inlined (one draw
        # per message): same uniforms, same order, same arithmetic —
        # tests/test_net_latency.py holds the stdlib up as the oracle.
        uniform = rng.random
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = _KM_RATIO * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                break
        draw = _exp(self._mu + z * self.sigma)
        return draw if draw >= self._floor else self._floor

    def mean(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2.0)

    def min_latency(self) -> float:
        return self._floor

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={self.median}, sigma={self.sigma})"


class ScaledLatency(LatencyModel):
    """A base model slowed down by a constant factor.

    :meth:`Network.slow`'s "slow link" degradation: one sample is drawn
    from the base model per message either way, so swapping a link to
    its scaled version mid-run changes delays without perturbing the
    RNG draw sequence — campaigns stay deterministic.
    """

    def __init__(self, base: LatencyModel, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.base = base
        self.factor = factor

    def sample(self, rng: random.Random) -> float:
        return self.base.sample(rng) * self.factor

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def min_latency(self) -> float:
        return self.base.min_latency() * self.factor

    def __repr__(self) -> str:
        return f"ScaledLatency({self.base!r}, x{self.factor})"


def lan_latency(median: float = 0.0003) -> LatencyModel:
    """Default intra-datacenter link: ~0.3 ms median, light tail."""
    return LogNormalLatency(median=median, sigma=0.2)


def wan_latency(median: float = 0.040) -> LatencyModel:
    """Default inter-datacenter link: ~40 ms median, heavier tail."""
    return LogNormalLatency(median=median, sigma=0.1)


#: ``wan_latency().min_latency()`` as a constant (~18 ms): the default
#: conservative lookahead for per-DC sharding, and the WAN delay floor
#: quoted by the protocol-plane metrics report.
WAN_LATENCY_FLOOR = 0.040 * math.exp(-_LOGNORMAL_FLOOR_SIGMAS * 0.1)
