"""Unit tests for link latency models."""

import math
import random

import pytest

from repro.net import (
    WAN_LATENCY_FLOOR,
    FixedLatency,
    LogNormalLatency,
    NormalLatency,
    ScaledLatency,
    UniformLatency,
    lan_latency,
    wan_latency,
)


@pytest.fixture
def rng():
    return random.Random(123)


class TestFixedLatency:
    def test_always_returns_delay(self, rng):
        model = FixedLatency(0.005)
        assert all(model.sample(rng) == 0.005 for _ in range(10))
        assert model.mean() == 0.005

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)


class TestUniformLatency:
    def test_samples_within_bounds(self, rng):
        model = UniformLatency(0.001, 0.002)
        for _ in range(200):
            assert 0.001 <= model.sample(rng) <= 0.002

    def test_mean(self):
        assert UniformLatency(0.0, 2.0).mean() == 1.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)


class TestNormalLatency:
    def test_truncated_at_floor(self, rng):
        model = NormalLatency(mu=0.001, sigma=0.01)
        assert all(model.sample(rng) >= 0.0001 for _ in range(500))

    def test_custom_floor(self, rng):
        model = NormalLatency(mu=0.001, sigma=0.01, floor=0.0005)
        assert all(model.sample(rng) >= 0.0005 for _ in range(500))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            NormalLatency(0, 1)


class TestLogNormalLatency:
    def test_all_samples_positive(self, rng):
        model = LogNormalLatency(median=0.040)
        assert all(model.sample(rng) > 0 for _ in range(500))

    def test_empirical_median_near_parameter(self, rng):
        model = LogNormalLatency(median=0.040, sigma=0.2)
        samples = sorted(model.sample(rng) for _ in range(4001))
        assert samples[2000] == pytest.approx(0.040, rel=0.1)

    def test_mean_exceeds_median(self):
        model = LogNormalLatency(median=0.040, sigma=0.5)
        assert model.mean() > 0.040

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234, 2**31])
    def test_inlined_sampler_equals_the_stdlib_draw_for_draw(self, seed):
        # sample() inlines random.Random.lognormvariate; the stdlib
        # stays the oracle: same draws, same RNG state afterwards (a
        # rejected Kinderman-Monahan round consumes two more uniforms,
        # so one skipped or extra round would shift every later draw).
        median, sigma = 0.0003, 0.3
        model = LogNormalLatency(median=median, sigma=sigma)
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(10_000):
            assert model.sample(ours) == stdlib.lognormvariate(math.log(median), sigma)
        assert ours.getstate() == stdlib.getstate()


class TestMinLatency:
    """``min_latency()`` must be a true lower bound on every sample —
    the sharded engine's conservative lookahead is only sound if no
    draw can ever undercut it."""

    def test_fixed_floor_is_delay(self):
        assert FixedLatency(0.005).min_latency() == 0.005

    def test_uniform_floor_is_low(self):
        assert UniformLatency(0.001, 0.002).min_latency() == 0.001

    def test_normal_floor_is_truncation_floor(self):
        assert NormalLatency(0.001, 0.01).min_latency() == 0.0001
        assert NormalLatency(0.001, 0.01, floor=0.0005).min_latency() == 0.0005

    def test_lognormal_floor_bounds_samples(self, rng):
        model = LogNormalLatency(median=0.040, sigma=0.1)
        floor = model.min_latency()
        assert 0 < floor < 0.040
        assert all(model.sample(rng) >= floor for _ in range(5000))

    def test_lognormal_floor_scales_with_median(self):
        assert LogNormalLatency(0.080, sigma=0.1).min_latency() == pytest.approx(
            2 * LogNormalLatency(0.040, sigma=0.1).min_latency()
        )

    def test_scaled_floor_scales_base(self):
        base = UniformLatency(0.001, 0.002)
        assert ScaledLatency(base, 3.0).min_latency() == pytest.approx(0.003)

    def test_wan_floor_constant_matches_default_model(self):
        assert WAN_LATENCY_FLOOR == pytest.approx(wan_latency().min_latency())
        assert 0 < WAN_LATENCY_FLOOR < wan_latency().mean()

    def test_default_wan_samples_respect_constant(self, rng):
        model = wan_latency()
        assert all(model.sample(rng) >= WAN_LATENCY_FLOOR for _ in range(5000))


class TestDefaults:
    def test_lan_is_submillisecond(self, rng):
        model = lan_latency()
        assert sum(model.sample(rng) for _ in range(100)) / 100 < 0.001

    def test_wan_much_slower_than_lan(self):
        assert wan_latency().mean() > 20 * lan_latency().mean()
