"""Tests for the client retry policy: determinism, bounds, deadlines."""

import random

import pytest

from repro.baselines.common import BaselineConfig
from repro.core.config import ChainReactionConfig
from repro.core.retry import MAX_BACKOFF, RetryPolicy
from repro.errors import ConfigError


class TestSchedule:
    def test_same_seed_same_schedule(self):
        policy = RetryPolicy(max_attempts=8)
        first = policy.schedule(random.Random(99))
        second = policy.schedule(random.Random(99))
        assert first == second

    def test_different_seed_different_schedule(self):
        policy = RetryPolicy(max_attempts=8, jitter=0.1)
        assert policy.schedule(random.Random(1)) != policy.schedule(random.Random(2))

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(max_attempts=6, base_backoff=0.02, jitter=0.0)
        assert policy.schedule(random.Random(0)) == [0.02, 0.04, 0.08, 0.16, 0.32]

    def test_backoff_capped_before_jitter(self):
        policy = RetryPolicy(max_attempts=12, base_backoff=0.02, jitter=0.1)
        for delay in policy.schedule(random.Random(5)):
            assert delay <= MAX_BACKOFF * 1.1

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(max_attempts=2, base_backoff=0.1, jitter=0.25)
        rng = random.Random(3)
        for _ in range(200):
            delay = policy.backoff(0, rng)
            assert 0.1 * 0.75 <= delay <= 0.1 * 1.25


class TestDeadline:
    def test_disabled_by_default(self):
        policy = RetryPolicy()
        assert policy.deadline == 0.0
        assert not policy.out_of_time(start=0.0, now=1e9)

    def test_deadline_cuts_off(self):
        policy = RetryPolicy(deadline=1.0)
        assert not policy.out_of_time(start=5.0, now=5.9)
        assert policy.out_of_time(start=5.0, now=6.0)


class TestFromConfig:
    def test_chainreaction_config_knobs_carry_over(self):
        config = ChainReactionConfig(
            seed=1, max_retries=7, client_retry_backoff=0.05,
            backoff_jitter=0.2, op_deadline=2.5,
        )
        policy = RetryPolicy.from_config(config)
        assert policy.max_attempts == 7
        assert policy.base_backoff == 0.05
        assert policy.jitter == 0.2
        assert policy.deadline == 2.5

    def test_baseline_config_supported(self):
        policy = RetryPolicy.from_config(BaselineConfig(seed=1))
        assert policy.max_attempts == BaselineConfig(seed=1).max_retries


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_backoff": -0.01},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"deadline": -1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)
