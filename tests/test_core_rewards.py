"""Unit tests for repro.core.rewards (paper Sec. III-D, Eq. 1-2)."""

from __future__ import annotations

import pytest

from repro.core.observation import Observation
from repro.core.rewards import RewardConfig, RewardFunction, VIOLATION_PENALTY
from repro.errors import ConfigurationError


@pytest.fixture
def rewards() -> RewardFunction:
    return RewardFunction()


def obs(fps=25.0, psnr=36.0, bitrate=4.0, power=80.0) -> Observation:
    return Observation(fps=fps, psnr_db=psnr, bitrate_mbps=bitrate, power_w=power)


class TestFpsReward:
    def test_below_target_penalised(self, rewards):
        """Eq. 1: -4 when FPS < FPStarget."""
        assert rewards.fps_reward(23.9) == VIOLATION_PENALTY
        assert rewards.fps_reward(1.0) == VIOLATION_PENALTY

    def test_maximum_exactly_at_target(self, rewards):
        """Eq. 1: 1 / (FPS - (target - 1)) is maximal (=1) at the target."""
        assert rewards.fps_reward(24.0) == pytest.approx(1.0)

    def test_decreases_above_target_but_stays_positive(self, rewards):
        values = [rewards.fps_reward(fps) for fps in (24.0, 26.0, 30.0, 40.0)]
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)

    def test_formula_above_target(self, rewards):
        assert rewards.fps_reward(28.0) == pytest.approx(1.0 / (28.0 - 23.0))


class TestPsnrReward:
    def test_out_of_range_penalised(self, rewards):
        """Eq. 2: -4 when PSNR < 30 or PSNR > 50."""
        assert rewards.psnr_reward(29.9) == VIOLATION_PENALTY
        assert rewards.psnr_reward(50.1) == VIOLATION_PENALTY

    def test_endpoints(self, rewards):
        """Eq. 2: reward 0 at 30 dB and 1 at 50 dB."""
        assert rewards.psnr_reward(30.0) == pytest.approx(0.0, abs=1e-9)
        assert rewards.psnr_reward(50.0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_increasing_inside_range(self, rewards):
        values = [rewards.psnr_reward(psnr) for psnr in (30.0, 35.0, 40.0, 45.0, 50.0)]
        assert values == sorted(values)

    def test_exponential_shape_is_convex(self, rewards):
        """e^{PSNR/50} grows faster near 50 dB than near 30 dB."""
        low_gain = rewards.psnr_reward(35.0) - rewards.psnr_reward(30.0)
        high_gain = rewards.psnr_reward(50.0) - rewards.psnr_reward(45.0)
        assert high_gain > low_gain


class TestConstraintRewards:
    def test_bitrate_constraint(self, rewards):
        assert rewards.bitrate_reward(5.9) == 0.0
        assert rewards.bitrate_reward(6.1) == VIOLATION_PENALTY

    def test_power_constraint(self, rewards):
        cap = rewards.config.power_cap_w
        assert rewards.power_reward(cap - 1.0) == 0.0
        assert rewards.power_reward(cap) == VIOLATION_PENALTY
        assert rewards.power_reward(cap + 50.0) == VIOLATION_PENALTY


class TestTotalReward:
    def test_breakdown_sums_components(self, rewards):
        breakdown = rewards.breakdown(obs())
        assert breakdown.total == pytest.approx(
            breakdown.fps + breakdown.psnr + breakdown.bitrate + breakdown.power
        )
        assert rewards.total(obs()) == pytest.approx(breakdown.total)

    def test_weights_are_applied(self):
        config = RewardConfig(fps_weight=2.0, psnr_weight=0.0)
        weighted = RewardFunction(config)
        unweighted = RewardFunction()
        observation = obs(fps=24.0, psnr=40.0)
        assert weighted.total(observation) == pytest.approx(
            2.0 * unweighted.fps_reward(24.0)
            + unweighted.bitrate_reward(4.0)
            + unweighted.power_reward(80.0)
        )

    def test_good_operating_point_scores_higher_than_violating_one(self, rewards):
        good = rewards.total(obs(fps=25.0, psnr=40.0, bitrate=4.0, power=90.0))
        bad = rewards.total(obs(fps=15.0, psnr=28.0, bitrate=9.0, power=130.0))
        assert good > 0 > bad


class TestRewardConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RewardConfig(fps_target=0.0)
        with pytest.raises(ConfigurationError):
            RewardConfig(psnr_min_db=50.0, psnr_max_db=30.0)
        with pytest.raises(ConfigurationError):
            RewardConfig(bandwidth_mbps=0.0)
        with pytest.raises(ConfigurationError):
            RewardConfig(power_cap_w=0.0)


class TestExactBatchMode:
    def test_exact_batch_is_bitwise_equal_to_scalar(self):
        import numpy as np

        from repro.core.observation import Observation

        function = RewardFunction()
        rng = np.random.default_rng(11)
        fps = rng.uniform(5.0, 60.0, 500)
        psnr = rng.uniform(20.0, 60.0, 500)
        bitrate = rng.uniform(0.1, 12.0, 500)
        power = rng.uniform(40.0, 200.0, 500)
        batch = function.total_batch(fps, psnr, bitrate, power)
        scalar = [
            function.total(Observation(f, p, b, w))
            for f, p, b, w in zip(fps, psnr, bitrate, power)
        ]
        # Bitwise, not approx: the batch engine's Q-table equivalence
        # guarantee rests on this.
        assert batch.tolist() == scalar
