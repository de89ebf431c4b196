"""Unit tests for repro.core.learning_rate (paper Eq. 3)."""

from __future__ import annotations

import pytest

from repro.core.learning_rate import LearningRateFunction, LearningRateParameters
from repro.errors import ConfigurationError


class TestLearningRateParameters:
    def test_paper_defaults(self):
        params = LearningRateParameters()
        assert params.beta == pytest.approx(0.3)
        assert params.beta_prime == pytest.approx(0.2)
        assert params.alpha_th1 == pytest.approx(0.1)
        assert params.alpha_th2 == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LearningRateParameters(beta=0.0)
        with pytest.raises(ConfigurationError):
            LearningRateParameters(beta_prime=-0.1)
        with pytest.raises(ConfigurationError):
            LearningRateParameters(alpha_th1=0.05, alpha_th2=0.1)


class TestAlpha:
    def test_equation_three(self):
        """alpha = beta/Num(s,a) + beta'/(1 + sum_j min_a Num_j(a))."""
        function = LearningRateFunction()
        assert function.alpha(3, [2, 5]) == pytest.approx(0.3 / 3 + 0.2 / (1 + 7))

    def test_first_visit_is_clamped_to_one(self):
        function = LearningRateFunction()
        assert function.alpha(0, []) == 1.0
        # beta / 0 is unbounded whatever beta and the peers are.
        small = LearningRateFunction(LearningRateParameters(beta=0.01))
        assert small.alpha(0, [100, 100]) == 1.0

    def test_decreases_with_own_visits(self):
        function = LearningRateFunction()
        values = [function.alpha(n, [3, 3]) for n in (1, 2, 5, 20)]
        assert values == sorted(values, reverse=True)

    def test_decreases_with_peer_coverage(self):
        """The second term keeps alpha high until the peers have tried all
        their actions (paper Sec. IV-B)."""
        function = LearningRateFunction()
        uncovered = function.alpha(10, [0, 0])
        covered = function.alpha(10, [5, 5])
        assert uncovered > covered
        assert uncovered >= 0.2  # beta'/(1+0) alone keeps it at 0.2

    def test_mono_agent_has_no_peer_term(self):
        function = LearningRateFunction(LearningRateParameters(beta_prime=0.0))
        assert function.alpha(3, []) == pytest.approx(0.1)

    def test_thresholds(self):
        function = LearningRateFunction()
        assert function.below_exploration_threshold(0.09)
        assert not function.below_exploration_threshold(0.11)
        assert function.below_exploitation_threshold(0.049)
        assert not function.below_exploitation_threshold(0.051)

    def test_validation(self):
        function = LearningRateFunction()
        with pytest.raises(ConfigurationError):
            function.alpha(-1, [])
        with pytest.raises(ConfigurationError):
            function.alpha(1, [-2])
