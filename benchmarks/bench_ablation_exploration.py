"""Ablation: exploration intensity of the MAMUT agents.

The reproduction uses epsilon-greedy exploration inside the paper's
exploration phase (see the ``exploration_epsilon`` parameter of
:class:`~repro.core.agent.QLearningAgent`).  This ablation sweeps that
epsilon to show the trade-off it controls: more exploration covers the
design space faster but disturbs QoS while it lasts.
"""

from __future__ import annotations

import logging

from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.manager.runner import ExperimentRunner
from repro.manager.scenario import scenario_one
from repro.metrics.report import format_table


_LOG = logging.getLogger("repro.benchmarks.ablation_exploration")

EPSILONS = (0.05, 0.15, 0.5)


def _factory(epsilon: float):
    def build(request, seed):
        config = MamutConfig.for_request(request, seed=seed)
        config.exploration_epsilon = epsilon
        return MamutController(config)

    return build


def _run_sweep():
    specs = scenario_one(1, 1, num_frames=240, seed=0)
    runner = ExperimentRunner(seed=0)
    return runner.compare(
        {f"epsilon={eps}": _factory(eps) for eps in EPSILONS},
        specs,
        repetitions=2,
        warmup_videos=1,
    )


def test_ablation_exploration(run_once):
    results = run_once(_run_sweep)

    rows = [
        [label, r.qos_violation_pct, r.mean_power_w, r.mean_fps]
        for label, r in results.items()
    ]
    _LOG.info("\nAblation — exploration epsilon (1HR + 1LR, Scenario I)")
    _LOG.info(format_table(["setting", "Δ (%)", "Power (W)", "FPS"], rows))

    assert len(results) == len(EPSILONS)
    assert all(0.0 <= r.qos_violation_pct <= 100.0 for r in results.values())
