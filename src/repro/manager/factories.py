"""Controller factories used by the experiment runner.

A *controller factory* is a callable ``(request, seed) -> Controller``; the
runner calls it once per session per repetition so that every session gets
its own controller instance (each video stream has its own agents, as in the
paper) and every repetition gets fresh exploration randomness.  The MAMUT
factories share one learning store between the controllers they build, so
the batch engine can step their agents together; each agent still learns
only in its own slot.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.heuristic import HeuristicConfig, HeuristicController
from repro.baselines.monoagent import MonoAgentConfig, MonoAgentController
from repro.baselines.static import StaticController
from repro.constants import DEFAULT_POWER_CAP_W
from repro.core.config import MamutConfig
from repro.core.controller import Controller
from repro.core.mamut import MamutController
from repro.core.store import LearningStore
from repro.video.request import TranscodingRequest

__all__ = [
    "ControllerFactory",
    "mamut_factory",
    "monoagent_factory",
    "heuristic_factory",
    "static_factory",
]

ControllerFactory = Callable[[TranscodingRequest, int], Controller]


def mamut_factory(
    power_cap_w: float = DEFAULT_POWER_CAP_W, record_history: bool = False
) -> ControllerFactory:
    """Factory producing :class:`~repro.core.mamut.MamutController` instances.

    The factory owns one :class:`~repro.core.store.LearningStore`, and every
    controller it builds keeps its agents' learned state there.
    """
    store = LearningStore()

    def build(request: TranscodingRequest, seed: int) -> Controller:
        config = MamutConfig.for_request(
            request,
            power_cap_w=power_cap_w,
            seed=seed,
            record_history=record_history,
        )
        return MamutController(config, store)

    return build


def monoagent_factory(power_cap_w: float = DEFAULT_POWER_CAP_W) -> ControllerFactory:
    """Factory producing mono-agent Q-learning controllers."""

    def build(request: TranscodingRequest, seed: int) -> Controller:
        config = MonoAgentConfig.for_request(request, power_cap_w=power_cap_w, seed=seed)
        return MonoAgentController(config)

    return build


def heuristic_factory(power_cap_w: float = DEFAULT_POWER_CAP_W) -> ControllerFactory:
    """Factory producing heuristic controllers."""

    def build(request: TranscodingRequest, seed: int) -> Controller:
        config = HeuristicConfig.for_request(request, power_cap_w=power_cap_w)
        return HeuristicController(config)

    return build


def static_factory(qp: int, threads: int, frequency_ghz: float) -> ControllerFactory:
    """Factory producing fixed-configuration controllers."""

    def build(request: TranscodingRequest, seed: int) -> Controller:
        return StaticController(qp=qp, threads=threads, frequency_ghz=frequency_ghz)

    return build
