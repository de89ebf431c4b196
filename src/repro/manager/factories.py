"""Controller factories used by the experiment runner.

A *controller factory* is a callable ``(request, seed) -> Controller``; the
runner calls it once per session per repetition so that every session gets
its own controller instance (each video stream has its own agents, as in the
paper) and every repetition gets fresh exploration randomness.  The MAMUT
factories share one learning store between the controllers they build, so
the batch engine can step their agents together; each agent still learns
only in its own slot.  They also build one configuration per request class
and give each controller a copy with its own seed, so the controllers of a
class share their reward, state space and action sets.
"""

from __future__ import annotations

import dataclasses
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
    "mamut_configs",
    "mamut_factory",
    "monoagent_factory",
    "heuristic_factory",
    "static_factory",
]

ControllerFactory = Callable[[TranscodingRequest, int], Controller]


def mamut_configs(
    power_cap_w: float = DEFAULT_POWER_CAP_W, record_history: bool = False
) -> Callable[[TranscodingRequest, int], MamutConfig]:
    """:meth:`MamutConfig.for_request` for one factory's requests, with shared parts.

    Requests of one resolution class, target FPS and bandwidth get the same
    configuration but for the seed, so the returned callable keeps one
    template per such class and copies it with each request's seed: the
    copies share the template's reward, state space and action sets.
    """
    templates: dict[tuple, MamutConfig] = {}

    def config_for(request: TranscodingRequest, seed: int) -> MamutConfig:
        key = (request.resolution_class, request.target_fps, request.bandwidth_mbps)
        template = templates.get(key)
        if template is None:
            template = templates[key] = MamutConfig.for_request(
                request, power_cap_w=power_cap_w, record_history=record_history
            )
        return dataclasses.replace(template, seed=seed)

    return config_for


def mamut_factory(
    power_cap_w: float = DEFAULT_POWER_CAP_W, record_history: bool = False
) -> ControllerFactory:
    """Factory producing :class:`~repro.core.mamut.MamutController` instances.

    The factory owns one :class:`~repro.core.store.LearningStore`, and every
    controller it builds keeps its agents' learned state there.  Controllers
    of one request class share their configuration's parts
    (:func:`mamut_configs`).
    """
    store = LearningStore()
    config_for = mamut_configs(power_cap_w, record_history)

    def build(request: TranscodingRequest, seed: int) -> Controller:
        return MamutController(config_for(request, seed), store)

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
