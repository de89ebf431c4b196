"""Pre-training utilities: learn once, reuse across experiments.

The paper evaluates agents that have had time to learn.  Instead of paying
the warm-up cost in every run, a controller can be pre-trained once per
resolution class on representative content and its knowledge copied into the
per-session controllers of later experiments.  The factory parses and checks
each class's snapshot once, on that class's first controller, and seeds
every controller by copying learned state in memory
(:func:`~repro.core.persistence.copy_controller_state`, the copy crash
salvage makes too):

>>> knowledge = pretrain_mamut(ResolutionClass.HR, frames=2000)
>>> factory = pretrained_mamut_factory({ResolutionClass.HR: knowledge})
>>> runner.compare({"MAMUT (pretrained)": factory}, specs)
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.constants import DEFAULT_POWER_CAP_W
from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.core.persistence import copy_controller_state, restore_agents, snapshot_agents
from repro.core.store import LearningStore
from repro.manager.factories import ControllerFactory, mamut_configs
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.platform.server import MulticoreServer
from repro.video.catalog import make_sequence, hr_sequences, lr_sequences
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass

__all__ = ["pretrain_mamut", "pretrained_mamut_factory"]


def pretrain_mamut(
    resolution_class: ResolutionClass,
    frames: int = 2000,
    power_cap_w: float = DEFAULT_POWER_CAP_W,
    bandwidth_mbps: Optional[float] = None,
    seed: int = 0,
) -> dict[str, Any]:
    """Train a MAMUT controller on representative content of one class.

    The controller transcodes a rotation of the catalog's sequences of the
    requested class, alone on the server, for ``frames`` frames; its learned
    state is returned as a JSON-serialisable snapshot (see
    :mod:`repro.core.persistence`).
    """
    names = (
        hr_sequences() if resolution_class is ResolutionClass.HR else lr_sequences()
    )
    per_video = max(1, frames // len(names))
    playlist = [
        make_sequence(name, num_frames=per_video, seed=seed + i)
        for i, name in enumerate(names)
    ]
    request_kwargs = {"user_id": "pretrain", "sequence": playlist[0]}
    if bandwidth_mbps is not None:
        request_kwargs["bandwidth_mbps"] = bandwidth_mbps
    request = TranscodingRequest(**request_kwargs)

    config = MamutConfig.for_request(request, power_cap_w=power_cap_w, seed=seed)
    controller = MamutController(config)
    session = TranscodingSession(request, controller, playlist=playlist)
    Orchestrator([session], server=MulticoreServer()).run()
    return snapshot_agents(controller.agents)


def pretrained_mamut_factory(
    knowledge: Mapping[ResolutionClass, Mapping[str, Any]],
    power_cap_w: float = DEFAULT_POWER_CAP_W,
    record_history: bool = False,
) -> ControllerFactory:
    """A controller factory that seeds each new controller with pre-trained knowledge.

    ``knowledge`` maps a resolution class to a snapshot from
    :func:`pretrain_mamut`; requests of a class with no snapshot start from
    scratch, so partially pre-trained fleets are allowed.  A class's
    snapshot is read once, when the factory builds that class's first
    controller; a snapshot or a request that does not fit raises
    :class:`~repro.errors.LearningError`.  Like
    :func:`~repro.manager.factories.mamut_factory`, the factory owns one
    learning store that all its controllers share, and controllers of one
    request class share their configuration's parts.
    """
    store = LearningStore()
    config_for = mamut_configs(power_cap_w, record_history)
    # Per class, a controller that holds the parsed snapshot and never acts.
    parsed: dict[ResolutionClass, MamutController] = {}

    def build(request: TranscodingRequest, seed: int) -> MamutController:
        config = config_for(request, seed)
        controller = MamutController(config, store)
        snapshot = knowledge.get(request.resolution_class)
        if snapshot is not None:
            source = parsed.get(request.resolution_class)
            if source is None:
                source = MamutController(config)
                restore_agents(source.agents, snapshot)
                parsed[request.resolution_class] = source
            copy_controller_state(controller, source)
        return controller

    return build
