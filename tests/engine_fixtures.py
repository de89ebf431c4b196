"""Shared helpers for driving controllers and the batch engine in tests.

``decide_after`` replays the session's per-frame hand-over on a bare
controller: the previous frame's measurements join the controller's
observation window, then the controller decides.  ``run_batch`` is
:meth:`Orchestrator.run` on the batch engine: it steps a one-server
:class:`BatchStepper` until the orchestrator is idle.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.batch import BatchStepper
from repro.core.controller import Controller, Decision
from repro.core.observation import Observation
from repro.manager.orchestrator import Orchestrator, OrchestratorResult

__all__ = ["decide_after", "run_batch"]


def decide_after(
    controller: Controller, frame_index: int, observation: Optional[Observation]
) -> Decision:
    """Add ``observation`` (if any) to the window, then decide ``frame_index``."""
    if observation is not None:
        controller.window.add(
            observation.fps,
            observation.psnr_db,
            observation.bitrate_mbps,
            observation.power_w,
        )
    return controller.decide(frame_index)


def run_batch(
    orchestrator: Orchestrator, max_steps: Optional[int] = None
) -> OrchestratorResult:
    """Step ``orchestrator`` on the batch engine until it is idle.

    Like :meth:`Orchestrator.run`, the step count restarts at 0 on every
    call, and ``max_steps`` stops a run that a later call (on either
    engine) resumes.
    """
    stepper = BatchStepper([orchestrator])
    samples = []
    step = 0
    while (max_steps is None or step < max_steps) and orchestrator.active_sessions():
        samples.append(stepper.step(step)[0])
        step += 1
    return OrchestratorResult(
        records_by_session={
            session.session_id: list(session.records)
            for session in orchestrator.sessions
        },
        power_samples=samples,
        steps=step,
    )
