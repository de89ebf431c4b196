"""Shared helpers for driving controllers and the batch engine in tests.

``decide_after`` replays the session's per-frame hand-over on a bare
controller: the previous frame's measurements join the controller's
observation window, then the controller decides.  ``run_batch`` is
:meth:`Orchestrator.run` on the batch engine: it steps a one-server
:class:`BatchStepper` until the orchestrator is idle.  ``compensated_sum``
is CPython 3.12's builtin ``sum()``, for checking on any interpreter that
the engines agree under it.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.batch import BatchStepper
from repro.core.controller import Controller, Decision
from repro.core.observation import Observation
from repro.manager.orchestrator import Orchestrator, OrchestratorResult

__all__ = ["compensated_sum", "decide_after", "run_batch"]

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


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


def compensated_sum(iterable, /, start=0):
    """Pure-Python copy of CPython 3.12's builtin ``sum()``.

    Python 3.12 made ``sum()`` over floats compensated: exact floats are
    added with Neumaier's correction term, which joins the result at the
    end when it is finite, while ints (and bools) met on the float path are
    added uncompensated.  A run of exact ints that fit a C long is summed
    exactly first.  Anything else falls back to plain ``+`` from then on,
    like the C loop.  So ``compensated_sum([0.1] * 10) == 1.0``, where
    Python 3.11's ``sum()`` gives ``0.9999999999999999``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if (
                type(item) in (int, bool)
                and _LONG_MIN <= item <= _LONG_MAX
                and _LONG_MIN <= result + item <= _LONG_MAX
            ):
                result += int(item)
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total = result
        compensation = 0.0
        for item in items:
            if type(item) is float:
                added = total + item
                if abs(total) >= abs(item):
                    compensation += (total - added) + item
                else:
                    compensation += (item - added) + total
                total = added
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result
