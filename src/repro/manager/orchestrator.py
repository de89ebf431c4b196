"""Multi-user orchestrator: advances all sessions on the shared server.

One orchestrator *step* transcodes one frame of every active session: every
session's controller decides its configuration, the server allocates the
resulting thread/frequency demands (producing one contention scale for all
sessions and the package power), and every session then transcodes its frame
under that allocation.  Sessions drop out as their playlists finish.

Sessions may also *join after construction* via :meth:`Orchestrator.add_session`:
the cluster layer (:mod:`repro.cluster`) drives one orchestrator per server
step-wise and attaches sessions as requests arrive over time.  An orchestrator
with no sessions is valid — it idles, and :meth:`Orchestrator.idle_step`
samples the server's idle power so fleet-wide energy accounting stays honest.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence

from repro.constants import TARGET_FPS
from repro.errors import ScenarioError
from repro.metrics.aggregate import (
    ExperimentSummary,
    empty_experiment_summary,
    summarize_experiment,
)
from repro.metrics.records import FrameRecord, PowerSample
from repro.manager.session import TranscodingSession
from repro.numeric import ordered_sum
from repro.platform.dvfs import DvfsPolicy
from repro.platform.server import MulticoreServer
from repro.telemetry.config import resolve_telemetry
from repro.telemetry.profiler import NULL_PROFILER

__all__ = ["OrchestratorResult", "Orchestrator"]


@dataclasses.dataclass(frozen=True)
class OrchestratorResult:
    """Raw output of one orchestrator run.

    Attributes
    ----------
    records_by_session:
        Every session's per-frame records.
    power_samples:
        Per-step package power samples.
    steps:
        Number of orchestrator steps executed.
    """

    records_by_session: Mapping[str, Sequence[FrameRecord]]
    power_samples: Sequence[PowerSample]
    steps: int

    def summary(self) -> ExperimentSummary:
        """Aggregate the run into the paper's summary metrics.

        An empty run (no sessions ever attached) yields an all-zero summary
        rather than an error, matching the "an empty orchestrator idles"
        contract.
        """
        if not self.records_by_session:
            return empty_experiment_summary(self.power_samples)
        return summarize_experiment(self.records_by_session, self.power_samples)

    def all_records(self) -> list[FrameRecord]:
        """All frame records of all sessions, flattened."""
        return [r for records in self.records_by_session.values() for r in records]


class Orchestrator:
    """Runs a set of transcoding sessions on one server.

    Parameters
    ----------
    sessions:
        The sessions to serve simultaneously.  May be empty: a session-less
        orchestrator idles until :meth:`add_session` attaches work (the
        cluster layer relies on this).
    server:
        The shared platform; a default 16-core server is created when
        omitted.  Its DVFS policy is set to chip-wide when any session's
        controller declares a chip-wide policy (see
        :class:`~repro.platform.dvfs.DvfsPolicy`).
    """

    def __init__(
        self,
        sessions: Sequence[TranscodingSession] = (),
        server: Optional[MulticoreServer] = None,
    ) -> None:
        sessions = list(sessions)
        ids = [s.session_id for s in sessions]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"duplicate session ids: {ids}")
        self.sessions = sessions
        # Active subset, pruned lazily: long cluster runs accumulate
        # thousands of finished sessions in `sessions`, which per-step scans
        # must not touch.
        self._active = [s for s in sessions if s.active]
        self._session_ids = set(ids)
        self.server = server if server is not None else MulticoreServer()
        # Observe-only phase profiler; the cluster layer (or run(telemetry=))
        # swaps in a live one.  The null default costs one no-op context
        # manager per phase.
        self.profiler = NULL_PROFILER

        if any(
            session.controller.dvfs_policy is DvfsPolicy.CHIP_WIDE
            for session in sessions
        ):
            self.server.dvfs_policy = DvfsPolicy.CHIP_WIDE

    # -- session lifecycle -------------------------------------------------------------

    def add_session(self, session: TranscodingSession) -> None:
        """Attach a session after construction (it joins on the next step).

        The cluster dispatcher uses this to route arriving requests onto a
        running server.  Duplicate session ids are rejected, and a joining
        chip-wide controller switches the server's DVFS policy exactly as it
        would have at construction time.
        """
        if session.session_id in self._session_ids:
            raise ScenarioError(f"duplicate session id {session.session_id!r}")
        self._session_ids.add(session.session_id)
        self.sessions.append(session)
        self._active.append(session)
        if session.controller.dvfs_policy is DvfsPolicy.CHIP_WIDE:
            self.server.dvfs_policy = DvfsPolicy.CHIP_WIDE

    # -- execution ---------------------------------------------------------------------

    def active_sessions(self) -> list[TranscodingSession]:
        """Sessions that still have frames to transcode."""
        self._active = [s for s in self._active if s.active]
        return list(self._active)

    def run_step(self, step: int) -> Optional[PowerSample]:
        """Advance every active session by one frame.

        Returns the power sample of the step, or ``None`` when no session is
        active anymore.
        """
        active = self.active_sessions()
        if not active:
            return None

        profiler = self.profiler
        with profiler.phase("decide"):
            demands = [session.prepare() for session in active]
        with profiler.phase("allocate"):
            allocation = self.server.allocate(demands)

        with profiler.phase("execute"):
            records = [
                session.execute(allocation.contention_scale, allocation.total_power_w)
                for session in active
            ]

        duration = ordered_sum(record.encode_time_s for record in records) / len(records)
        return PowerSample(
            step=step,
            power_w=allocation.total_power_w,
            duration_s=duration,
            active_sessions=len(active),
        )

    def idle_step(self, step: int) -> PowerSample:
        """Sample the server's idle power for one session-less step.

        Both engines step a server with no active sessions through this, so
        that idle servers still contribute their base power
        (:attr:`~repro.platform.server.MulticoreServer.idle_power_w`) to
        fleet-wide energy accounting.  The step lasts one frame interval at
        the nominal delivery rate.
        """
        return PowerSample(
            step=step,
            power_w=self.server.idle_power_w,
            duration_s=1.0 / TARGET_FPS,
            active_sessions=0,
        )

    def run(
        self, max_steps: Optional[int] = None, telemetry=None
    ) -> OrchestratorResult:
        """Run until every playlist finishes (or ``max_steps`` is reached).

        Steps session by session on the scalar engine.  The session and
        controller state is all there is: a run stopped by ``max_steps``
        resumes where it left off on the next call, and a fleet of
        orchestrators can be stepped by the batch engine
        (:class:`~repro.cluster.batch.BatchStepper`) before or after.

        ``telemetry`` accepts a :class:`~repro.telemetry.TelemetryConfig`
        or a built :class:`~repro.telemetry.Telemetry` hub; the profiler
        component (if enabled) attributes per-phase wall time.  The hub is
        exposed as ``self.telemetry`` afterwards.
        """
        tel = resolve_telemetry(telemetry)
        self.telemetry = tel
        self.profiler = tel.profiler

        power_samples: list[PowerSample] = []
        step = 0
        while max_steps is None or step < max_steps:
            sample = self.run_step(step)
            if sample is None:
                break
            tel.profiler.count_step()
            power_samples.append(sample)
            step += 1
        tel.finalize()

        records_by_session = {
            session.session_id: list(session.records) for session in self.sessions
        }
        return OrchestratorResult(
            records_by_session=records_by_session,
            power_samples=power_samples,
            steps=step,
        )
