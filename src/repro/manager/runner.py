"""Experiment runner: repeated runs, aggregation, controller comparison.

The paper reports every number as the average of five repetitions of the
transcoding process under equal conditions (Sec. V-A).  The runner rebuilds
the sessions and controllers for every repetition (fresh exploration
randomness per repetition), runs the orchestrator, and averages the summary
metrics.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence

from repro.constants import DEFAULT_POWER_CAP_W
from repro.errors import ScenarioError
from repro.manager.factories import ControllerFactory
from repro.manager.orchestrator import Orchestrator, OrchestratorResult
from repro.manager.scenario import SessionSpec
from repro.manager.session import TranscodingSession
from repro.metrics.aggregate import ExperimentSummary
from repro.numeric import ordered_sum
from repro.platform.server import MulticoreServer
from repro.video.sequence import ResolutionClass, VideoSequence

__all__ = ["AveragedResult", "ExperimentRunner"]


def _clone_sequence(video: VideoSequence, seed_offset: int) -> VideoSequence:
    """A same-shape copy of ``video`` with a fresh content realisation."""
    return VideoSequence(
        name=f"{video.name}-warmup",
        width=video.width,
        height=video.height,
        frame_rate=video.frame_rate,
        num_frames=len(video),
        profile=video.profile,
        seed=video.seed + seed_offset,
    )


def _discard_warmup(
    result: OrchestratorResult, warmup_steps: Mapping[str, int]
) -> OrchestratorResult:
    """Drop the warm-up portion of a run's records and power samples."""
    records_by_session = {
        session_id: [r for r in records if r.step >= warmup_steps.get(session_id, 0)]
        for session_id, records in result.records_by_session.items()
    }
    max_warmup = max(warmup_steps.values(), default=0)
    power_samples = [s for s in result.power_samples if s.step >= max_warmup]
    return OrchestratorResult(
        records_by_session=records_by_session,
        power_samples=power_samples,
        steps=result.steps,
    )


@dataclasses.dataclass(frozen=True)
class AveragedResult:
    """Summary metrics averaged over the repetitions of one configuration.

    Attributes
    ----------
    label:
        Name of the controller (or any caller-provided label).
    repetitions:
        Number of runs averaged.
    mean_power_w, mean_fps, mean_threads, mean_frequency_ghz, mean_psnr_db:
        Averages of the corresponding per-run summary metrics.
    qos_violation_pct:
        Average Δ (percentage of frames below the FPS target).
    per_class_threads, per_class_frequency_ghz, per_class_qos_pct,
    per_class_psnr_db:
        The same quantities split by resolution class (Table I reports the
        first two).
    runs:
        The underlying per-run summaries, for callers needing more detail.
    """

    label: str
    repetitions: int
    mean_power_w: float
    mean_fps: float
    mean_threads: float
    mean_frequency_ghz: float
    mean_psnr_db: float
    qos_violation_pct: float
    per_class_threads: Mapping[str, float]
    per_class_frequency_ghz: Mapping[str, float]
    per_class_qos_pct: Mapping[str, float]
    per_class_psnr_db: Mapping[str, float]
    runs: Sequence[ExperimentSummary]


class ExperimentRunner:
    """Runs scenarios with one or more controller factories.

    Parameters
    ----------
    power_cap_w:
        Server power cap shared by all controllers (used by their reward /
        rule configurations; the factories receive the cap separately).
    seed:
        Base seed; repetition ``r`` of session ``k`` uses
        ``seed + 1000*r + k``.
    server_factory:
        Callable creating a fresh server per run, letting callers customise
        topology or power-model calibration.  Defaults to the stock
        16-core/32-thread server.
    """

    def __init__(
        self,
        power_cap_w: float = DEFAULT_POWER_CAP_W,
        seed: int = 0,
        server_factory=MulticoreServer,
    ) -> None:
        if power_cap_w <= 0:
            raise ScenarioError(f"power_cap_w must be positive, got {power_cap_w}")
        self.power_cap_w = float(power_cap_w)
        self.seed = int(seed)
        self.server_factory = server_factory

    # -- single runs ------------------------------------------------------------------

    def run_once(
        self,
        factory: ControllerFactory,
        specs: Sequence[SessionSpec],
        repetition: int = 0,
        max_steps: Optional[int] = None,
        warmup_videos: int = 0,
    ) -> OrchestratorResult:
        """Run one repetition of a scenario with one controller factory.

        ``warmup_videos`` prepends that many extra copies of each session's
        first video (with fresh content realisations) to its playlist and
        discards their measurements: the learning controllers keep the
        knowledge acquired during those videos, mirroring the paper's
        evaluation of learned behaviour rather than cold-start exploration.
        """
        if not specs:
            raise ScenarioError("at least one session spec is required")
        if warmup_videos < 0:
            raise ScenarioError(f"warmup_videos must be >= 0, got {warmup_videos}")
        sessions = []
        warmup_steps: dict[str, int] = {}
        for index, spec in enumerate(specs):
            controller = factory(spec.request, self.seed + 1000 * repetition + index)
            warmup = [
                _clone_sequence(spec.playlist[0], seed_offset=7919 * (w + 1))
                for w in range(warmup_videos)
            ]
            playlist = warmup + list(spec.playlist)
            warmup_steps[spec.request.user_id] = ordered_sum(len(v) for v in warmup)
            sessions.append(
                TranscodingSession(
                    request=spec.request,
                    controller=controller,
                    playlist=playlist,
                )
            )
        orchestrator = Orchestrator(sessions, server=self.server_factory())
        result = orchestrator.run(max_steps=max_steps)
        if warmup_videos == 0:
            return result
        return _discard_warmup(result, warmup_steps)

    def run(
        self,
        label: str,
        factory: ControllerFactory,
        specs: Sequence[SessionSpec],
        repetitions: int = 1,
        max_steps: Optional[int] = None,
        warmup_videos: int = 0,
    ) -> AveragedResult:
        """Run ``repetitions`` repetitions and average their summaries."""
        if repetitions < 1:
            raise ScenarioError(f"repetitions must be >= 1, got {repetitions}")
        summaries: list[ExperimentSummary] = []
        for repetition in range(repetitions):
            result = self.run_once(
                factory,
                specs,
                repetition,
                max_steps=max_steps,
                warmup_videos=warmup_videos,
            )
            summaries.append(result.summary())
        return self._average(label, summaries)

    def compare(
        self,
        factories: Mapping[str, ControllerFactory],
        specs: Sequence[SessionSpec],
        repetitions: int = 1,
        max_steps: Optional[int] = None,
        warmup_videos: int = 0,
    ) -> dict[str, AveragedResult]:
        """Run every factory on the same scenario and collect the averages."""
        return {
            label: self.run(
                label,
                factory,
                specs,
                repetitions,
                max_steps=max_steps,
                warmup_videos=warmup_videos,
            )
            for label, factory in factories.items()
        }

    # -- aggregation ------------------------------------------------------------------

    @staticmethod
    def _average(label: str, summaries: Sequence[ExperimentSummary]) -> AveragedResult:
        n = len(summaries)

        def mean(values: Sequence[float]) -> float:
            return ordered_sum(values) / len(values) if values else 0.0

        per_class_threads: dict[str, float] = {}
        per_class_freq: dict[str, float] = {}
        per_class_qos: dict[str, float] = {}
        per_class_psnr: dict[str, float] = {}
        for resolution_class in (ResolutionClass.HR, ResolutionClass.LR):
            threads: list[float] = []
            freqs: list[float] = []
            qos: list[float] = []
            psnr: list[float] = []
            for summary in summaries:
                class_sessions = summary.sessions_by_class(resolution_class)
                if not class_sessions:
                    continue
                threads.append(mean([s.mean_threads for s in class_sessions]))
                freqs.append(mean([s.mean_frequency_ghz for s in class_sessions]))
                qos.append(mean([s.qos_violation_pct for s in class_sessions]))
                psnr.append(mean([s.mean_psnr_db for s in class_sessions]))
            if threads:
                per_class_threads[resolution_class.value] = mean(threads)
                per_class_freq[resolution_class.value] = mean(freqs)
                per_class_qos[resolution_class.value] = mean(qos)
                per_class_psnr[resolution_class.value] = mean(psnr)

        return AveragedResult(
            label=label,
            repetitions=n,
            mean_power_w=mean([s.mean_power_w for s in summaries]),
            mean_fps=mean([s.mean_fps for s in summaries]),
            mean_threads=mean([s.mean_threads for s in summaries]),
            mean_frequency_ghz=mean([s.mean_frequency_ghz for s in summaries]),
            mean_psnr_db=mean([s.mean_psnr_db for s in summaries]),
            qos_violation_pct=mean([s.qos_violation_pct for s in summaries]),
            per_class_threads=per_class_threads,
            per_class_frequency_ghz=per_class_freq,
            per_class_qos_pct=per_class_qos,
            per_class_psnr_db=per_class_psnr,
            runs=tuple(summaries),
        )
