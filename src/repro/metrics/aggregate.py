"""Aggregation of per-frame records into the paper's summary metrics."""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.metrics.qos import qos_violation_pct
from repro.metrics.records import FrameRecord, PowerSample
from repro.numeric import ordered_sum
from repro.video.sequence import ResolutionClass

__all__ = [
    "SessionSummary",
    "ExperimentSummary",
    "power_trace_stats",
    "linear_percentile",
    "summarize_session",
    "summarize_experiment",
    "empty_experiment_summary",
]


def linear_percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    The single percentile definition shared by the cluster summary, the
    trace-analysis layer and the SLO engine: sorting plus the same
    interpolation arithmetic everywhere means a percentile derived from a
    span stream reconciles *exactly* (same floats) with one derived from
    the ledger.  Matches ``numpy.percentile(..., method="linear")``.
    Returns 0.0 for an empty sequence.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    if fraction == 0.0:
        return ordered[lower]
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def power_trace_stats(
    power_samples: Sequence[PowerSample],
) -> tuple[float, float, float]:
    """``(energy_j, duration_s, mean_power_w)`` of a power trace.

    The single place the idle-run power math lives: energy is the
    duration-weighted sum of the samples, the mean power is energy over
    total duration (0 for an empty trace).
    """
    total_time = ordered_sum(sample.duration_s for sample in power_samples)
    energy = ordered_sum(sample.power_w * sample.duration_s for sample in power_samples)
    mean_power = energy / total_time if total_time > 0 else 0.0
    return energy, total_time, mean_power


@dataclasses.dataclass(frozen=True)
class SessionSummary:
    """Averages over one session's frames.

    Attributes
    ----------
    session_id:
        The summarised session.
    resolution_class:
        HR or LR.
    frames:
        Number of frames transcoded.
    mean_fps, mean_psnr_db, mean_bitrate_mbps:
        Averages of the per-frame observables.
    mean_threads, mean_frequency_ghz, mean_qp:
        Averages of the applied configuration (Table I reports the first two).
    qos_violation_pct:
        Δ — percentage of frames below the FPS target.
    """

    session_id: str
    resolution_class: ResolutionClass
    frames: int
    mean_fps: float
    mean_psnr_db: float
    mean_bitrate_mbps: float
    mean_threads: float
    mean_frequency_ghz: float
    mean_qp: float
    qos_violation_pct: float


@dataclasses.dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated results of one multi-user run.

    Attributes
    ----------
    sessions:
        Per-session summaries keyed by session id.
    mean_power_w:
        Time-weighted average package power over the run.
    energy_j:
        Total package energy over the run.
    duration_s:
        Simulated wall-clock duration of the run.
    mean_fps:
        Average per-frame FPS over all sessions (Table II's "FPS" column).
    mean_threads:
        Average thread count over all frames (Table II's "Nth" column).
    mean_frequency_ghz:
        Average frequency over all frames.
    mean_psnr_db:
        Average PSNR over all frames.
    qos_violation_pct:
        Δ over all frames of all sessions.
    """

    sessions: Mapping[str, SessionSummary]
    mean_power_w: float
    energy_j: float
    duration_s: float
    mean_fps: float
    mean_threads: float
    mean_frequency_ghz: float
    mean_psnr_db: float
    qos_violation_pct: float

    def sessions_by_class(self, resolution_class: ResolutionClass) -> list[SessionSummary]:
        """Session summaries restricted to one resolution class."""
        return [
            s for s in self.sessions.values() if s.resolution_class is resolution_class
        ]


def summarize_session(
    session_id: str, records: Sequence[FrameRecord]
) -> SessionSummary:
    """Aggregate the frames of one session."""
    if not records:
        raise ValueError(f"session {session_id!r} has no frame records")
    n = len(records)
    return SessionSummary(
        session_id=session_id,
        resolution_class=records[0].resolution_class,
        frames=n,
        mean_fps=ordered_sum(r.fps for r in records) / n,
        mean_psnr_db=ordered_sum(r.psnr_db for r in records) / n,
        mean_bitrate_mbps=ordered_sum(r.bitrate_mbps for r in records) / n,
        mean_threads=ordered_sum(r.threads for r in records) / n,
        mean_frequency_ghz=ordered_sum(r.frequency_ghz for r in records) / n,
        mean_qp=ordered_sum(r.qp for r in records) / n,
        qos_violation_pct=qos_violation_pct(records),
    )


def empty_experiment_summary(
    power_samples: Sequence[PowerSample] = (),
) -> ExperimentSummary:
    """An all-zero summary for a run that served no sessions.

    ``summarize_experiment`` deliberately rejects empty inputs (a run that
    was supposed to serve sessions but has no records is a bug); callers for
    which emptiness is legitimate — e.g. an idle, session-less orchestrator —
    use this constructor instead.  Power statistics still reflect any idle
    samples recorded.
    """
    energy, total_time, mean_power = power_trace_stats(power_samples)
    return ExperimentSummary(
        sessions={},
        mean_power_w=mean_power,
        energy_j=energy,
        duration_s=total_time,
        mean_fps=0.0,
        mean_threads=0.0,
        mean_frequency_ghz=0.0,
        mean_psnr_db=0.0,
        qos_violation_pct=0.0,
    )


def summarize_experiment(
    records_by_session: Mapping[str, Sequence[FrameRecord]],
    power_samples: Sequence[PowerSample],
) -> ExperimentSummary:
    """Aggregate a whole run (all sessions plus the server power trace)."""
    if not records_by_session:
        raise ValueError("no session records to summarise")
    sessions = {
        session_id: summarize_session(session_id, records)
        for session_id, records in records_by_session.items()
    }
    all_records = [r for records in records_by_session.values() for r in records]
    n = len(all_records)

    energy, total_time, mean_power = power_trace_stats(power_samples)

    return ExperimentSummary(
        sessions=sessions,
        mean_power_w=mean_power,
        energy_j=energy,
        duration_s=total_time,
        mean_fps=ordered_sum(r.fps for r in all_records) / n,
        mean_threads=ordered_sum(r.threads for r in all_records) / n,
        mean_frequency_ghz=ordered_sum(r.frequency_ghz for r in all_records) / n,
        mean_psnr_db=ordered_sum(r.psnr_db for r in all_records) / n,
        qos_violation_pct=qos_violation_pct(all_records),
    )
