"""Dynamic workload generation: timestamped request arrivals for the cluster.

The paper's experiments start a fixed cohort of sessions at step 0; a
production transcoding service instead sees requests *arriving over time*.
This module turns composable traffic models into a deterministic stream of
:class:`WorkloadEvent` arrivals:

* :class:`PoissonTraffic` — stationary arrivals at a constant expected rate;
* :class:`DiurnalTraffic` — a day/night sinusoid over a base rate;
* :class:`FlashCrowdTraffic` — a transient burst multiplying the base rate
  inside a step window (a premiere, a failover, a viral event);
* :class:`CompositeTraffic` — the superposition of any of the above.

Arrival counts per step are Poisson draws with the model's instantaneous
rate, so the same ``(traffic, seed)`` pair always reproduces the identical
trace — a hard requirement for comparable fleet-sizing experiments.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_BANDWIDTH_MBPS, TARGET_FPS
from repro.errors import ClusterError
from repro.numeric import ordered_sum
from repro.video.catalog import random_sequence
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass, VideoSequence

__all__ = [
    "TrafficModel",
    "PoissonTraffic",
    "DiurnalTraffic",
    "FlashCrowdTraffic",
    "CompositeTraffic",
    "WorkloadEvent",
    "WorkloadGenerator",
]


class TrafficModel(abc.ABC):
    """Expected arrival intensity as a function of the cluster step."""

    @abc.abstractmethod
    def rate(self, step: int) -> float:
        """Expected number of request arrivals during ``step`` (>= 0)."""


class PoissonTraffic(TrafficModel):
    """Stationary traffic: a constant expected arrival rate per step."""

    def __init__(self, rate_per_step: float) -> None:
        if rate_per_step < 0:
            raise ClusterError(f"rate_per_step must be >= 0, got {rate_per_step}")
        self.rate_per_step = float(rate_per_step)

    def rate(self, step: int) -> float:
        return self.rate_per_step


class DiurnalTraffic(TrafficModel):
    """Day/night sinusoid: ``base * (1 + amplitude * sin(2*pi*step/period))``.

    Parameters
    ----------
    base_rate:
        Mean arrival rate per step.
    amplitude:
        Relative swing in ``[0, 1]``; 1.0 drops the trough to zero traffic.
    period:
        Steps per full day/night cycle.
    phase:
        Fraction of a period by which the peak is shifted.
    """

    def __init__(
        self,
        base_rate: float,
        amplitude: float = 0.5,
        period: int = 200,
        phase: float = 0.0,
    ) -> None:
        if base_rate < 0:
            raise ClusterError(f"base_rate must be >= 0, got {base_rate}")
        if not 0.0 <= amplitude <= 1.0:
            raise ClusterError(f"amplitude must be in [0, 1], got {amplitude}")
        if period < 1:
            raise ClusterError(f"period must be >= 1, got {period}")
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period = int(period)
        self.phase = float(phase)

    def rate(self, step: int) -> float:
        angle = 2.0 * math.pi * (step / self.period + self.phase)
        return self.base_rate * (1.0 + self.amplitude * math.sin(angle))


class FlashCrowdTraffic(TrafficModel):
    """A transient burst: base traffic multiplied inside a step window."""

    def __init__(
        self,
        base_rate: float,
        peak_multiplier: float = 5.0,
        start: int = 0,
        duration: int = 50,
    ) -> None:
        if base_rate < 0:
            raise ClusterError(f"base_rate must be >= 0, got {base_rate}")
        if peak_multiplier < 1.0:
            raise ClusterError(
                f"peak_multiplier must be >= 1, got {peak_multiplier}"
            )
        if duration < 1:
            raise ClusterError(f"duration must be >= 1, got {duration}")
        self.base_rate = float(base_rate)
        self.peak_multiplier = float(peak_multiplier)
        self.start = int(start)
        self.duration = int(duration)

    def rate(self, step: int) -> float:
        if self.start <= step < self.start + self.duration:
            return self.base_rate * self.peak_multiplier
        return self.base_rate


class CompositeTraffic(TrafficModel):
    """Superposition of traffic models (rates add)."""

    def __init__(self, models: Sequence[TrafficModel]) -> None:
        if not models:
            raise ClusterError("CompositeTraffic needs at least one model")
        self.models = tuple(models)

    def rate(self, step: int) -> float:
        return ordered_sum(model.rate(step) for model in self.models)


@dataclasses.dataclass(frozen=True)
class WorkloadEvent:
    """One request arriving at the cluster.

    Attributes
    ----------
    arrival_step:
        Cluster step at which the request arrives.
    request:
        The transcoding request (user id, first video, FPS/bandwidth targets).
    playlist:
        Videos the session transcodes back-to-back (first is the request's).
    patience_steps:
        How many steps the user will wait in the admission queue before
        giving up.  ``None`` means infinite patience (the pre-overload
        behavior); queued requests past their patience are *dropped* by the
        cluster orchestrator, a ledger entry distinct from rejections.
    service_class:
        Label admission SLAs key on (stamped by the workload generator;
        defaults to the request's resolution class, e.g. ``"HR"``).
    """

    arrival_step: int
    request: TranscodingRequest
    playlist: tuple[VideoSequence, ...]
    patience_steps: Optional[int] = None
    service_class: str = ""

    def __post_init__(self) -> None:
        if self.patience_steps is not None and self.patience_steps < 0:
            raise ClusterError(
                f"patience_steps must be >= 0, got {self.patience_steps}"
            )
        if not self.service_class:
            object.__setattr__(
                self, "service_class", self.request.resolution_class.value
            )

    @property
    def total_frames(self) -> int:
        """Frames across the whole playlist."""
        return ordered_sum(len(video) for video in self.playlist)

    @property
    def deadline_step(self) -> Optional[int]:
        """Last step at which the request may still be admitted."""
        if self.patience_steps is None:
            return None
        return self.arrival_step + self.patience_steps

    def expired(self, step: int) -> bool:
        """True once the request has waited past its patience."""
        return self.patience_steps is not None and step > self.deadline_step


class WorkloadGenerator:
    """Deterministic stream of timestamped transcoding requests.

    Parameters
    ----------
    traffic:
        Arrival-intensity model.
    seed:
        Seeds both the arrival draws and the per-request content selection;
        identical ``(traffic parameters, seed)`` pairs yield identical traces.
    hr_fraction:
        Probability that an arriving request asks for an HR (1080p) video.
    playlist_videos:
        Videos per session playlist (Scenario-II style back-to-back viewing).
    frames_per_video:
        Length of every generated video.
    target_fps, bandwidth_mbps:
        QoS targets stamped on every request.
    patience_steps:
        Queue patience stamped on every event (``None`` = wait forever).
    patience_by_class:
        Per-:class:`~repro.video.sequence.ResolutionClass` patience
        overriding ``patience_steps`` — e.g. give HR premieres a deep
        deadline while LR traffic abandons quickly.
    """

    def __init__(
        self,
        traffic: TrafficModel,
        seed: int = 0,
        hr_fraction: float = 0.5,
        playlist_videos: int = 1,
        frames_per_video: int = 72,
        target_fps: float = TARGET_FPS,
        bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS,
        patience_steps: Optional[int] = None,
        patience_by_class: Optional[Mapping[ResolutionClass, Optional[int]]] = None,
    ) -> None:
        if not 0.0 <= hr_fraction <= 1.0:
            raise ClusterError(f"hr_fraction must be in [0, 1], got {hr_fraction}")
        if playlist_videos < 1:
            raise ClusterError(f"playlist_videos must be >= 1, got {playlist_videos}")
        if frames_per_video < 1:
            raise ClusterError(
                f"frames_per_video must be >= 1, got {frames_per_video}"
            )
        if patience_steps is not None and patience_steps < 0:
            raise ClusterError(
                f"patience_steps must be >= 0, got {patience_steps}"
            )
        self.traffic = traffic
        self.seed = int(seed)
        self.hr_fraction = float(hr_fraction)
        self.playlist_videos = int(playlist_videos)
        self.frames_per_video = int(frames_per_video)
        self.target_fps = float(target_fps)
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.patience_steps = patience_steps
        self.patience_by_class = (
            dict(patience_by_class) if patience_by_class is not None else {}
        )
        self._rng = np.random.default_rng(self.seed)
        self._next_user = 0
        self._consumed = False

    @property
    def consumed(self) -> bool:
        """True once the generator has produced any arrivals.

        The random stream advances as events are drawn, so a consumed
        generator no longer reproduces its trace from the start; build a
        fresh generator (same seed) for a comparable run.
        """
        return self._consumed

    def arrivals(self, step: int) -> list[WorkloadEvent]:
        """Requests arriving during ``step``.

        Consumes the generator's random stream: call with consecutive steps
        to reproduce a trace (or use :meth:`generate` for a whole trace).
        """
        rate = self.traffic.rate(step)
        if rate < 0:
            raise ClusterError(f"traffic model returned a negative rate at step {step}")
        self._consumed = True
        count = int(self._rng.poisson(rate))
        return [self._build_event(step) for _ in range(count)]

    def generate(self, duration: int) -> list[WorkloadEvent]:
        """The full arrival trace for ``duration`` steps."""
        if duration < 0:
            raise ClusterError(f"duration must be >= 0, got {duration}")
        events: list[WorkloadEvent] = []
        for step in range(duration):
            events.extend(self.arrivals(step))
        return events

    # -- internals -------------------------------------------------------------------

    def _build_event(self, step: int) -> WorkloadEvent:
        resolution_class = (
            ResolutionClass.HR
            if self._rng.random() < self.hr_fraction
            else ResolutionClass.LR
        )
        playlist = tuple(
            random_sequence(
                resolution_class, rng=self._rng, num_frames=self.frames_per_video
            )
            for _ in range(self.playlist_videos)
        )
        user_id = f"req-{self._next_user:05d}"
        self._next_user += 1
        request = TranscodingRequest(
            user_id=user_id,
            sequence=playlist[0],
            target_fps=self.target_fps,
            bandwidth_mbps=self.bandwidth_mbps,
        )
        patience = self.patience_by_class.get(resolution_class, self.patience_steps)
        return WorkloadEvent(
            arrival_step=step,
            request=request,
            playlist=playlist,
            patience_steps=patience,
            service_class=resolution_class.value,
        )
