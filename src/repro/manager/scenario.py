"""Scenario builders reproducing the paper's two evaluation scenarios.

* **Scenario I** (Sec. V-B): a fixed number of HR and LR videos of different
  contents are served simultaneously; each user transcodes exactly one video.
* **Scenario II** (Sec. V-C): batches of transcoding requests with variable
  resolution requirements; each initial video is followed by a sequence of
  four randomly selected videos of the same resolution, emulating users
  coming and going.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.constants import DEFAULT_BANDWIDTH_MBPS, TARGET_FPS
from repro.errors import ScenarioError
from repro.numeric import ordered_sum
from repro.video.catalog import hr_sequences, lr_sequences, make_sequence, random_sequence
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass, VideoSequence

__all__ = ["SessionSpec", "scenario_one", "scenario_two"]


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """One user's workload in a scenario.

    Attributes
    ----------
    request:
        The transcoding request (carries user id, FPS target and bandwidth).
    playlist:
        The videos the user transcodes back-to-back; the first entry is the
        request's own sequence.
    """

    request: TranscodingRequest
    playlist: tuple[VideoSequence, ...]

    def __post_init__(self) -> None:
        if not self.playlist:
            raise ScenarioError("a session spec needs at least one video")

    @property
    def resolution_class(self) -> ResolutionClass:
        """Resolution class of the user's videos."""
        return self.request.resolution_class

    @property
    def total_frames(self) -> int:
        """Total number of frames across the playlist."""
        return ordered_sum(len(video) for video in self.playlist)


def _build_request(
    user_id: str,
    sequence: VideoSequence,
    target_fps: float,
    bandwidth_mbps: float,
) -> TranscodingRequest:
    return TranscodingRequest(
        user_id=user_id,
        sequence=sequence,
        target_fps=target_fps,
        bandwidth_mbps=bandwidth_mbps,
    )


def scenario_one(
    num_hr: int,
    num_lr: int,
    num_frames: int = 480,
    seed: int = 0,
    target_fps: float = TARGET_FPS,
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS,
) -> list[SessionSpec]:
    """Scenario I: ``num_hr`` HR videos and ``num_lr`` LR videos, one each per user.

    Videos are drawn from the catalog round-robin (different contents per
    user) with per-user content seeds, and truncated/extended to
    ``num_frames`` frames so all users finish together.
    """
    if num_hr < 0 or num_lr < 0 or num_hr + num_lr == 0:
        raise ScenarioError("scenario I needs at least one video")
    if num_frames < 1:
        raise ScenarioError(f"num_frames must be >= 1, got {num_frames}")

    specs: list[SessionSpec] = []
    hr_names = hr_sequences()
    lr_names = lr_sequences()
    for i in range(num_hr):
        name = hr_names[i % len(hr_names)]
        sequence = make_sequence(name, num_frames=num_frames, seed=seed + i)
        request = _build_request(f"hr-{i}", sequence, target_fps, bandwidth_mbps)
        specs.append(SessionSpec(request=request, playlist=(sequence,)))
    for i in range(num_lr):
        name = lr_names[i % len(lr_names)]
        sequence = make_sequence(name, num_frames=num_frames, seed=seed + 100 + i)
        request = _build_request(f"lr-{i}", sequence, target_fps, bandwidth_mbps)
        specs.append(SessionSpec(request=request, playlist=(sequence,)))
    return specs


def scenario_two(
    num_hr: int,
    num_lr: int,
    followers: int = 4,
    frames_per_video: int = 120,
    seed: int = 0,
    target_fps: float = TARGET_FPS,
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS,
) -> list[SessionSpec]:
    """Scenario II: each user's initial video is followed by ``followers``
    randomly selected videos of the same resolution (paper Sec. V-C).

    Parameters
    ----------
    num_hr, num_lr:
        Number of HR and LR users in the batch.
    followers:
        Videos following the initial one per user (the paper uses four).
    frames_per_video:
        Length of every video in the playlist.
    seed:
        Seed controlling both the random video selection and the content
        realisations.
    """
    if num_hr < 0 or num_lr < 0 or num_hr + num_lr == 0:
        raise ScenarioError("scenario II needs at least one video")
    if followers < 0:
        raise ScenarioError(f"followers must be >= 0, got {followers}")
    if frames_per_video < 1:
        raise ScenarioError(f"frames_per_video must be >= 1, got {frames_per_video}")

    rng = np.random.default_rng(seed)
    specs: list[SessionSpec] = []

    def build_playlist(resolution_class: ResolutionClass, user_seed: int) -> tuple[VideoSequence, ...]:
        names = (
            hr_sequences()
            if resolution_class is ResolutionClass.HR
            else lr_sequences()
        )
        initial_name = names[user_seed % len(names)]
        playlist = [
            make_sequence(initial_name, num_frames=frames_per_video, seed=user_seed)
        ]
        for _ in range(followers):
            playlist.append(
                random_sequence(resolution_class, rng=rng, num_frames=frames_per_video)
            )
        return tuple(playlist)

    for i in range(num_hr):
        playlist = build_playlist(ResolutionClass.HR, seed + i)
        request = _build_request(f"hr-{i}", playlist[0], target_fps, bandwidth_mbps)
        specs.append(SessionSpec(request=request, playlist=playlist))
    for i in range(num_lr):
        playlist = build_playlist(ResolutionClass.LR, seed + 100 + i)
        request = _build_request(f"lr-{i}", playlist[0], target_fps, bandwidth_mbps)
        specs.append(SessionSpec(request=request, playlist=playlist))
    return specs


def scenario_label(specs: Sequence[SessionSpec]) -> str:
    """Compact label such as ``"2HR3LR"`` for a list of session specs."""
    num_hr = ordered_sum(1 for s in specs if s.resolution_class is ResolutionClass.HR)
    num_lr = ordered_sum(1 for s in specs if s.resolution_class is ResolutionClass.LR)
    parts = []
    if num_hr:
        parts.append(f"{num_hr}HR")
    if num_lr:
        parts.append(f"{num_lr}LR")
    return "".join(parts) if parts else "empty"
