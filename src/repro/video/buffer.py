"""Client-side playback buffer model.

The paper's throughput reward argues that frames encoded faster than the
target "can be buffered" and "used to compensate the overall framerate if, at
some points, FPS temporarily drops below the target" (Sec. III-D-a).  This
module models that client buffer explicitly so that experiments can report a
user-facing metric — playback stalls — in addition to the per-frame QoS
violation percentage.

The model: the client starts playback after ``startup_frames`` frames have
arrived, then consumes one frame every ``1/target_fps`` seconds; the server
delivers frames as they finish transcoding.  Whenever the buffer is empty at
consumption time, playback stalls until the next frame arrives.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.constants import TARGET_FPS
from repro.errors import VideoError
from repro.metrics.records import FrameRecord
from repro.numeric import ordered_sum

__all__ = ["PlaybackStats", "PlaybackBuffer", "playback_stats_from_records"]


@dataclasses.dataclass(frozen=True)
class PlaybackStats:
    """Result of simulating playback of a transcoded stream.

    Attributes
    ----------
    frames:
        Number of frames played.
    stall_count:
        Number of distinct stall events (buffer underruns).
    stall_time_s:
        Total time spent stalled, excluding the initial startup delay.
    startup_delay_s:
        Time from the start of transcoding until playback began.
    playback_time_s:
        Total wall-clock time from playback start to the last frame shown.
    stall_ratio:
        ``stall_time_s / playback_time_s`` (0 when playback never started).
    max_buffer_frames:
        Largest number of frames that were ever queued in the buffer.
    """

    frames: int
    stall_count: int
    stall_time_s: float
    startup_delay_s: float
    playback_time_s: float
    stall_ratio: float
    max_buffer_frames: int


class PlaybackBuffer:
    """Simulates a fixed-rate consumer fed by variable-rate frame arrivals.

    Parameters
    ----------
    target_fps:
        Playback rate of the client.
    startup_frames:
        Frames that must be buffered before playback starts.
    """

    def __init__(self, target_fps: float = TARGET_FPS, startup_frames: int = 8) -> None:
        if target_fps <= 0:
            raise VideoError(f"target_fps must be positive, got {target_fps}")
        if startup_frames < 1:
            raise VideoError(f"startup_frames must be >= 1, got {startup_frames}")
        self.target_fps = float(target_fps)
        self.startup_frames = int(startup_frames)

    def simulate(self, frame_times_s: Sequence[float] | Iterable[float]) -> PlaybackStats:
        """Play a stream whose i-th frame took ``frame_times_s[i]`` to produce."""
        frame_times = [float(t) for t in frame_times_s]
        if not frame_times:
            raise VideoError("cannot simulate playback of an empty stream")
        if any(t <= 0 for t in frame_times):
            raise VideoError("frame production times must be positive")

        # Arrival time of each frame at the client (production is sequential).
        arrivals = []
        clock = 0.0
        for production_time in frame_times:
            clock += production_time
            arrivals.append(clock)

        frame_period = 1.0 / self.target_fps
        startup_index = min(self.startup_frames, len(arrivals)) - 1
        playback_start = arrivals[startup_index]

        stall_count = 0
        stall_time = 0.0
        next_play_time = playback_start
        in_stall = False
        max_buffered = 0

        for index, arrival in enumerate(arrivals):
            if arrival > next_play_time:
                # The frame is late: playback stalls until it arrives.
                stall_time += arrival - next_play_time
                if not in_stall:
                    stall_count += 1
                in_stall = True
                next_play_time = arrival + frame_period
            else:
                in_stall = False
                buffered = ordered_sum(1 for a in arrivals[index + 1:] if a <= next_play_time)
                max_buffered = max(max_buffered, buffered)
                next_play_time += frame_period

        last_play_time = next_play_time - frame_period
        playback_time = max(last_play_time - playback_start, frame_period)
        return PlaybackStats(
            frames=len(arrivals),
            stall_count=stall_count,
            stall_time_s=stall_time,
            startup_delay_s=playback_start,
            playback_time_s=playback_time,
            stall_ratio=stall_time / playback_time,
            max_buffer_frames=max_buffered,
        )


def playback_stats_from_records(
    records: Sequence[FrameRecord],
    target_fps: float | None = None,
    startup_frames: int = 8,
) -> PlaybackStats:
    """Playback statistics of one session's frame records.

    Uses each record's end-to-end processing time as the frame production
    time and the session's FPS target (or an explicit override) as the
    playback rate.
    """
    if not records:
        raise VideoError("cannot compute playback statistics without records")
    fps = target_fps if target_fps is not None else records[0].target_fps
    buffer = PlaybackBuffer(target_fps=fps, startup_frames=startup_frames)
    return buffer.simulate([record.encode_time_s for record in records])
