"""A transcoding session: one user's playlist, controller and transcoder.

Both stepping engines close MAMUT's per-frame loop through one pair of
calls per session and step:

1. :meth:`TranscodingSession.decide` runs the controller for the next frame
   and remembers its decision;
2. :meth:`TranscodingSession.commit` takes the frame's record and the
   observation fed back to the controller, and advances to the next frame
   (or the next video of the playlist).

The scalar engine wraps the pair: :meth:`TranscodingSession.prepare` decides
and returns the resource demand the server needs for its allocation, and
:meth:`TranscodingSession.execute` transcodes the frame under the granted
contention scale and server power, then commits it.  The batch engine
(:mod:`repro.cluster.batch`) decides per session, evaluates the transcode
math fleet-wide in one NumPy batch and commits each session's results.
Sessions whose controller its vectorized MAMUT driver advances skip
``decide`` and only commit.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.controller import Controller, Decision
from repro.core.observation import Observation
from repro.errors import ScenarioError
from repro.hevc.params import EncoderConfig, Preset
from repro.hevc.transcoder import Transcoder
from repro.metrics.records import FrameRecord
from repro.platform.server import SessionDemand
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass, VideoSequence

__all__ = ["TranscodingSession"]

#: Presets used in the paper's evaluation (Sec. V-A).
HR_PRESET = Preset.ULTRAFAST
LR_PRESET = Preset.SLOW


class TranscodingSession:
    """State of one user's transcoding work on the server.

    Parameters
    ----------
    request:
        The user's transcoding request (first video, target FPS, bandwidth).
    controller:
        The run-time manager deciding QP/threads/frequency for this session.
    playlist:
        Videos to transcode back-to-back; defaults to the request's sequence
        only.  Scenario II uses playlists of five videos per user.
    transcoder:
        The decoder+encoder pipeline; a default-calibrated one is created
        when omitted.
    preset:
        Encoder preset; defaults to the paper's choice per resolution class
        (ultrafast for HR, slow for LR).
    start_frame_index:
        First frame of the playlist's first video to transcode; defaults
        to 0.  The cluster's checkpointed crash recovery dispatches retry
        sessions from the last checkpointed frame of the interrupted video
        instead of replaying it from the start.
    """

    def __init__(
        self,
        request: TranscodingRequest,
        controller: Controller,
        playlist: Optional[Sequence[VideoSequence]] = None,
        transcoder: Optional[Transcoder] = None,
        preset: Optional[Preset] = None,
        start_frame_index: int = 0,
    ) -> None:
        self.request = request
        self.controller = controller
        self.playlist: list[VideoSequence] = (
            list(playlist) if playlist is not None else [request.sequence]
        )
        if not self.playlist:
            raise ScenarioError(f"session {request.user_id!r} has an empty playlist")
        if not 0 <= start_frame_index < len(self.playlist[0]):
            raise ScenarioError(
                f"start_frame_index {start_frame_index} outside first video "
                f"of session {request.user_id!r} ({len(self.playlist[0])} frames)"
            )
        self.transcoder = transcoder if transcoder is not None else Transcoder()
        self._preset_override = preset

        self.records: list[FrameRecord] = []
        self.last_observation: Optional[Observation] = None
        self._video_index = 0
        self._frame_index = start_frame_index
        self._step = 0
        self._pending: Optional[Decision] = None

    # -- identity / progress --------------------------------------------------------

    @property
    def session_id(self) -> str:
        """Identifier of the session (the requesting user's id)."""
        return self.request.user_id

    @property
    def active(self) -> bool:
        """True while there are frames left to transcode."""
        return self._video_index < len(self.playlist)

    @property
    def current_video(self) -> VideoSequence:
        """The video currently being transcoded."""
        if not self.active:
            raise ScenarioError(f"session {self.session_id!r} has finished")
        return self.playlist[self._video_index]

    @property
    def step(self) -> int:
        """Number of frames transcoded so far (across the whole playlist)."""
        return self._step

    @property
    def video_index(self) -> int:
        """Index of the current video within the playlist."""
        return self._video_index

    @property
    def frame_index(self) -> int:
        """Index of the next frame within the current video."""
        return self._frame_index

    @property
    def total_frames(self) -> int:
        """Total frames across the playlist."""
        return sum(len(video) for video in self.playlist)

    def terminate(self) -> None:
        """Kill the session in place (its server crashed mid-playlist).

        Marks the playlist as exhausted and discards any half-stepped
        decision, so the session reads as finished (``active`` False) and
        is pruned from its orchestrator's active roster without ever being
        stepped again.  Records already transcoded are kept — the crashed
        server's partial work stays in the ledger.  Used by the cluster's
        failure-recovery path; the salvaged remainder of the playlist is
        re-dispatched as a fresh session.
        """
        self._video_index = len(self.playlist)
        self._frame_index = 0
        self._pending = None

    def preset_for(self, video: VideoSequence) -> Preset:
        """Encoder preset used for a given video."""
        if self._preset_override is not None:
            return self._preset_override
        return (
            HR_PRESET if video.resolution_class is ResolutionClass.HR else LR_PRESET
        )

    # -- step protocol ------------------------------------------------------------------

    def decide(self) -> Decision:
        """Run the controller for the next frame and remember its decision.

        Must be followed by exactly one :meth:`commit` (or, on the scalar
        engine, :meth:`execute`) call.
        """
        if not self.active:
            raise ScenarioError(f"session {self.session_id!r} has finished")
        if self._pending is not None:
            raise ScenarioError("decide() called twice without commit()")
        decision = self.controller.decide(self._step, self.last_observation)
        self._pending = decision
        return decision

    def commit(self, record: FrameRecord, observation: Observation) -> None:
        """Close the step: record the frame and advance the playlist.

        ``observation`` is what the controller sees at its next decision.
        Sessions whose controller is advanced out-of-band (the batch
        engine's MAMUT driver) commit without a preceding :meth:`decide`.
        """
        if not self.active:
            raise ScenarioError(f"session {self.session_id!r} has finished")
        self._pending = None
        self.records.append(record)
        self.last_observation = observation
        self._step += 1
        self._frame_index += 1
        if self._frame_index >= len(self.playlist[self._video_index]):
            self._frame_index = 0
            self._video_index += 1
            # A new video starts: clear the controller's per-video transient
            # state while keeping its learned knowledge (Scenario II).
            if self.active:
                self.controller.reset()

    def _encoder_config(
        self, decision: Decision, video: VideoSequence
    ) -> EncoderConfig:
        return EncoderConfig(
            qp=decision.qp, threads=decision.threads, preset=self.preset_for(video)
        )

    def prepare(self) -> SessionDemand:
        """Decide the next frame's configuration (scalar engine).

        Returns the resource demand the orchestrator hands to the server.
        Must be followed by exactly one :meth:`execute` call.
        """
        decision = self.decide()
        video = self.current_video
        activity = self.transcoder.activity_factor(
            video[self._frame_index], self._encoder_config(decision, video)
        )
        return SessionDemand(
            session_id=self.session_id,
            threads=decision.threads,
            frequency_ghz=decision.frequency_ghz,
            activity=activity,
        )

    def execute(self, contention_scale: float, server_power_w: float) -> FrameRecord:
        """Transcode the decided frame under the server's allocation, then commit."""
        decision = self._pending
        if decision is None:
            raise ScenarioError("execute() called without a preceding prepare()")
        video = self.current_video
        frame = video[self._frame_index]
        result = self.transcoder.transcode_frame(
            frame,
            self._encoder_config(decision, video),
            frequency_ghz=decision.frequency_ghz,
            contention_scale=contention_scale,
        )

        observation = Observation(
            fps=result.fps,
            psnr_db=result.psnr_db,
            bitrate_mbps=result.bitrate_mbps,
            power_w=server_power_w,
        )
        record = FrameRecord(
            session_id=self.session_id,
            step=self._step,
            video_name=video.name,
            frame_index=frame.index,
            resolution_class=video.resolution_class,
            qp=decision.qp,
            threads=decision.threads,
            frequency_ghz=decision.frequency_ghz,
            fps=result.fps,
            psnr_db=result.psnr_db,
            bitrate_mbps=result.bitrate_mbps,
            encode_time_s=result.total_time_s,
            power_w=server_power_w,
            target_fps=self.request.target_fps,
        )
        self.commit(record, observation)
        return record
