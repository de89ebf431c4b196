"""A transcoding session: one user's playlist, controller and transcoder.

Both stepping engines close MAMUT's per-frame loop through one pair of
calls per session and step:

1. :meth:`TranscodingSession.decide` runs the controller for the next frame
   and remembers its decision;
2. :meth:`TranscodingSession.commit` stores the frame's record in the
   session's block of its :class:`~repro.metrics.records.FrameLedger`,
   advances to the next frame (or the next video of the playlist) and,
   while the session is still active, adds the frame's measurements to the
   controller's observation window.  :meth:`TranscodingSession.commit_batch`
   is its batch form, for many sessions at once.  These are the only places
   a frame is observed, so the window a controller averages is the same on
   either engine.

The scalar engine wraps the pair: :meth:`TranscodingSession.prepare` decides
and returns the resource demand the server needs for its allocation, and
:meth:`TranscodingSession.execute` transcodes the frame under the granted
contention scale and server power, then commits it.  The batch engine
(:mod:`repro.cluster.batch`) decides per session, evaluates the transcode
math fleet-wide in one NumPy batch and commits every session's results
with one ``commit_batch`` call.
Sessions running a stock MAMUT controller skip ``decide`` and only commit:
the engine decides for all of them at once
(:meth:`~repro.core.mamut.MamutBatch.decide`), reading their windows itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.controller import Controller, Decision
from repro.errors import ScenarioError
from repro.hevc.params import EncoderConfig, Preset
from repro.hevc.transcoder import Transcoder
from repro.metrics.records import FrameLedger, FrameRecord, FrameRecordView
from repro.numeric import ordered_sum
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
    ledger:
        The run's frame ledger, in which the session reserves one block of
        rows, one per frame left in its playlist; a private ledger is made
        when omitted.

    ``records`` is a live, read-only view of the committed frames: it
    grows with every commit and builds a
    :class:`~repro.metrics.records.FrameRecord` only when one is read.  A
    commit past the reserved block (the playlist grew after construction)
    raises :class:`~repro.errors.ScenarioError`.
    """

    def __init__(
        self,
        request: TranscodingRequest,
        controller: Controller,
        playlist: Optional[Sequence[VideoSequence]] = None,
        transcoder: Optional[Transcoder] = None,
        preset: Optional[Preset] = None,
        start_frame_index: int = 0,
        ledger: Optional[FrameLedger] = None,
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

        self._video_index = 0
        #: True while there are frames left to transcode.  Kept beside
        #: ``_video_index``, which only ``_next_video`` and ``terminate`` move.
        self.active = True
        self._frame_index = start_frame_index
        self._video_frames = len(self.playlist[0])
        self._pending: Optional[Decision] = None
        # The session's block of the ledger: rows _first_row to _end_row,
        # the next frame going to _row.
        self._ledger = ledger if ledger is not None else FrameLedger()
        frames = self.total_frames - start_frame_index
        self._first_row = self._row = self._ledger.reserve(frames)
        self._end_row = self._first_row + frames

    # -- identity / progress --------------------------------------------------------

    @property
    def session_id(self) -> str:
        """Identifier of the session (the requesting user's id)."""
        return self.request.user_id

    @property
    def current_video(self) -> VideoSequence:
        """The video currently being transcoded."""
        if not self.active:
            raise ScenarioError(f"session {self.session_id!r} has finished")
        return self.playlist[self._video_index]

    @property
    def step(self) -> int:
        """Number of frames transcoded so far (across the whole playlist)."""
        return self._row - self._first_row

    @property
    def records(self) -> FrameRecordView:
        """The committed frames' records, in step order (a live view)."""
        return FrameRecordView(self._ledger, self, self._first_row)

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
        return ordered_sum(len(video) for video in self.playlist)

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
        self.active = False
        self._frame_index = 0
        self._pending = None
        # Close the ledger block, so no later commit can write to it.
        self._end_row = self._row

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
        decision = self.controller.decide(self.step)
        self._pending = decision
        return decision

    def commit(self, record: FrameRecord) -> None:
        """Close the step: record the frame and advance the playlist.

        The record's per-frame fields go to the session's next ledger row;
        its session id, step, video name, resolution class and target FPS
        are the session's own.  The frame's fps, PSNR, bitrate and server
        power join the controller's observation window, after a video change
        has reset the controller, so the next decision of a still-active
        session sees them.  Sessions whose controller decides out-of-band
        (the batch engine's :class:`~repro.core.mamut.MamutBatch`) commit
        without a preceding :meth:`decide`.
        """
        if not self.active:
            raise ScenarioError(f"session {self.session_id!r} has finished")
        row = self._row
        if row >= self._end_row:
            raise ScenarioError(self._past_block())
        self._pending = None
        ledger = self._ledger
        ledger.ints[row] = (record.frame_index, record.qp, record.threads, self._video_index)
        ledger.floats[row] = (
            record.frequency_ghz,
            record.fps,
            record.psnr_db,
            record.bitrate_mbps,
            record.encode_time_s,
            record.power_w,
        )
        self._row = row + 1
        frame = self._frame_index + 1
        if frame < self._video_frames:
            self._frame_index = frame
        elif not self._next_video():
            return
        self.controller.window.add(
            record.fps, record.psnr_db, record.bitrate_mbps, record.power_w
        )

    @staticmethod
    def commit_batch(
        sessions: Sequence["TranscodingSession"],
        frame_index: Sequence[int],
        qp: np.ndarray,
        threads: np.ndarray,
        frequency_ghz: np.ndarray,
        fps: np.ndarray,
        psnr_db: np.ndarray,
        bitrate_mbps: np.ndarray,
        encode_time_s: np.ndarray,
        power_w: np.ndarray,
    ) -> list[int]:
        """:meth:`commit` for many sessions at once (the batch engine's scatter).

        Every argument after ``sessions`` holds one value per session, the
        fields of the frame :meth:`commit` would take.  The frames go to
        their sessions' ledgers as one block write per ledger, then one
        loop moves each session's counters and observation window forward
        exactly as :meth:`commit` does.  Nothing is written or moved when
        any session has no row left in its block (it finished, or its
        playlist grew).  Returns the positions of the sessions that started
        a new video and are still active.
        """
        rows = np.array([session._row for session in sessions])
        past = np.flatnonzero(rows >= [session._end_row for session in sessions])
        if len(past):
            raise ScenarioError(sessions[past[0]]._past_block())
        ints = np.array(
            (frame_index, qp, threads, [session._video_index for session in sessions])
        ).T
        floats = np.array(
            (frequency_ghz, fps, psnr_db, bitrate_mbps, encode_time_s, power_w)
        ).T
        for ledger, positions in _ledger_groups(sessions):
            ledger.ints[rows[positions]] = ints[positions]
            ledger.floats[rows[positions]] = floats[positions]

        moved = []
        for position, session, fps_, psnr_, bitrate_, power_ in zip(
            range(len(sessions)),
            sessions,
            fps.tolist(),
            psnr_db.tolist(),
            bitrate_mbps.tolist(),
            power_w.tolist(),
        ):
            session._pending = None
            session._row += 1
            frame = session._frame_index + 1
            if frame < session._video_frames:
                session._frame_index = frame
            elif session._next_video():
                moved.append(position)
            else:
                continue
            session.controller.window.add(fps_, psnr_, bitrate_, power_)
        return moved

    @staticmethod
    def last_frame_violations(sessions: Sequence["TranscodingSession"]) -> int:
        """How many of ``sessions`` committed their last frame below their FPS target.

        Every session must have committed a frame.
        """
        if not sessions:
            return 0
        rows = np.array([session._row - 1 for session in sessions])
        targets = np.array([session.request.target_fps for session in sessions])
        return ordered_sum(
            ledger.violations(rows[positions], targets[positions])
            for ledger, positions in _ledger_groups(sessions)
        )

    def _next_video(self) -> bool:
        """Move to the next video of the playlist; False when none is left."""
        self._frame_index = 0
        self._video_index += 1
        self.active = self._video_index < len(self.playlist)
        if not self.active:
            return False
        # A new video starts: clear the controller's per-video transient
        # state while keeping its learned knowledge (Scenario II).
        self._video_frames = len(self.playlist[self._video_index])
        self.controller.reset()
        return True

    def _past_block(self) -> str:
        return (
            f"session {self.session_id!r} has no row left in its frame ledger "
            f"block of {self._end_row - self._first_row} frames (it finished, "
            "or its playlist grew after it was built)"
        )

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

        record = FrameRecord(
            session_id=self.session_id,
            step=self.step,
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
        self.commit(record)
        return record


def _ledger_groups(sessions: Sequence[TranscodingSession]) -> list[tuple]:
    """``(ledger, positions)`` per ledger the sessions write to.

    A run's sessions share one ledger, whose positions are a basic slice;
    sessions built by hand each have their own.
    """
    ledgers = [session._ledger for session in sessions]
    if ledgers.count(ledgers[0]) == len(ledgers):
        return [(ledgers[0], slice(None))]
    groups: dict[int, tuple] = {}
    for position, ledger in enumerate(ledgers):
        groups.setdefault(id(ledger), (ledger, []))[1].append(position)
    return [(ledger, np.array(positions)) for ledger, positions in groups.values()]
