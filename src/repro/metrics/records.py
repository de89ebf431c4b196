"""Per-frame and per-step measurement records.

Committed frames are stored as columns in a :class:`FrameLedger`, one per
run, which also keeps each session's cursor into its block of rows; a
:class:`FrameRecordView` reads a session's block and builds a
:class:`FrameRecord` only when one is read.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.video.sequence import ResolutionClass

__all__ = [
    "FrameRecord",
    "FrameLedger",
    "FrameRecordView",
    "PowerSample",
    "ScalingEvent",
    "FaultEvent",
    "FleetSample",
]


@dataclasses.dataclass(frozen=True)
class FrameRecord:
    """Everything measured while transcoding one frame of one session.

    Attributes
    ----------
    session_id:
        Session the frame belongs to.
    step:
        Global step index of the session (monotonic across the videos of a
        playlist).
    video_name:
        Name of the video the frame belongs to.
    frame_index:
        Frame index within its video.
    resolution_class:
        HR or LR.
    qp, threads, frequency_ghz:
        Configuration applied to the frame.
    fps:
        Instantaneous throughput achieved for the frame.
    psnr_db:
        Quality of the re-encoded frame.
    bitrate_mbps:
        Output bitrate at the delivery frame rate.
    encode_time_s:
        Wall-clock processing time of the frame (decode + encode).
    power_w:
        Package power of the server while the frame was processed.
    target_fps:
        The session's real-time target, for violation accounting.
    """

    session_id: str
    step: int
    video_name: str
    frame_index: int
    resolution_class: ResolutionClass
    qp: int
    threads: int
    frequency_ghz: float
    fps: float
    psnr_db: float
    bitrate_mbps: float
    encode_time_s: float
    power_w: float
    target_fps: float

    @property
    def is_violation(self) -> bool:
        """True when the frame was processed below the real-time target."""
        return self.fps < self.target_fps


class FrameLedger:
    """The frames of one run, stored as columns, and a cursor per session.

    Each session reserves one contiguous block of rows when it is built,
    sized to the frames left in its playlist, and writes its ``k``-th
    committed frame to the block's ``k``-th row.  ``cursors[block]`` is the
    row the block's session writes its next frame to (it starts at the
    block's first row), and ``ends[block]`` the row past the last one it
    may write; the session's step and frame index are read from its
    cursor, so the cursors are the engines' only frame counters.  Both
    forms of a commit advance the cursors, the batch form for many blocks
    with one array operation.  A row holds only what
    varies from frame to frame: four ints in ``ints`` (frame index, QP,
    threads and the frame's video index within the playlist) and six floats
    in ``floats`` (frequency, FPS, PSNR, bitrate, encode time and server
    power, in :data:`FLOAT_COLUMNS` order).  The rest of a
    :class:`FrameRecord` (session id, step, video name, resolution class
    and target FPS) comes from the session and the block.

    The columns grow by reallocation, so views read them through the
    ledger, never keep them.
    """

    #: Float columns, in row order; ``fps`` is column 1.
    FLOAT_COLUMNS = (
        "frequency_ghz",
        "fps",
        "psnr_db",
        "bitrate_mbps",
        "encode_time_s",
        "power_w",
    )

    __slots__ = ("ints", "floats", "reserved", "cursors", "ends", "blocks")

    def __init__(self) -> None:
        self.ints = np.empty((0, 4), dtype=np.int64)
        self.floats = np.empty((0, len(self.FLOAT_COLUMNS)))
        self.reserved = 0
        self.cursors = np.empty(1, dtype=np.int64)
        self.ends = np.empty(1, dtype=np.int64)
        #: Blocks reserved so far.
        self.blocks = 0

    def reserve(self, rows: int) -> int:
        """Reserve a block of ``rows`` rows; returns the block.

        The block's cursor starts at its first row.
        """
        first = self.reserved
        self.reserved = end = first + rows
        capacity = len(self.ints)
        if end > capacity:
            capacity = max(end, 2 * capacity)
            ints = np.empty((capacity, 4), dtype=np.int64)
            floats = np.empty((capacity, len(self.FLOAT_COLUMNS)))
            ints[:first] = self.ints[:first]
            floats[:first] = self.floats[:first]
            self.ints, self.floats = ints, floats
        block = self.blocks
        if block == len(self.cursors):
            self.cursors = np.concatenate([self.cursors, np.empty(block, dtype=np.int64)])
            self.ends = np.concatenate([self.ends, np.empty(block, dtype=np.int64)])
        self.cursors[block] = first
        self.ends[block] = end
        self.blocks = block + 1
        return block

    def violations(self, rows, targets) -> int:
        """How many of ``rows`` hold an FPS below the matching ``targets``."""
        return int(np.count_nonzero(self.floats[rows, 1] < targets))


class FrameRecordView(Sequence):
    """One session's frame records, read from its block of a :class:`FrameLedger`.

    Indexing and iteration build :class:`FrameRecord` objects on demand, with
    the semantics of a tuple: negative indices count from the end, a slice
    gives a tuple of records, ``==`` compares the records with another view,
    a tuple or a list, and ``repr`` is the ``repr`` of the records' tuple.

    ``session`` supplies what the rows do not hold: ``session_id``,
    ``request.target_fps`` and the ``playlist`` the rows' video indices point
    into.  A view built with ``length=None`` is live: its length is the
    session's ``step``, so it grows with every commit.  :meth:`fixed` gives
    a view that keeps its current length.
    """

    __slots__ = ("_ledger", "_session", "_first", "_length")

    def __init__(self, ledger: FrameLedger, session, first_row: int, length=None) -> None:
        self._ledger = ledger
        self._session = session
        self._first = first_row
        self._length = length

    def __len__(self) -> int:
        return self._session.step if self._length is None else self._length

    def fixed(self) -> "FrameRecordView":
        """A view of the records committed so far, which later commits do not grow."""
        return FrameRecordView(self._ledger, self._session, self._first, len(self))

    def __getitem__(self, index):
        positions = range(len(self))[index]
        if isinstance(index, slice):
            return tuple(map(self._record, positions))
        return self._record(positions)

    def __iter__(self):
        return self._records(0, len(self))

    def _record(self, step: int) -> FrameRecord:
        return next(self._records(step, step + 1))

    def _records(self, start: int, stop: int):
        """Build the records of steps ``start`` to ``stop``, reading their rows once."""
        session = self._session
        session_id = session.session_id
        target_fps = session.request.target_fps
        playlist = session.playlist
        rows = slice(self._first + start, self._first + stop)
        videos = {}
        for step, (frame_index, qp, threads, video_index), floats in zip(
            range(start, stop),
            self._ledger.ints[rows].tolist(),
            self._ledger.floats[rows].tolist(),
        ):
            video = videos.get(video_index)
            if video is None:
                sequence = playlist[video_index]
                videos[video_index] = video = (sequence.name, sequence.resolution_class)
            yield FrameRecord(
                session_id,
                step,
                video[0],
                frame_index,
                video[1],
                qp,
                threads,
                *floats,
                target_fps,
            )

    def fps_and_violations(self) -> tuple[list[float], int]:
        """The records' FPS values in order, and how many are below the target."""
        fps = self._ledger.floats[self._first : self._first + len(self), 1]
        return fps.tolist(), int(np.count_nonzero(fps < self._session.request.target_fps))

    def __eq__(self, other) -> bool:
        if isinstance(other, (FrameRecordView, tuple, list)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclasses.dataclass(frozen=True)
class PowerSample:
    """Package power over one orchestrator step.

    Attributes
    ----------
    step:
        Orchestrator step index.
    power_w:
        Package power during the step.
    duration_s:
        Wall-clock duration attributed to the step (mean frame time of the
        active sessions).
    active_sessions:
        Number of sessions that processed a frame in this step.
    """

    step: int
    power_w: float
    duration_s: float
    active_sessions: int


@dataclasses.dataclass(frozen=True)
class ScalingEvent:
    """One fleet resize executed by an autoscaling policy.

    Attributes
    ----------
    step:
        Cluster step at which the resize was decided.
    direction:
        ``"up"`` (servers commissioned) or ``"down"`` (servers drained or a
        pending provision cancelled).
    servers:
        Servers added or removed by this event.
    fleet_before, fleet_after:
        Provisioned fleet size (dispatchable plus warming servers) on either
        side of the event.
    policy:
        Name of the autoscaling policy that requested the resize.
    reason:
        The policy's explanation of the signal that triggered it.
    """

    step: int
    direction: str
    servers: int
    fleet_before: int
    fleet_after: int
    policy: str
    reason: str


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or the recovery closing it) on one server.

    Attributes
    ----------
    step:
        Cluster step at which the event fired.
    kind:
        ``"crash"`` (abrupt server failure), ``"straggler"`` (transient
        throttle: the server keeps its sessions but takes no new ones),
        ``"warmup_failure"`` (a provision that never came ready and was
        retired), ``"zone_outage"`` (a correlated domain failure taking
        down every powered-on server of one zone; the per-server crashes it
        causes follow as their own events), or ``"recovered"`` (a crashed
        server back in service or a throttle expiring).
    server:
        Global slot index of the affected server (-1 for domain-level
        events such as ``"zone_outage"``, which name a zone, not a server).
    sessions_lost:
        Sessions in flight on the server when a crash killed it (0 for the
        other kinds — stragglers keep their sessions).
    detail:
        Human-readable specifics (planned downtime, throttle length, what
        the recovery closed).
    zone / rack:
        Failure domain of the affected server (``None`` in events recorded
        before failure domains existed, and ``rack`` is ``None`` on
        zone-level events).
    """

    step: int
    kind: str
    server: int
    sessions_lost: int = 0
    detail: str = ""
    zone: int | None = None
    rack: int | None = None


@dataclasses.dataclass(frozen=True)
class FleetSample:
    """Observable fleet state at the end of one cluster step.

    One sample per cluster step (drain steps included) — the elasticity
    trace from which time-weighted fleet size and scaling-transient metrics
    are computed.

    Attributes
    ----------
    step:
        Cluster step the sample closes.
    live_servers:
        Servers drawing power: warming + dispatchable + draining.
    dispatchable_servers:
        Servers accepting new sessions.
    warming_servers:
        Commissioned servers still provisioning (idling, not dispatchable).
    draining_servers:
        Servers finishing their sessions before decommission.
    queue_length:
        Admission queue length at the end of the step.
    arrivals:
        Requests that arrived during the step.
    active_sessions:
        Sessions still running fleet-wide after the step.
    frames:
        Frames transcoded fleet-wide during the step.
    qos_violations:
        Frames of the step processed below their session's FPS target.
    dropped:
        Queued requests dropped this step after aging past their patience
        deadline.
    brownout_level:
        Fleet-wide quality-degradation level in force during the step
        (0 = normal operation).
    healthy_servers:
        Dispatchable servers in full health — the series exported as
        ``repro_fleet_healthy_servers``.  Equal to
        ``dispatchable_servers`` (degraded/failed/recovering servers are
        excluded from the dispatchable roster); 0 in samples recorded
        before fault tracking existed.
    degraded_servers:
        Powered-on servers inside a straggler throttle (serving their
        in-flight sessions, taking no new ones).
    failed_servers:
        Servers currently down after a crash (powered off, awaiting their
        seeded recovery).
    recovering_servers:
        Crashed servers back on power, rebooting through the provisioning
        warm-up before they serve again.
    available_domains:
        Distinct failure zones with at least one dispatchable server — the
        series exported as ``repro_fleet_available_domains``.  0 in samples
        recorded before domain tracking existed.
    """

    step: int
    live_servers: int
    dispatchable_servers: int
    warming_servers: int
    draining_servers: int
    queue_length: int
    arrivals: int
    active_sessions: int
    frames: int
    qos_violations: int
    dropped: int = 0
    brownout_level: int = 0
    healthy_servers: int = 0
    degraded_servers: int = 0
    failed_servers: int = 0
    recovering_servers: int = 0
    available_domains: int = 0
