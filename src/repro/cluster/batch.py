"""Vectorized batch stepping engine for fleets of transcoding servers.

The scalar engine advances a fleet one session at a time: per frame it walks
``Orchestrator.run_step`` → ``TranscodingSession.prepare``/``execute`` →
scalar calls into the WPP, complexity, rate-distortion and power models.
That per-session Python work caps cluster experiments at tens of servers.

The :class:`BatchStepper` replaces the per-session work with array
operations over the fleet's lanes (one per active session, server-major),
each step:

1. **Gather** — every lane's frame index is its session's ledger cursor
   minus the row of its current video's frame 0, one subtraction per
   ledger; the frames' content descriptors are read from the lanes' cached
   content columns.  The sessions running a stock
   :class:`~repro.core.mamut.MamutController` decide together, through one
   :meth:`~repro.core.mamut.MamutBatch.decide` call per step: the batch
   form of :meth:`~repro.core.mamut.MamutController.decide`, which tests,
   averages and clears their observation windows by row and leaves their
   (QP, threads, frequency) values in three arrays, so no ``Decision`` is
   built for them.  Every other controller is asked per session via
   :meth:`~repro.manager.session.TranscodingSession.decide`.
2. **Evaluate** — three calls, each the batch form of what the scalar
   engine calls per session or per server:
   :meth:`~repro.hevc.transcoder.Transcoder.activity_factor_batch` per lane
   group, one :meth:`~repro.platform.server.FleetAllocator.allocate_batch`
   for the whole fleet (each lane's contention scale and each server's
   package power), and
   :meth:`~repro.hevc.transcoder.Transcoder.transcode_frame_batch` per lane
   group (frame time, FPS, PSNR and bitrate).  Lanes are grouped by their
   transcoder's class, its models' classes and parameters and its delivery
   rate, and each group calls the batch methods of its first lane's
   transcoder; the allocator groups servers by power model itself.  No
   topology, power or timing formula lives in this module.
3. **Scatter** — one
   :meth:`~repro.manager.session.TranscodingSession.commit_batch` call, the
   batch form of the scalar engine's per-session ``commit``, writes every
   frame to the run's :class:`~repro.metrics.records.FrameLedger` at the
   sessions' cursors and advances them, and adds the frames to the MAMUT
   controllers' windows, as a few array operations per ledger and per
   window table (no ``FrameRecord`` is built; the sessions' record views
   build one only when it is read).  The step's violations, each server's
   frame-time sum (left to right, one lane position at a time, like the
   allocator's power sum) and its still-active and checkpoint counts come
   from the step's arrays.  One ``PowerSample`` per server is emitted; a
   server with no active sessions is sampled through
   :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`, as on the
   scalar engine.
4. **Content** — the lanes whose session the commit moved to a new video
   get their video columns refreshed, which draws that video's content.

Python runs per session only for sessions whose video ended, for
controllers other than MAMUT and at roster changes.

**Roster changes.**  The stepper re-reads its orchestrators' rosters
(``active_sessions()``) only when one of them gained a session, one of its
lanes finished, or a lane's ledger block was closed outside it (its
session was terminated).  Each session gets one lane, built when it first
joins a roster; its video's static columns and content, its ledger block,
its video's frame-0 row and length, its model group and (for a MAMUT
controller) its ``MamutBatch`` row, fixed for the controller's life, are
rows of arrays that every roster change re-gathers in the new order with
one take, reading only the sessions and controllers that joined.  These
caches live per stepper lineage: a change of the live fleet builds a new
stepper with ``previous=`` the old one, which takes them over, its one
``MamutBatch`` and one ``FleetAllocator`` included.

**Equivalence guarantee.**  For the same ``(workload seed, policies, cluster
seed)`` the batch engine produces *bitwise identical* results to the scalar
engine — same frame records, same power samples, same admission ledger, same
``ClusterSummary``.  This holds because every batch method the engine calls
(MAMUT's decide step, the window sums, the allocation and transcode
compositions and the models under them) evaluates the same IEEE-754
operations in the same order as its scalar form, each server's sum of
session powers included (transcendental factors go through per-QP lookup
tables shared between the two forms; ``tests/test_batch_models.py`` pins
every pair the engine calls but the learning step's, which
``tests/test_core_store.py`` pins), and the per-server duration sum is taken
in the scalar engine's order.  Fault injection preserves the guarantee:
fault draws, session salvage and retries all happen in orchestrator code
outside the stepper, and a crash or recovery changes the live roster
exactly like an autoscaling resize — the stepper is replaced by one over the
surviving fleet, which takes over its caches.  Nothing needs writing back
when a stepper is dropped: every session's state lives on the session, its
frame ledger (its cursor) and its controller (what the agents learn, apply
and are owed and the observation window live in their learning store's
slots and rows, which the scalar engine uses too), and the stepper keeps
only caches.  Each carried value is either fixed for its session's or
controller's life or moves only with its session's video, so a lineage
must step its sessions alone: a stepper that takes over lanes checks that
their cursors are where the lineage's last step left them, and a session
stepped elsewhere since (on the scalar engine) raises
:class:`~repro.errors.ClusterError`; a stepper built without ``previous``
reads it afresh.  Checkpointed resumes need no special handling either: a
replacement session constructed mid-video
(``TranscodingSession(start_frame_index=...)``) joins a roster like any
other, because a joining lane reads its session's current video and
frame-0 row, and every step reads the cursors.  The equivalence is enforced
by ``tests/test_cluster_batch.py`` (whose ``TestCarriedRoster`` fuzzes
membership edits against steppers built with and without ``previous``),
``tests/test_cluster_faults.py`` and ``tests/test_cluster_domains.py``.

Intermediate ``SessionDemand``/``ServerAllocation``/``TranscodeResult``
objects are never materialised, which no result can observe.  Each engine
calls only its own form of a model method, so a model subclass must override
a scalar method and its ``*_batch`` form together (lanes are grouped by
model class as well as parameters, so such a subclass gets its own calls).
Controllers follow a different rule: exactly ``MamutController`` (not
subclasses) decides through ``MamutBatch``, everything else is asked per
session through ``decide``.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Sequence

import numpy as np

from repro.core.mamut import MamutBatch, MamutController
from repro.errors import ClusterError
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.records import PowerSample
from repro.platform.server import FleetAllocator
from repro.telemetry.profiler import NULL_PROFILER

__all__ = ["BatchStepper"]


class _SessionLane:
    """One session and its controller.

    Built once per session; the session's current video is re-read
    (:meth:`refresh_video`) when the session moves to another video.
    """

    __slots__ = ("session", "controller")

    def __init__(self, session: TranscodingSession) -> None:
        self.session = session
        self.controller = session.controller

    def model_key(self) -> tuple:
        """What lanes sharing one transcoder call have in common.

        The classes are part of the key so a subclass is evaluated by its
        own ``*_batch`` methods.
        """
        transcoder = self.session.transcoder
        encoder = transcoder.encoder
        models = (
            encoder.wpp_model,
            encoder.complexity_model,
            encoder.rd_model,
            transcoder.decoder.complexity_model,
        )
        return (
            type(transcoder),
            tuple((type(model), model.params) for model in models),
            encoder.delivery_fps,
        )

    def refresh_video(self) -> tuple[tuple, tuple, tuple]:
        """Re-read the session's current video; returns its per-lane values.

        The first tuple holds the lane's entries of the stepper's
        :data:`_VIDEO_COLUMNS`, in that order; the second its video's index,
        frame-0 ledger row and length (the lane table's ``_VIDEO``,
        ``_BASE`` and ``_FRAMES``); the third its content columns
        (complexity, motion, scene change).  The first read of a video's
        columns draws its content (see
        :class:`~repro.video.sequence.VideoSequence`), so a served video
        draws here.
        """
        session = self.session
        video = session.current_video
        preset = session.preset_for(video)
        return (
            (
                video.pixels_per_frame,
                video.width,
                video.height,
                preset.effort_factor,
                preset.quality_gain_db,
                preset.compression_gain,
            ),
            (session.video_index, session.video_base, len(video)),
            (video.complexity_column, video.motion_column, video.scene_change_column),
        )


#: Names of the video-static per-lane float columns, in array order; the
#: lane's target FPS follows them.
_VIDEO_COLUMNS = (
    "pixels",
    "width",
    "height",
    "effort_factor",
    "quality_gain_db",
    "compression_gain",
)
_TARGET = len(_VIDEO_COLUMNS)

#: Columns of the lane table: the lane's model group, whether it decides in
#: the MamutBatch, its ledger (an index into the lineage's ledgers), its
#: block there and the block's first row, its current video's index,
#: frame-0 row and length, then its controller's MamutBatch row (zeros for
#: lanes that do not decide there).
_GROUP, _BATCHED, _LEDGER, _BLOCK, _FIRST, _VIDEO, _BASE, _FRAMES, _MAMUT = range(9)


def _members(group_of: np.ndarray) -> list[tuple]:
    """``(group id, positions)`` of each group in ``group_of`` (not empty).

    A group that spans every position indexes with a basic slice, so its
    arrays are views rather than copies.
    """
    if (group_of == group_of[0]).all():
        return [(int(group_of[0]), slice(None))]
    return [(gid, np.flatnonzero(group_of == gid)) for gid in np.unique(group_of).tolist()]


def _group_lanes(lanes: list[_SessionLane], group_of: np.ndarray) -> list[tuple]:
    """Partition lane positions by model group for one model call per group.

    Each group calls the transcoder of its first lane.  A group that spans
    every lane indexes with a basic slice, so its arrays are views rather
    than copies.
    """
    if (group_of == group_of[0]).all():
        return [(lanes[0].session.transcoder, slice(None))]
    groups = [np.flatnonzero(group_of == gid) for gid in np.unique(group_of).tolist()]
    return [(lanes[positions[0]].session.transcoder, positions) for positions in groups]


class BatchStepper:
    """Advances a fleet of orchestrators one step per call, batched.

    Parameters
    ----------
    orchestrators:
        The per-server orchestrators, in fleet order.  Sessions may join and
        leave between steps: the stepper re-reads each orchestrator's
        ``active_sessions()`` when one of them gained a session (its
        ``sessions`` grew), one of its lanes finished, or a lane's session
        was terminated, and steps the same sessions the scalar engine would.
    profiler:
        Optional :class:`~repro.telemetry.profiler.StepProfiler`; when given,
        each step charges its wall time to the engine's phases: ``mamut``
        decisions, ``gather``, ``evaluate``, ``scatter`` and ``content``
        (reading the video a session joins with or moves to, which draws
        its content).  Timing is observe-only — results are bitwise
        identical either way.
    previous:
        Optional stepper this one replaces, typically over a fleet that
        gained or lost servers; it must not be stepped again.  The new
        stepper takes over its caches: its lanes, its
        :class:`~repro.core.mamut.MamutBatch` and its fleet allocator, moved
        to the new fleet in place.  Sessions, servers and controllers that
        stay are not read again.

    A stepper holds only caches (see the module docstring), so it can be
    dropped at any step with nothing to write back.  Between its own calls
    it assumes its lineage alone steps its orchestrators: one built with
    ``previous`` raises :class:`~repro.errors.ClusterError` if a session it
    takes over moved since.  After each step, :attr:`violations` holds the
    number of frames below their session's FPS target, :attr:`still_active`
    each server's sessions left active, and :meth:`checkpoint_writes`
    counts each server's checkpoints.
    """

    def __init__(
        self,
        orchestrators: Sequence[Orchestrator],
        profiler=None,
        previous: Optional["BatchStepper"] = None,
    ) -> None:
        self.orchestrators = list(orchestrators)
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        servers = [orch.server for orch in self.orchestrators]

        # Each orchestrator's session list (it only grows) and its length
        # when the rosters were last read; they are re-read after a join.
        self._session_lists = [orch.sessions for orch in self.orchestrators]
        self._joined: list[int] = []
        self._stale = True
        self.violations = 0
        self.still_active = [0] * len(servers)
        # The current roster and its lanes, in fleet order; the per-lane
        # arrays hold one row per lane.  Laid out by the first read and
        # re-gathered whenever membership changes.
        self._roster: Optional[list[TranscodingSession]] = None
        self._lanes: list[_SessionLane] = []
        self._progress = np.empty(0, dtype=np.int64)
        # The lineage's caches, built by its first stepper.
        if previous is None:
            self._allocator = FleetAllocator(servers)
            self._mamut = MamutBatch()
            # Model keys and ledgers interned to small ints, so regrouping
            # lanes after a roster change compares ints.
            self._group_ids: dict[tuple, int] = {}
            self._ledger_ids: dict = {}
            self._row_of: dict[TranscodingSession, int] = {}
            self._lane_rows = np.empty(0, dtype=object)
            self._floats = np.empty((len(_VIDEO_COLUMNS) + 1, 0))
            # Each lane's content columns: complexity, motion, scene change.
            self._content = np.empty((3, 0), dtype=object)
            self._lane_table = np.empty((0, _MAMUT + MamutBatch.ROW_WIDTH), dtype=np.int64)
            # Per ledger, the last roster's lanes there and their blocks, and
            # the cursors the last step left them at.
            self._ledger_groups: list[tuple] = []
            self._cursors = np.empty(0, dtype=np.int64)
        else:
            # A lane's rows change only with its session's video, and only
            # commits move a video, so the lanes taken over are current if no
            # cursor moved since the lineage's last step.
            for ledger, positions, blocks in previous._ledger_groups:
                if (ledger.cursors[blocks] != previous._cursors[positions]).any():
                    raise ClusterError(
                        "a session moved on outside the stepper lineage since its last "
                        "step; build a BatchStepper without previous= to take it over"
                    )
            self._allocator = previous._allocator
            self._allocator.set_fleet(servers)
            self._mamut = previous._mamut
            self._group_ids = previous._group_ids
            self._ledger_ids = previous._ledger_ids
            self._row_of = previous._row_of
            self._lane_rows = previous._lane_rows
            self._floats = previous._floats
            self._content = previous._content
            self._lane_table = previous._lane_table
            self._ledger_groups = previous._ledger_groups
            self._cursors = previous._cursors

    # -- roster maintenance --------------------------------------------------------

    def _read_rosters(self) -> None:
        """Read every orchestrator's active sessions; re-lay the lanes if they moved."""
        actives = [orch.active_sessions() for orch in self.orchestrators]
        self._joined = list(map(len, self._session_lists))
        self._stale = False
        roster = [session for sessions in actives for session in sessions]
        if roster != self._roster:
            self._rebuild_roster(actives, roster)

    def _rebuild_roster(
        self, actives: list[list[TranscodingSession]], roster: list[TranscodingSession]
    ) -> None:
        """Map the new roster to rows; read only the sessions that joined.

        Each row holds a lane, its video's static columns and target FPS
        (``_floats``), its content columns (``_content``) and its ints
        (``_lane_table``, columns ``_GROUP`` to ``_MAMUT``).
        """
        count = len(roster)
        rows = np.fromiter(
            map(self._row_of.get, roster, itertools.repeat(-1)), dtype=np.int64, count=count
        )
        joining = np.flatnonzero(rows < 0)
        lane_rows, floats, content, table = (
            self._lane_rows, self._floats, self._content, self._lane_table
        )
        if len(joining):
            rows[joining] = np.arange(len(lane_rows), len(lane_rows) + len(joining))
            joined = [_SessionLane(roster[k]) for k in joining.tolist()]
            lane_rows = np.concatenate([lane_rows, np.array(joined, dtype=object)])
            with self.profiler.phase("content"):
                videos = [lane.refresh_video() for lane in joined]
            group_ids, ledger_ids, mamut = self._group_ids, self._ledger_ids, self._mamut
            no_row = (0,) * MamutBatch.ROW_WIDTH
            joined_floats, joined_rows = [], []
            joined_content = np.empty((3, len(joined)), dtype=object)
            for k, (lane, (statics, video, columns)) in enumerate(zip(joined, videos)):
                session = lane.session
                # Exactly MamutController lanes decide as one MamutBatch; every
                # other controller (subclasses included) is asked through decide.
                batched = type(lane.controller) is MamutController
                joined_floats.append((*statics, session.request.target_fps))
                for kind, column in enumerate(columns):
                    joined_content[kind, k] = column
                joined_rows.append(
                    (
                        group_ids.setdefault(lane.model_key(), len(group_ids)),
                        batched,
                        ledger_ids.setdefault(session.ledger, len(ledger_ids)),
                        session.block,
                        session.first_row,
                        *video,
                        *(mamut.row(lane.controller) if batched else no_row),
                    )
                )
            floats = np.concatenate([floats, np.array(joined_floats, dtype=float).T], axis=1)
            content = np.concatenate([content, joined_content], axis=1)
            table = np.concatenate([table, np.array(joined_rows, dtype=np.int64)])
        self._lane_rows = lane_rows = lane_rows[rows]
        self._lanes = lanes = lane_rows.tolist()
        self._row_of = dict(zip(roster, range(count)))
        self._floats = floats[:, rows]
        self._content = content = content[:, rows]
        self._columns = content.tolist()
        self._lane_table = table = table[rows]

        self._roster = roster
        self._counts = counts = [len(sessions) for sessions in actives]
        self._starts = starts = np.array([0, *itertools.accumulate(counts)])
        # The servers with lanes, their lane counts and, per lane position,
        # each one's lane there (``count``, a frame time of 0.0, past its
        # last), for the frame-time sums.
        lane_counts = np.array(counts, dtype=np.int64)
        busy = np.flatnonzero(lane_counts)
        self._busy_counts = busy_counts = lane_counts[busy]
        depth = np.arange(int(lane_counts.max(initial=0)))[:, None]
        self._positions = np.where(depth < busy_counts, starts[busy] + depth, count)
        if not count:
            self._ledger_groups = []
            return
        self._model_groups = _group_lanes(lanes, table[:, _GROUP])
        ledgers = list(self._ledger_ids)
        self._ledger_groups = [
            (ledgers[lid], positions, table[positions, _BLOCK])
            for lid, positions in _members(table[:, _LEDGER])
        ]

        batched = table[:, _BATCHED]
        mamut_pos = np.flatnonzero(batched)
        everyone = len(mamut_pos) == count
        self._mamut_pos = slice(None) if everyone else mamut_pos
        self._batched = len(mamut_pos) > 0
        self._legacy_pos = np.flatnonzero(batched == 0).tolist()
        self._mamut.roster(
            [lanes[i].controller for i in mamut_pos.tolist()], table[mamut_pos, _MAMUT:]
        )
        self._window_groups = [
            (window_table, members if everyone else mamut_pos[members], window_rows)
            for window_table, members, window_rows in self._mamut.windows()
        ]

    def flush_window_state(self) -> None:
        """Do nothing: a stepper holds no state that needs writing back.

        The observation windows live in the controllers' window tables and
        the :class:`~repro.core.mamut.MamutBatch` keeps only caches, so a
        stepper can be dropped at any step.  The method stays because
        external instrumentation that subclasses the stepper (the
        benchmark's traced stepper) wraps it by name.
        """

    def _cursor_rows(self) -> tuple[np.ndarray, bool]:
        """Each lane's ledger cursor, and whether any lane's block is closed."""
        rows = np.empty(len(self._roster), dtype=np.int64)
        closed = False
        for ledger, positions, blocks in self._ledger_groups:
            at = rows[positions] = ledger.cursors[blocks]
            closed = closed or bool((at >= ledger.ends[blocks]).any())
        return rows, closed

    def checkpoint_writes(self, interval: int) -> list[int]:
        """Per server, the sessions the last step left active at a positive
        multiple of ``interval`` frames into their video."""
        progress = self._progress
        written = np.concatenate(([0], np.cumsum((progress > 0) & (progress % interval == 0))))
        return (written[self._starts[1:]] - written[self._starts[:-1]]).tolist()

    # -- stepping -------------------------------------------------------------------

    def step(self, step: int) -> list[PowerSample]:
        """Advance every server by one step; returns one sample per server.

        The rosters are re-read first if an orchestrator gained a session,
        a lane finished last step or a lane's ledger block was closed since;
        then the frame indices come from the ledger cursors, the frames are
        evaluated and committed as array operations, and the step's
        violations, still-active counts and checkpoint progress are kept
        for the caller.  Idle servers contribute their idle power exactly
        like :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`.
        """
        reread = self._stale or list(map(len, self._session_lists)) != self._joined
        if reread:
            self._read_rosters()
        rows, closed = self._cursor_rows()
        if closed and not reread:
            # A lane's session was terminated since the last step.
            self._read_rosters()
            rows, _ = self._cursor_rows()

        if not self._roster:
            self.violations = 0
            self.still_active = self._counts
            self._progress = np.empty(0, dtype=np.int64)
            return [orch.idle_step(step) for orch in self.orchestrators]

        lanes = self._lanes
        n = len(lanes)
        profiler = self.profiler
        table = self._lane_table

        # -- gather: controller decisions + per-frame content -------------------
        # A controller decides at its session's step, a frame's content is
        # read at its index within its video.
        frames = rows - table[:, _BASE]
        if self._batched:
            with profiler.phase("mamut"):
                self._mamut.decide(rows[self._mamut_pos] - table[self._mamut_pos, _FIRST])

        with profiler.phase("gather"):
            qp = np.empty(n, dtype=np.int64)
            threads = np.empty(n, dtype=np.int64)
            freq = np.empty(n)
            if self._batched:
                positions = self._mamut_pos
                qp[positions], threads[positions], freq[positions] = self._mamut.values
            for i in self._legacy_pos:
                decision = lanes[i].session.decide()
                qp[i] = decision.qp
                threads[i] = decision.threads
                freq[i] = decision.frequency_ghz

            frame_list = frames.tolist()
            complexity_cols, motion_cols, scene_cols = self._columns
            complexity = np.fromiter(map(operator.getitem, complexity_cols, frame_list), float, n)
            motion = np.fromiter(map(operator.getitem, motion_cols, frame_list), float, n)
            scene = np.fromiter(map(operator.getitem, scene_cols, frame_list), bool, n)

        with profiler.phase("evaluate"):
            # The scalar engine's prepare, allocate and execute, each in its
            # batch form: thread activity per lane group, one allocation for
            # the fleet, then the transcode per lane group.
            pixels, width, height, effort, gain_db, compression, target = self._floats
            activity = np.empty(n)
            for transcoder, s in self._model_groups:
                activity[s] = transcoder.activity_factor_batch(
                    threads[s], width[s], height[s]
                )
            scale, server_power = self._allocator.allocate_batch(
                self._counts, threads, freq, activity
            )
            total_time, fps, psnr, bitrate = np.empty((4, n))
            for transcoder, s in self._model_groups:
                total_time[s], fps[s], psnr[s], bitrate[s] = transcoder.transcode_frame_batch(
                    qp[s], threads[s], width[s], height[s], pixels[s],
                    complexity[s], motion[s], scene[s], effort[s],
                    gain_db[s], compression[s], freq[s], scale[s],
                )

        # -- scatter -------------------------------------------------------------
        with profiler.phase("scatter"):
            counts = self._counts
            moved, finished = TranscodingSession.commit_batch(
                self._roster,
                self._ledger_groups,
                self._window_groups,
                self._legacy_pos,
                table[:, _VIDEO],
                frames,
                table[:, _FRAMES],
                qp,
                threads,
                freq,
                fps,
                psnr,
                bitrate,
                total_time,
                np.repeat(server_power, counts),
            )
            self._cursors = rows + 1
            self.violations = int(np.count_nonzero(fps < target))
            # Each server's frame times added from 0.0, left to right, one
            # lane position at a time, as the scalar engine's sum does (and
            # allocate_batch's sum of session powers); past a server's last
            # lane it adds 0.0, which leaves a sum of positive times as it is.
            total = np.zeros(len(self._busy_counts))
            for times in np.append(total_time, 0.0)[self._positions]:
                total += times
            durations = iter((total / self._busy_counts).tolist())
            power_l = server_power.tolist()
            samples = [
                PowerSample(step, power_l[k], next(durations), count)
                if count
                else orch.idle_step(step)
                for k, (orch, count) in enumerate(zip(self.orchestrators, counts))
            ]
            # What the lanes' sessions left: frames into their video (0 for
            # a session that moved to another video or finished) and, per
            # server, the sessions still active.
            self._progress = progress = frames + 1
            self.still_active = counts
            if moved or finished:
                progress[moved + finished] = 0
            if finished:
                self._stale = True
                servers = np.searchsorted(self._starts, finished, side="right") - 1
                gone = np.bincount(servers, minlength=len(counts))
                self.still_active = (np.array(counts) - gone).tolist()

        if moved:
            # The commit moved these sessions to a new video, whose first
            # read draws its content.
            with profiler.phase("content"):
                for i in moved:
                    statics, video, columns = lanes[i].refresh_video()
                    self._floats[:_TARGET, i] = statics
                    table[i, _VIDEO : _FRAMES + 1] = video
                    for kind, column in enumerate(columns):
                        self._content[kind, i] = self._columns[kind][i] = column
        return samples
