"""Vectorized batch stepping engine for fleets of transcoding servers.

The scalar engine advances a fleet one session at a time: per frame it walks
``Orchestrator.run_step`` → ``TranscodingSession.prepare``/``execute`` →
scalar calls into the WPP, complexity, rate-distortion and power models.
That per-session Python work caps cluster experiments at tens of servers.

The :class:`BatchStepper` replaces the per-session math with one batched
NumPy evaluation per cluster step:

1. **Gather** — every active session's next (QP, threads, frequency)
   decision plus per-frame content descriptors are packed into contiguous
   struct-of-arrays buffers ordered server-major.  The sessions running a
   stock :class:`~repro.core.mamut.MamutController` decide together, through
   one :meth:`~repro.core.mamut.MamutBatch.decide` call per step: the batch
   form of :meth:`~repro.core.mamut.MamutController.decide`, re-rostered on
   every roster change, which leaves their (QP, threads, frequency) values
   in three arrays, so no ``Decision`` is built for them.  Every other
   controller is asked per session via
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
   session's frame to the run's :class:`~repro.metrics.records.FrameLedger`
   as columns (no ``FrameRecord`` is built; the sessions' record views
   build one only when it is read) and moves each session's counters and
   observation window forward.  One ``PowerSample`` per server is emitted;
   a server with no active sessions is sampled through
   :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`, as on the
   scalar engine.
4. **Content** — the sessions the commit moved to a new video get their
   lanes' video columns refreshed, which draws that video's content.

**Roster changes.**  Each session gets one lane, built when it first joins
a roster; its video's static columns, model group, frame counter and (for a
MAMUT controller) its ``MamutBatch`` row, fixed for the controller's life,
are rows of arrays that every roster change re-gathers in the new order with
one take, reading only the sessions and controllers that joined.  These
caches live per stepper lineage: a change of the live fleet builds a new
stepper with ``previous=`` the old one, which takes them over, its one
``MamutBatch`` and one ``FleetAllocator`` included.

**Equivalence guarantee.**  For the same ``(workload seed, policies, cluster
seed)`` the batch engine produces *bitwise identical* results to the scalar
engine — same frame records, same power samples, same admission ledger, same
``ClusterSummary``.  This holds because every batch method the engine calls
(MAMUT's decide step, the allocation and transcode compositions and the
models under them) evaluates the same IEEE-754 operations in the same order
as its scalar form, each server's sum of session powers included
(transcendental factors go through per-QP lookup tables shared between the
two forms; ``tests/test_batch_models.py`` pins every pair the engine calls
but the learning step's, which ``tests/test_core_store.py`` pins), and the
per-server duration sum is taken in the scalar engine's order.  Fault
injection preserves the guarantee: fault draws, session salvage and retries
all happen in orchestrator code outside the stepper, and a crash or recovery
changes the live roster exactly like an autoscaling resize — the stepper is
replaced by one over the surviving fleet, which takes over its caches.
Nothing needs writing back when a stepper is dropped: every session's
state, its controller's observation window included, lives on the session,
its frame ledger and its controller (what the agents learn, apply and are
owed lives in their learning store's slots, which the scalar engine uses
too), and the stepper keeps only caches.  Each carried value is either
fixed for its session's or controller's life or moves only when the
lineage steps it, so a lineage must step its sessions alone: a stepper
that takes over rows checks their frame counters, and a
session stepped elsewhere since (on the scalar engine) raises
:class:`~repro.errors.ClusterError`; a stepper built without ``previous``
reads it afresh.  Checkpointed resumes need no special handling
either: a replacement session constructed mid-video
(``TranscodingSession(start_frame_index=...)``) joins a roster like any
other, because a joining session's lane reads ``session.step`` and its
current video, and every step reads ``session.frame_index``.  The
equivalence is enforced by ``tests/test_cluster_batch.py`` (whose
``TestCarriedRoster`` fuzzes membership edits against steppers built with
and without ``previous``), ``tests/test_cluster_faults.py`` and
``tests/test_cluster_domains.py``.

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
from typing import Optional, Sequence

import numpy as np

from repro.core.mamut import MamutBatch, MamutController
from repro.errors import ClusterError
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.records import PowerSample
from repro.numeric import ordered_sum
from repro.platform.server import FleetAllocator
from repro.telemetry.profiler import NULL_PROFILER

__all__ = ["BatchStepper"]


class _SessionLane:
    """One session, its controller and the content columns of its current video.

    Built once per session; the content columns are re-read
    (:meth:`refresh_video`) when the session moves to another video.
    """

    __slots__ = ("session", "controller", "complexity_col", "motion_col", "scene_col")

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

    def refresh_video(self) -> tuple:
        """Re-read the session's current video; returns its video-static values.

        The values are one lane's entries of the stepper's
        :data:`_VIDEO_COLUMNS`, in that order.  The first read of a video's
        columns draws its content (see
        :class:`~repro.video.sequence.VideoSequence`), so a served video
        draws here.
        """
        session = self.session
        video = session.current_video
        self.complexity_col = video.complexity_column
        self.motion_col = video.motion_column
        self.scene_col = video.scene_change_column
        preset = session.preset_for(video)
        return (
            video.pixels_per_frame,
            video.width,
            video.height,
            preset.effort_factor,
            preset.quality_gain_db,
            preset.compression_gain,
        )


#: Names of the video-static per-lane float columns, in array order.
_VIDEO_COLUMNS = (
    "pixels",
    "width",
    "height",
    "effort_factor",
    "quality_gain_db",
    "compression_gain",
)


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
        leave between steps (the roster is re-gathered automatically); the
        stepper reads each orchestrator's live ``active_sessions()`` exactly
        like the scalar engine does, once per step, and keeps the lists it
        stepped as ``stepped``.
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

    A stepper holds only caches of session, controller and server state:
    lanes, the fleet allocator's per-server constants, and the
    :class:`~repro.core.mamut.MamutBatch`'s decisions and grouping tables,
    so it can be dropped at any step with nothing to write back.  Each
    step's frames go to the sessions' frame ledgers through one
    :meth:`~repro.manager.session.TranscodingSession.commit_batch` call,
    which builds no ``FrameRecord``.  Each lane is built once per session,
    and its row (the current video's static columns, its model group, its
    session's frame counter and its controller's ``MamutBatch`` row) is
    carried from roster to roster and from stepper to stepper.
    A roster change re-gathers the rows in the new order with one take and
    reads only the sessions that joined.  Between its own calls a stepper
    assumes its lineage alone steps its orchestrators: one built with
    ``previous`` checks the frame counters it takes over and raises
    :class:`~repro.errors.ClusterError` if a session moved since.
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

        # Each orchestrator's sessions as the last step found them, before
        # it advanced them (the caller reads them instead of asking again).
        self.stepped: list[list[TranscodingSession]] = []
        # The current roster and its lanes, in fleet order; the per-lane
        # arrays hold one row per lane.  Re-gathered whenever membership
        # changes.
        self._roster: list[TranscodingSession] = []
        self._lanes: list[_SessionLane] = []
        self._counts: list[int] = []
        self._starts: list[int] = []
        self._model_groups: list[tuple] = []
        self._mamut_pos = np.empty(0, dtype=np.int64)
        self._legacy_pos: list[int] = []
        # The lineage's caches, built by its first stepper.
        if previous is None:
            self._allocator = FleetAllocator(servers)
            self._mamut = MamutBatch()
            # Model keys interned to small ints, so regrouping lanes after a
            # roster change compares ints rather than parameter dataclasses.
            self._group_ids: dict[tuple, int] = {}
            self._row_of: dict[TranscodingSession, int] = {}
            self._lane_rows = np.empty(0, dtype=object)
            self._video = np.empty((len(_VIDEO_COLUMNS), 0))
            self._lane_table = np.empty((0, 3 + MamutBatch.ROW_WIDTH), dtype=np.int64)
        else:
            # A row changes only when its session commits a frame, so the rows
            # taken over are current if no frame counter moved since.
            lanes = previous._lane_rows.tolist()
            steps = np.fromiter((lane.session.step for lane in lanes), np.int64, len(lanes))
            if (previous._lane_table[:, 2] != steps).any():
                raise ClusterError(
                    "a session moved on outside the stepper lineage since its last step; "
                    "build a BatchStepper without previous= to take it over"
                )
            self._allocator = previous._allocator
            self._allocator.set_fleet(servers)
            self._mamut = previous._mamut
            self._group_ids = previous._group_ids
            self._row_of = previous._row_of
            self._lane_rows = previous._lane_rows
            self._video = previous._video
            self._lane_table = previous._lane_table

    # -- roster maintenance --------------------------------------------------------

    def _rebuild_roster(
        self, actives: list[list[TranscodingSession]], roster: list[TranscodingSession]
    ) -> None:
        """Map the new roster to rows; read only the sessions that joined.

        Each row holds a lane, its video's static columns (``_video``) and
        ints (``_lane_table``): its model group, whether it decides in the
        :class:`~repro.core.mamut.MamutBatch`, its session's frame counter as
        this lineage left it, then its controller's row there (or zeros).
        """
        count = len(roster)
        rows = np.fromiter(
            map(self._row_of.get, roster, itertools.repeat(-1)), dtype=np.int64, count=count
        )
        joining = np.flatnonzero(rows < 0)
        lane_rows, video, table = self._lane_rows, self._video, self._lane_table
        if len(joining):
            rows[joining] = np.arange(len(lane_rows), len(lane_rows) + len(joining))
            joined = [_SessionLane(roster[k]) for k in joining.tolist()]
            lane_rows = np.concatenate([lane_rows, np.array(joined, dtype=object)])
            with self.profiler.phase("content"):
                static = [lane.refresh_video() for lane in joined]
            video = np.concatenate([video, np.array(static, dtype=float).T], axis=1)
            group_ids, mamut = self._group_ids, self._mamut
            no_row = (0,) * MamutBatch.ROW_WIDTH
            joined_rows = []
            for lane in joined:
                # Exactly MamutController lanes decide as one MamutBatch; every
                # other controller (subclasses included) is asked through decide.
                batched = type(lane.controller) is MamutController
                joined_rows.append(
                    (
                        group_ids.setdefault(lane.model_key(), len(group_ids)),
                        batched,
                        lane.session.step,
                        *(mamut.row(lane.controller) if batched else no_row),
                    )
                )
            table = np.concatenate([table, np.array(joined_rows, dtype=np.int64)])
        self._lane_rows = lane_rows = lane_rows[rows]
        self._lanes = lanes = lane_rows.tolist()
        self._row_of = dict(zip(roster, range(count)))
        self._video = video[:, rows]
        self._lane_table = table = table[rows]
        group_of, batched = table[:, 0], table[:, 1]

        self._roster = roster
        self._counts = counts = [len(sessions) for sessions in actives]
        self._starts = [0, *itertools.accumulate(counts)]
        self._model_groups = _group_lanes(lanes, group_of)

        self._mamut_pos = mamut_pos = np.flatnonzero(batched)
        self._legacy_pos = np.flatnonzero(batched == 0).tolist()
        self._mamut.roster([lanes[i].controller for i in mamut_pos.tolist()], table[mamut_pos, 3:])

    def flush_window_state(self) -> None:
        """Do nothing: a stepper holds no state that needs writing back.

        The observation windows live on the controllers and the
        :class:`~repro.core.mamut.MamutBatch` keeps only caches, so a stepper
        can be dropped at any step.  The method stays because external
        instrumentation that subclasses the stepper (the benchmark's traced
        stepper) wraps it by name.
        """

    # -- stepping -------------------------------------------------------------------

    def step(self, step: int) -> list[PowerSample]:
        """Advance every server by one step; returns one sample per server.

        Idle servers contribute their idle power exactly like
        :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`.
        """
        self.stepped = actives = [orch.active_sessions() for orch in self.orchestrators]
        flat = [session for sessions in actives for session in sessions]

        if not flat:
            return [orch.idle_step(step) for orch in self.orchestrators]

        if flat != self._roster:
            self._rebuild_roster(actives, flat)

        lanes = self._lanes
        n = len(lanes)
        profiler = self.profiler

        # -- gather: controller decisions + per-frame content -------------------
        batched = len(self._mamut_pos) > 0
        if batched:
            with profiler.phase("mamut"):
                self._mamut.decide(self._lane_table[self._mamut_pos, 2])

        with profiler.phase("gather"):
            qp = np.empty(n, dtype=np.int64)
            threads = np.empty(n, dtype=np.int64)
            freq = np.empty(n)
            if batched:
                positions = self._mamut_pos
                qp[positions], threads[positions], freq[positions] = self._mamut.values
            for i in self._legacy_pos:
                decision = lanes[i].session.decide()
                qp[i] = decision.qp
                threads[i] = decision.threads
                freq[i] = decision.frequency_ghz

            fidx_l: list[int] = []
            cx_l: list[float] = []
            mo_l: list[float] = []
            sc_l: list[bool] = []
            for lane in lanes:
                frame_index = lane.session.frame_index
                fidx_l.append(frame_index)
                cx_l.append(lane.complexity_col[frame_index])
                mo_l.append(lane.motion_col[frame_index])
                sc_l.append(lane.scene_col[frame_index])

            complexity = np.array(cx_l)
            motion = np.array(mo_l)
            scene = np.array(sc_l, dtype=bool)

        with profiler.phase("evaluate"):
            # The scalar engine's prepare, allocate and execute, each in its
            # batch form: thread activity per lane group, one allocation for
            # the fleet, then the transcode per lane group.
            pixels, width, height, effort, gain_db, compression = self._video
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
            moved = TranscodingSession.commit_batch(
                self._roster,
                fidx_l,
                qp,
                threads,
                freq,
                fps,
                psnr,
                bitrate,
                total_time,
                np.repeat(server_power, counts),
            )
            time_l = total_time.tolist()
            power_l = server_power.tolist()
            samples: list[PowerSample] = []
            for server_index, orch in enumerate(self.orchestrators):
                count = counts[server_index]
                if not count:
                    samples.append(orch.idle_step(step))
                    continue
                start = self._starts[server_index]
                duration = ordered_sum(time_l[start : start + count]) / count
                samples.append(PowerSample(step, power_l[server_index], duration, count))
            # Every lane has committed one frame.
            self._lane_table[:, 2] += 1

        if moved:
            # The commit moved these sessions to a new video, whose first
            # read draws its content.
            with profiler.phase("content"):
                for i in moved:
                    self._video[:, i] = lanes[i].refresh_video()
        return samples
