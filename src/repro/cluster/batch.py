"""Vectorized batch stepping engine for fleets of transcoding servers.

The scalar engine advances a fleet one session at a time: per frame it walks
``Orchestrator.run_step`` → ``TranscodingSession.prepare``/``execute`` →
scalar calls into the WPP, complexity, rate-distortion and power models.
That per-session Python work caps cluster experiments at tens of servers.

The :class:`BatchStepper` replaces the per-session math with one batched
NumPy evaluation per cluster step:

1. **Gather** — every active session's next (QP, threads, frequency)
   decision plus per-frame content descriptors are packed into contiguous
   struct-of-arrays buffers ordered server-major.  Sessions running a stock
   :class:`~repro.core.mamut.MamutController` are advanced by the vectorized
   MAMUT driver (:class:`_MamutDriver` below): on activation steps it reads
   the observation windows of the activating controllers, and the window
   averaging, :meth:`~repro.core.states.StateSpace.discretize_batch`,
   :meth:`~repro.core.states.StateSpace.state_index_batch` and
   :meth:`~repro.core.rewards.RewardFunction.total_batch` run across all of
   them in one shot before the grouped per-agent Q updates and action
   selections are applied session by session, each agent receiving its
   dense integer state directly (each session's exploration RNG draws stay
   in its own scalar order).  Every other controller is asked per session
   via :meth:`~repro.manager.session.TranscodingSession.decide`.
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
3. **Scatter** — every session's results go back through
   :meth:`~repro.manager.session.TranscodingSession.commit` (the same
   ``FrameRecord`` the scalar path creates, and the same bookkeeping,
   which also adds the frame to the controller's observation window), and
   one ``PowerSample`` per server is emitted; a server with no active
   sessions is sampled through
   :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`, as on the
   scalar engine.  A commit that wraps an active session's ``frame_index``
   to 0 crossed a video boundary: the loop refreshes that lane's video
   columns on the spot.

**Equivalence guarantee.**  For the same ``(workload seed, policies, cluster
seed)`` the batch engine produces *bitwise identical* results to the scalar
engine — same frame records, same power samples, same admission ledger, same
``ClusterSummary``.  This holds because every batch method the engine calls
(the allocation and transcode compositions and the models under them)
evaluates the same IEEE-754 operations in the same order as its scalar form,
each server's sum of session powers included (transcendental factors go
through per-QP lookup tables shared between the two forms;
``tests/test_batch_models.py`` pins every pair the engine calls), and the
per-server duration sum is taken in the scalar engine's order.  Fault
injection preserves the guarantee: fault draws, session salvage and retries
all happen in orchestrator code outside the stepper, and a crash or recovery
changes the live roster exactly like an autoscaling resize — the stepper is
dropped and rebuilt over the surviving fleet.  Nothing needs writing back
when a stepper is dropped: every session's state, its controller's
observation window included, lives on the session and controller, and the
stepper keeps only caches it re-reads when it is built.  Checkpointed
resumes need no special handling either: a replacement session constructed
mid-video (``TranscodingSession(start_frame_index=...)``) joins a rebuilt
stepper like any other, because lanes read ``session.frame_index`` and
``session.step`` fresh at every step.  The equivalence is enforced by
``tests/test_cluster_batch.py``, ``tests/test_cluster_faults.py`` and
``tests/test_cluster_domains.py``.

Intermediate ``SessionDemand``/``ServerAllocation``/``TranscodeResult``
objects are never materialised, which no result can observe.  Each engine
calls only its own form of a model method, so a model subclass must override
a scalar method and its ``*_batch`` form together (lanes are grouped by
model class as well as parameters, so such a subclass gets its own calls).
Controllers follow a different rule: exactly ``MamutController`` (not
subclasses) is driven through the vectorized activation path, everything
else is asked per session through ``decide``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.mamut import MamutController
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.records import FrameRecord, PowerSample
from repro.platform.server import FleetAllocator
from repro.telemetry.profiler import NULL_PROFILER

__all__ = ["BatchStepper"]


class _SessionLane:
    """Per-session identity plus the current video's content columns."""

    __slots__ = (
        "session",
        "session_id",
        "target_fps",
        "video_name",
        "resolution_class",
        "model_group",
        # video-static values (refreshed at playlist transitions)
        "pixels",
        "width",
        "height",
        "effort_factor",
        "quality_gain_db",
        "compression_gain",
        "complexity_col",
        "motion_col",
        "scene_col",
    )

    def __init__(
        self, session: TranscodingSession, group_id: Callable[[tuple], int]
    ) -> None:
        self.session = session
        self.session_id = session.session_id
        self.target_fps = session.request.target_fps

        # Lanes in one group share each transcoder call; the classes are
        # part of the key so a subclass is evaluated by its own *_batch
        # methods.
        transcoder = session.transcoder
        encoder = transcoder.encoder
        models = (
            encoder.wpp_model,
            encoder.complexity_model,
            encoder.rd_model,
            transcoder.decoder.complexity_model,
        )
        self.model_group = group_id(
            (
                type(transcoder),
                tuple((type(model), model.params) for model in models),
                encoder.delivery_fps,
            )
        )

        self.refresh_video()

    def refresh_video(self) -> None:
        """Re-gather the values that depend on the current playlist video."""
        session = self.session
        video = session.current_video
        self.video_name = video.name
        self.resolution_class = video.resolution_class
        self.pixels = video.pixels_per_frame
        self.width = video.width
        self.height = video.height
        preset = session.preset_for(video)
        self.effort_factor = preset.effort_factor
        self.quality_gain_db = preset.quality_gain_db
        self.compression_gain = preset.compression_gain
        self.complexity_col = video.complexity_column
        self.motion_col = video.motion_column
        self.scene_col = video.scene_change_column


#: Names of the video-static per-lane float columns, in array order.
_VIDEO_COLUMNS = (
    "pixels",
    "width",
    "height",
    "effort_factor",
    "quality_gain_db",
    "compression_gain",
)


def _group_lanes(tagged: list[tuple]) -> list[tuple]:
    """Partition lane positions by group id for one model call per group.

    ``tagged`` holds one ``(group id, models)`` pair per lane; each group
    keeps the models of its first lane.  A group that spans every lane
    indexes with a basic slice, so its arrays are views rather than copies.
    """
    groups: dict = {}
    for position, (group, models) in enumerate(tagged):
        groups.setdefault(group, (models, []))[1].append(position)
    if len(groups) == 1:
        ((models, _),) = groups.values()
        return [(models, slice(None))]
    return [
        (models, np.array(positions, dtype=np.int64))
        for models, positions in groups.values()
    ]


#: Memoised per-schedule activation tables keyed by the schedule's slot
#: triples: (hyper_period, agent names, frame % hyper -> local agent id | -1).
_SCHEDULE_PATTERNS: dict[tuple, tuple[int, tuple[str, ...], np.ndarray]] = {}


def _schedule_pattern(schedule) -> tuple[int, tuple[str, ...], np.ndarray]:
    key = tuple((slot.name, slot.period, slot.offset) for slot in schedule.slots)
    cached = _SCHEDULE_PATTERNS.get(key)
    if cached is None:
        names = schedule.agent_names
        local = {name: i for i, name in enumerate(names)}
        pattern = np.array(
            [
                local.get(schedule.agent_at(frame), -1)
                for frame in range(schedule.hyper_period)
            ],
            dtype=np.int64,
        )
        cached = (schedule.hyper_period, names, pattern)
        _SCHEDULE_PATTERNS[key] = cached
    return cached


class _MamutDriver:
    """Fleet-wide vectorized activation engine for stock MAMUT controllers.

    The scalar engine walks every MAMUT session's whole learning path in
    Python each frame (schedule lookup, averaging, discretisation, reward,
    Eq. 3, Q update).  The driver looks up the schedule for all its lanes at
    once, reads the observation windows of the controllers whose agent is
    due, and performs the averaging,
    :meth:`~repro.core.states.StateSpace.discretize_batch`,
    :meth:`~repro.core.states.StateSpace.state_index_batch` and
    :meth:`~repro.core.rewards.RewardFunction.total_batch` (bitwise the
    scalar path's rewards) across *all* activating sessions at once —
    grouped by identical (state space, reward config) parameters so
    heterogeneous fleets still vectorize.  The remaining
    per-session work — the grouped-per-agent Q updates and the action
    selection, whose exploration randomness must consume each session's RNG
    in its own scalar order — goes through
    :meth:`~repro.core.mamut.MamutController.apply_external_activation`,
    which takes the dense state index as it is and empties the window.

    The windows stay on the controllers (sessions fill them at commit), so
    the driver holds only caches it re-reads from the sessions and
    controllers when it is built: each lane's step count, its current
    decision and the grouping tables.  It can be dropped at any step.
    """

    __slots__ = (
        "positions",
        "controllers",
        "steps",
        "qp",
        "threads",
        "freq",
        "agent_names",
        "schedule_groups",
        "vgid",
        "vector_members",
    )

    def __init__(self, lanes: list[_SessionLane], positions: list[int]) -> None:
        self.positions = np.array(positions, dtype=np.int64)
        self.controllers: list[MamutController] = [
            lanes[i].session.controller for i in positions
        ]
        count = len(positions)
        self.steps = np.array(
            [lanes[i].session.step for i in positions], dtype=np.int64
        )

        self.qp = np.empty(count, dtype=np.int64)
        self.threads = np.empty(count, dtype=np.int64)
        self.freq = np.empty(count)
        for k, ctl in enumerate(self.controllers):
            decision = ctl.current_decision()
            self.qp[k] = decision.qp
            self.threads[k] = decision.threads
            self.freq[k] = decision.frequency_ghz

        # Activation tables: lanes sharing a schedule are looked up together,
        # with local agent ids remapped onto one fleet-wide name registry.
        self.agent_names: list[str] = []
        name_gid: dict[str, int] = {}
        by_schedule: dict[tuple, list] = {}
        for k, ctl in enumerate(self.controllers):
            key = tuple(
                (slot.name, slot.period, slot.offset)
                for slot in ctl.schedule.slots
            )
            entry = by_schedule.get(key)
            if entry is None:
                hyper, names, pattern = _schedule_pattern(ctl.schedule)
                gids = []
                for name in names:
                    gid = name_gid.get(name)
                    if gid is None:
                        gid = len(self.agent_names)
                        name_gid[name] = gid
                        self.agent_names.append(name)
                    gids.append(gid)
                global_pattern = np.full_like(pattern, -1)
                scheduled = pattern >= 0
                global_pattern[scheduled] = np.array(gids, dtype=np.int64)[
                    pattern[scheduled]
                ]
                entry = [hyper, global_pattern, []]
                by_schedule[key] = entry
            entry[2].append(k)
        self.schedule_groups = [
            (np.array(members, dtype=np.int64), hyper, global_pattern)
            for hyper, global_pattern, members in by_schedule.values()
        ]

        # Vector groups: lanes whose state space and reward parameters match
        # share one discretize_batch / total_batch call per activation step.
        self.vgid = np.empty(count, dtype=np.int64)
        members_by_key: dict[tuple, int] = {}
        self.vector_members: list[tuple] = []
        for k, ctl in enumerate(self.controllers):
            space = ctl.state_space
            key = (
                (
                    space.fps_target,
                    space.fps_edges,
                    space.psnr_edges,
                    space.bitrate_edges_mbps,
                    space.power_cap_w,
                ),
                ctl.reward_function.config,
            )
            gid = members_by_key.get(key)
            if gid is None:
                gid = len(self.vector_members)
                members_by_key[key] = gid
                self.vector_members.append((space, ctl.reward_function))
            self.vgid[k] = gid

    # -- per-step operation ------------------------------------------------------------

    def advance(self) -> None:
        """Run this step's activations (fleet-vectorized) before the gather."""
        agent_id = np.full(len(self.controllers), -1, dtype=np.int64)
        for members, hyper, pattern in self.schedule_groups:
            agent_id[members] = pattern[self.steps[members] % hyper]
        scheduled = np.nonzero(agent_id >= 0)[0]
        if not len(scheduled):
            return

        # An agent acts only on a non-empty window: the scalar decide() test.
        controllers = self.controllers
        acting = [j for j in scheduled.tolist() if controllers[j].window.count]
        if not acting:
            return
        pos = np.array(acting, dtype=np.int64)

        # Window averaging: one division per component, on the running sums
        # the sessions accumulated in arrival order — bitwise the scalar
        # averages.
        windows = [controllers[j].window for j in acting]
        sums = np.array(
            [(w.fps, w.psnr_db, w.bitrate_mbps, w.power_w) for w in windows]
        )
        counts = np.array([w.count for w in windows], dtype=np.int64)
        avg_fps, avg_psnr, avg_bitrate, avg_power = (sums / counts[:, None]).T

        rewards = np.empty(len(pos))
        state_array = np.empty(len(pos), dtype=np.int64)
        vgid = self.vgid[pos]
        for gid, (space, reward_function) in enumerate(self.vector_members):
            mask = vgid == gid
            if not mask.any():
                continue
            bins = space.discretize_batch(
                avg_fps[mask], avg_psnr[mask], avg_bitrate[mask], avg_power[mask]
            )
            rewards[mask] = reward_function.total_batch(
                avg_fps[mask],
                avg_psnr[mask],
                avg_bitrate[mask],
                avg_power[mask],
            )
            state_array[mask] = space.state_index_batch(bins)
        # Dense state indices as Python ints: the agents' native state form.
        states = state_array.tolist()

        # Grouped per-agent Q updates + action selections.  Sessions only
        # ever touch their own agents and RNGs, so the cross-session order
        # is free; within each group lanes are visited in roster order.
        act_ids = agent_id[pos]
        for gid, name in enumerate(self.agent_names):
            for k in np.nonzero(act_ids == gid)[0]:
                j = acting[k]
                controller = controllers[j]
                controller.apply_external_activation(
                    name, int(self.steps[j]), states[k], float(rewards[k])
                )
                decision = controller.current_decision()
                self.qp[j] = decision.qp
                self.threads[j] = decision.threads
                self.freq[j] = decision.frequency_ghz


class BatchStepper:
    """Advances a fleet of orchestrators one step per call, batched.

    Parameters
    ----------
    orchestrators:
        The per-server orchestrators, in fleet order.  Sessions may join and
        leave between steps (the roster is re-gathered automatically); the
        stepper reads each orchestrator's live ``active_sessions()`` exactly
        like the scalar engine does.
    profiler:
        Optional :class:`~repro.telemetry.profiler.StepProfiler`; when given,
        each step charges its wall time to the engine's four phases
        (``mamut`` activations, ``gather``, ``evaluate``, ``scatter``).
        Timing is observe-only — results are bitwise identical either way.

    A stepper holds only caches of session, controller and server state
    (lanes, the fleet allocator's per-server constants, the MAMUT driver's
    decisions and grouping tables), re-read when it is built.  It can be
    dropped at any step — or its orchestrators stepped on the scalar engine
    in between — with nothing to write back.
    """

    def __init__(
        self, orchestrators: Sequence[Orchestrator], profiler=None
    ) -> None:
        self.orchestrators = list(orchestrators)
        self.profiler = profiler if profiler is not None else NULL_PROFILER

        # Model keys interned to small ints, so regrouping lanes after a
        # roster change hashes ints rather than parameter dataclasses.
        self._group_ids: dict[tuple, int] = {}
        self._allocator = FleetAllocator(
            [orch.server for orch in self.orchestrators]
        )

        # Roster state (rebuilt whenever fleet membership changes).
        self._roster: list[TranscodingSession] = []
        self._lanes: list[_SessionLane] = []
        self._lane_by_session: dict[TranscodingSession, _SessionLane] = {}
        self._driver: Optional[_MamutDriver] = None
        self._legacy_pos: list[int] = []
        self._counts: list[int] = []
        self._starts: list[int] = []
        self._video_static = {}
        self._model_groups: list[tuple] = []

    # -- roster maintenance --------------------------------------------------------

    def _group_id(self, key: tuple) -> int:
        return self._group_ids.setdefault(key, len(self._group_ids))

    def _rebuild_roster(self, actives: list[list[TranscodingSession]]) -> None:
        """Re-gather per-session static columns after a membership change."""
        lanes: list[_SessionLane] = []
        lane_map: dict[TranscodingSession, _SessionLane] = {}
        counts: list[int] = []
        roster: list[TranscodingSession] = []
        for sessions in actives:
            counts.append(len(sessions))
            for session in sessions:
                lane = self._lane_by_session.get(session)
                if lane is None:
                    lane = _SessionLane(session, self._group_id)
                lanes.append(lane)
                lane_map[session] = lane
                roster.append(session)

        self._lanes = lanes
        self._lane_by_session = lane_map
        self._roster = roster
        self._counts = counts
        starts = [0]
        for count in counts:
            starts.append(starts[-1] + count)
        self._starts = starts

        self._video_static = {
            name: np.array([float(getattr(lane, name)) for lane in lanes])
            for name in _VIDEO_COLUMNS
        }
        self._model_groups = _group_lanes(
            [(lane.model_group, lane.session.transcoder) for lane in lanes]
        )

        # Partition lanes into driver-managed MAMUT controllers and everything
        # else (exactly MamutController; subclasses are asked through decide).
        driven_pos: list[int] = []
        self._legacy_pos = []
        for i, lane in enumerate(lanes):
            if type(lane.session.controller) is MamutController:
                driven_pos.append(i)
            else:
                self._legacy_pos.append(i)
        self._driver = _MamutDriver(lanes, driven_pos) if driven_pos else None

    def flush_window_state(self) -> None:
        """Do nothing: a stepper holds no state that needs writing back.

        The observation windows live on the controllers and the MAMUT
        driver keeps only caches it re-reads when it is built, so a stepper
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
        actives = [orch.active_sessions() for orch in self.orchestrators]
        flat = [session for sessions in actives for session in sessions]

        if not flat:
            return [orch.idle_step(step) for orch in self.orchestrators]

        if flat != self._roster:
            self._rebuild_roster(actives)

        lanes = self._lanes
        n = len(lanes)
        profiler = self.profiler

        # -- gather: controller decisions + per-frame content -------------------
        # Driver-managed MAMUT fleets run their activations (fleet-vectorized
        # averaging / discretisation / rewards, per-session RNG + Q updates)
        # before their cached decisions are read; every other controller
        # decides per session.
        if self._driver is not None:
            with profiler.phase("mamut"):
                self._driver.advance()

        with profiler.phase("gather"):
            qp = np.empty(n, dtype=np.int64)
            threads = np.empty(n, dtype=np.int64)
            freq = np.empty(n)
            if self._driver is not None:
                driver = self._driver
                qp[driver.positions] = driver.qp
                threads[driver.positions] = driver.threads
                freq[driver.positions] = driver.freq
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
            video = self._video_static
            width, height = video["width"], video["height"]
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
                    qp[s], threads[s], width[s], height[s], video["pixels"][s],
                    complexity[s], motion[s], scene[s], video["effort_factor"][s],
                    video["quality_gain_db"][s], video["compression_gain"][s],
                    freq[s], scale[s],
                )

        # -- scatter -------------------------------------------------------------
        with profiler.phase("scatter"):
            fps_l = fps.tolist()
            psnr_l = psnr.tolist()
            bitrate_l = bitrate.tolist()
            time_l = total_time.tolist()
            power_l = server_power.tolist()
            qp_l = qp.tolist()
            threads_l = threads.tolist()
            freq_list = freq.tolist()

            samples: list[PowerSample] = []
            make_record = FrameRecord
            for server_index, orch in enumerate(self.orchestrators):
                count = self._counts[server_index]
                if not count:
                    samples.append(orch.idle_step(step))
                    continue
                start = self._starts[server_index]
                end = start + count
                total_power = power_l[server_index]
                for i in range(start, end):
                    lane = lanes[i]
                    session = lane.session
                    # Positional construction, field order of the dataclass.
                    record = make_record(
                        lane.session_id,
                        session.step,
                        lane.video_name,
                        fidx_l[i],
                        lane.resolution_class,
                        qp_l[i],
                        threads_l[i],
                        freq_list[i],
                        fps_l[i],
                        psnr_l[i],
                        bitrate_l[i],
                        time_l[i],
                        total_power,
                        lane.target_fps,
                    )
                    session.commit(record)
                    if session.frame_index == 0 and session.active:
                        # The commit wrapped the frame index into a new video.
                        lane.refresh_video()
                        for name in _VIDEO_COLUMNS:
                            self._video_static[name][i] = float(
                                getattr(lane, name)
                            )

                duration = sum(time_l[start:end]) / count
                samples.append(PowerSample(step, total_power, duration, count))

            if self._driver is not None:
                self._driver.steps += 1
        return samples
