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
   MAMUT driver (:class:`_MamutDriver` below): their observation windows
   live in fleet-wide struct-of-arrays running sums, and on activation steps
   the window averaging, :meth:`~repro.core.states.StateSpace.discretize_batch`,
   :meth:`~repro.core.states.StateSpace.state_index_batch` and
   :meth:`~repro.core.rewards.RewardFunction.total_batch` run across every
   activating session in one shot before the grouped per-agent Q updates
   and action selections are applied session by session, each
   agent receiving its dense integer state directly (each session's
   exploration RNG draws stay in its own scalar order).
   Every other controller is asked per session via
   :meth:`~repro.manager.session.TranscodingSession.decide`.
2. **Evaluate** — WPP speedup, busy-core power, decode cycles, encode time,
   PSNR and bitrate come from the models' own ``*_batch`` methods
   (:meth:`~repro.hevc.wpp.WppModel.speedup_batch`,
   :meth:`~repro.platform.power.PowerModel.busy_core_power_batch`,
   :meth:`~repro.hevc.complexity.ComplexityModel.encode_time_seconds_batch`,
   ...), called once per distinct set of model parameters: lanes are
   grouped by their transcoder's models plus delivery rate, and by their
   server's power model plus voltage table.  What lives here is only the
   composition around those calls: the thread allocation and contention of
   :meth:`~repro.platform.server.MulticoreServer.allocate` (its one
   vectorized form) and the decode-plus-encode timing of the transcoder.
3. **Scatter** — every session's results go back through
   :meth:`~repro.manager.session.TranscodingSession.commit` (the same
   ``FrameRecord``/``Observation`` objects the scalar path creates, and the
   same bookkeeping), and one ``PowerSample`` per server is emitted; a
   server with no active sessions is sampled through
   :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`, as on the
   scalar engine.  A commit that wraps the session's ``frame_index`` to 0
   crossed a video boundary: the loop refreshes that lane's video columns
   on the spot, or notes the session's end for the MAMUT driver.

**Equivalence guarantee.**  For the same ``(workload seed, policies, cluster
seed)`` the batch engine produces *bitwise identical* results to the scalar
engine — same frame records, same power samples, same admission ledger, same
``ClusterSummary``.  This holds because each model's batch methods evaluate
the same IEEE-754 operations in the same order as its scalar methods
(transcendental factors go through per-QP lookup tables shared between the
two forms; ``tests/test_batch_models.py`` pins every pair the engine calls),
the composition here follows ``MulticoreServer.allocate`` and the
transcoder pipeline operation for operation, and float reductions
(per-server power and duration sums) are applied in the scalar engine's
accumulation order.  Fault injection preserves the guarantee:
fault draws, session salvage and retries all happen in orchestrator code
outside the stepper, and a crash or recovery changes the live roster
exactly like an autoscaling resize — the stepper is flushed
(``flush_window_state``) and rebuilt over the surviving fleet.  Checkpointed
resumes need no special handling either: a replacement session constructed
mid-video (``TranscodingSession(start_frame_index=...)``) joins a rebuilt
stepper like any other, because lanes read ``session.frame_index`` and
``session.step`` fresh at every step.  The equivalence is enforced by
``tests/test_cluster_batch.py``, ``tests/test_cluster_faults.py`` and
``tests/test_cluster_domains.py``.

Two deliberate deviations from the scalar path, neither observable in the
results: the in-memory DVFS driver mirror (``MulticoreServer``'s
``_apply_to_driver`` bookkeeping) is not maintained, and intermediate
``SessionDemand``/``ServerAllocation``/``TranscodeResult`` objects are never
materialised.  Each engine calls only its own form of a model method, so a
model subclass must override a scalar method and its ``*_batch`` form
together (lanes are grouped by model class as well as parameters, so such a
subclass gets its own calls).  Controllers follow a different rule: exactly
``MamutController`` (not subclasses) is driven through the vectorized
activation path, everything else is asked per session through ``decide``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.mamut import MamutController
from repro.core.observation import Observation
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.records import FrameRecord, PowerSample
from repro.platform.dvfs import DvfsPolicy
from repro.telemetry.profiler import NULL_PROFILER

__all__ = ["BatchStepper"]


class _ServerStatic:
    """Per-server constants gathered once at stepper construction."""

    __slots__ = (
        "cores",
        "hw_threads",
        "smt_efficiency",
        "base_power_w",
        "power_model",
        "power_group",
        "idle_core_power_min_w",
        "idle_core_power_cache",
    )

    def __init__(
        self, orchestrator: Orchestrator, group_id: Callable[[tuple], int]
    ) -> None:
        server = orchestrator.server
        topo = server.topology
        power_model = server.power_model
        table = power_model.voltage_table
        self.cores = topo.physical_cores
        self.hw_threads = topo.hardware_threads
        self.smt_efficiency = topo.smt_efficiency
        self.base_power_w = power_model.params.base_power_w
        self.power_model = power_model
        self.power_group = group_id(
            (
                type(power_model),
                power_model.params,
                tuple(table._freqs),
                tuple(table._volts),
            )
        )
        self.idle_core_power_min_w = power_model.idle_core_power(
            server.dvfs.min_frequency_ghz
        )
        # Chip-wide idle power per requested frequency; the DVFS action sets
        # are tiny, so this saturates after a handful of entries.
        self.idle_core_power_cache: dict[float, float] = {}


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

        # Lanes in one group share each model call; the class is part of
        # the key so a subclass is evaluated by its own *_batch methods.
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

#: ``smt_threads`` as a column: one busy_core_power_batch call returns each
#: lane's per-core power with one busy SMT sibling (row 0) and two (row 1).
_SMT_OCCUPANCIES = np.array([[1], [2]])


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
    Python each frame (window append, schedule lookup, averaging,
    discretisation, reward, Eq. 3, Q update).  The driver keeps the
    per-session observation windows as struct-of-arrays running sums and, on
    activation steps, performs the averaging,
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
    which takes the dense state index as it is.

    The controllers' canonical window state (running sums + count) is
    mirrored into the arrays here; :meth:`flush` writes it back so the state
    survives roster rebuilds and stepper teardowns (fleet resizes rebuild
    the whole stepper).
    """

    __slots__ = (
        "positions",
        "controllers",
        "steps",
        "win_fps",
        "win_psnr",
        "win_bitrate",
        "win_power",
        "win_count",
        "pend_fps",
        "pend_psnr",
        "pend_bitrate",
        "pend_power",
        "pend_valid",
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

        windows = [ctl.observation_window() for ctl in self.controllers]
        self.win_fps = np.array([w[0] for w in windows])
        self.win_psnr = np.array([w[1] for w in windows])
        self.win_bitrate = np.array([w[2] for w in windows])
        self.win_power = np.array([w[3] for w in windows])
        self.win_count = np.array([w[4] for w in windows], dtype=np.int64)

        # The scalar engine folds a step's observation into the window at the
        # *next* step's decide(); the driver mirrors that timing by stashing
        # each step's results here and folding them at the next advance().
        # Between steps a session's not-yet-folded observation is exactly
        # session.last_observation (never yet in the controller's window), so
        # a fresh driver — after a roster rebuild, a stepper teardown, or a
        # stretch on the scalar engine — re-derives the stash from it.
        last = [
            lanes[i].session.last_observation for i in positions
        ]
        self.pend_valid = np.array(
            [obs is not None for obs in last], dtype=bool
        )
        self.pend_fps = np.array(
            [obs.fps if obs is not None else 0.0 for obs in last]
        )
        self.pend_psnr = np.array(
            [obs.psnr_db if obs is not None else 0.0 for obs in last]
        )
        self.pend_bitrate = np.array(
            [obs.bitrate_mbps if obs is not None else 0.0 for obs in last]
        )
        self.pend_power = np.array(
            [obs.power_w if obs is not None else 0.0 for obs in last]
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
        # Fold the previous step's observations into the windows — the
        # array mirror of the scalar decide()'s append-then-activate order.
        valid = self.pend_valid
        if valid.all():
            self.win_fps += self.pend_fps
            self.win_psnr += self.pend_psnr
            self.win_bitrate += self.pend_bitrate
            self.win_power += self.pend_power
            self.win_count += 1
            self.pend_valid = np.zeros_like(valid)
        elif valid.any():
            self.win_fps[valid] += self.pend_fps[valid]
            self.win_psnr[valid] += self.pend_psnr[valid]
            self.win_bitrate[valid] += self.pend_bitrate[valid]
            self.win_power[valid] += self.pend_power[valid]
            self.win_count[valid] += 1
            self.pend_valid = np.zeros_like(valid)

        agent_id = np.full(len(self.controllers), -1, dtype=np.int64)
        for members, hyper, pattern in self.schedule_groups:
            agent_id[members] = pattern[self.steps[members] % hyper]
        act = (agent_id >= 0) & (self.win_count > 0)
        if not act.any():
            return
        pos = np.nonzero(act)[0]

        # Window averaging: one division per component, on the running sums
        # accumulated in arrival order — bitwise the scalar averages.
        counts = self.win_count[pos]
        avg_fps = self.win_fps[pos] / counts
        avg_psnr = self.win_psnr[pos] / counts
        avg_bitrate = self.win_bitrate[pos] / counts
        avg_power = self.win_power[pos] / counts

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
                j = int(pos[k])
                controller = self.controllers[j]
                controller.apply_external_activation(
                    name, int(self.steps[j]), states[k], float(rewards[k])
                )
                decision = controller.current_decision()
                self.qp[j] = decision.qp
                self.threads[j] = decision.threads
                self.freq[j] = decision.frequency_ghz

        self.win_fps[pos] = 0.0
        self.win_psnr[pos] = 0.0
        self.win_bitrate[pos] = 0.0
        self.win_power[pos] = 0.0
        self.win_count[pos] = 0

    def commit_observations(
        self,
        fps: np.ndarray,
        psnr: np.ndarray,
        bitrate: np.ndarray,
        power: np.ndarray,
        window_reset: np.ndarray,
        finished: np.ndarray,
    ) -> None:
        """Stash this step's results for the next advance()'s window fold.

        All arguments are full-lane arrays.  ``window_reset`` marks lanes
        whose session moved to the next playlist video — their controller
        was reset, so the live window clears now and the stashed observation
        starts the fresh window at the next step (the scalar engine's order
        of events).  ``finished`` marks sessions that just completed: their
        controller never sees another observation, so nothing is stashed.
        """
        pos = self.positions
        reset = window_reset[pos]
        if reset.any():
            self.win_fps[reset] = 0.0
            self.win_psnr[reset] = 0.0
            self.win_bitrate[reset] = 0.0
            self.win_power[reset] = 0.0
            self.win_count[reset] = 0
        self.pend_fps = fps[pos]
        self.pend_psnr = psnr[pos]
        self.pend_bitrate = bitrate[pos]
        self.pend_power = power[pos]
        self.pend_valid = ~finished[pos]
        self.steps += 1

    def flush(self) -> None:
        """Write the live windows back to their controllers.

        Called before the driver's arrays are discarded (roster rebuilds and
        stepper teardowns) so a successor — or the scalar engine — resumes
        from the exact same window state.  The not-yet-folded stash is
        deliberately excluded: it equals each session's ``last_observation``,
        which the next engine folds itself (the scalar decide() appends it, a
        fresh driver re-derives it in its constructor), so writing it here
        would double-count the observation.
        """
        for k, controller in enumerate(self.controllers):
            controller.set_observation_window(
                float(self.win_fps[k]),
                float(self.win_psnr[k]),
                float(self.win_bitrate[k]),
                float(self.win_power[k]),
                int(self.win_count[k]),
            )


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
    """

    def __init__(
        self, orchestrators: Sequence[Orchestrator], profiler=None
    ) -> None:
        self.orchestrators = list(orchestrators)
        self.profiler = profiler if profiler is not None else NULL_PROFILER

        # Model keys interned to small ints, so regrouping lanes after a
        # roster change hashes ints rather than parameter dataclasses.
        self._group_ids: dict[tuple, int] = {}
        self._servers = [
            _ServerStatic(orch, self._group_id) for orch in self.orchestrators
        ]
        self._srv_cores = np.array([s.cores for s in self._servers], dtype=np.int64)
        self._srv_hw = np.array(
            [s.hw_threads for s in self._servers], dtype=np.int64
        )
        self._srv_smt_eff = np.array([s.smt_efficiency for s in self._servers])

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
        self._power_groups: list[tuple] = []

    # -- roster maintenance --------------------------------------------------------

    def _group_id(self, key: tuple) -> int:
        return self._group_ids.setdefault(key, len(self._group_ids))

    def _rebuild_roster(self, actives: list[list[TranscodingSession]]) -> None:
        """Re-gather per-session static columns after a membership change."""
        if self._driver is not None:
            self._driver.flush()
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
        self._power_groups = _group_lanes(
            [
                (server.power_group, server.power_model)
                for server, count in zip(self._servers, counts)
                for _ in range(count)
            ]
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
        """Write driver-managed observation windows back to their controllers.

        Must be called when the stepper is discarded mid-run (fleet resizes
        rebuild it); a successor stepper — or the scalar engine — then
        resumes from identical controller state.  A no-op without driven
        sessions.
        """
        if self._driver is not None:
            self._driver.flush()

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
            video = self._video_static
            speedup = np.empty(n)
            for transcoder, s in self._model_groups:
                speedup[s] = transcoder.encoder.wpp_model.speedup_batch(
                    threads[s], video["width"][s], video["height"][s]
                )
            # WppModel.efficiency: the busy fraction of each allocated thread.
            activity = speedup / threads

            # -- per-server allocation (mirrors MulticoreServer.allocate) -------
            counts = self._counts
            starts = self._starts
            busy_idx = [i for i, count in enumerate(counts) if count > 0]
            busy_starts = np.array([starts[i] for i in busy_idx], dtype=np.int64)
            busy_counts = np.array([counts[i] for i in busy_idx], dtype=np.int64)
            busy = np.array(busy_idx, dtype=np.int64)

            total_threads = np.add.reduceat(threads, busy_starts)
            cores_b = self._srv_cores[busy]
            hw_b = self._srv_hw[busy]
            smt_eff_b = self._srv_smt_eff[busy]

            shared = np.minimum(total_threads, hw_b) - cores_b
            capacity = np.where(
                total_threads <= cores_b,
                total_threads.astype(float),
                (cores_b - shared) + 2 * shared * smt_eff_b,
            )
            scale_b = np.minimum(1.0, capacity / total_threads)

            busy_physical = np.minimum(total_threads, cores_b).astype(float)
            smt_cores = np.maximum(
                0, np.minimum(total_threads, hw_b) - cores_b
            ).astype(float)
            single_cores = busy_physical - smt_cores
            idle_cores = cores_b - busy_physical

            scale_rep = np.repeat(scale_b, busy_counts)
            total_rep = np.repeat(total_threads, busy_counts)
            single_rep = np.repeat(single_cores, busy_counts)
            smt_rep = np.repeat(smt_cores, busy_counts)

            effective_activity = np.minimum(1.0, activity / scale_rep)
            core_power = np.empty((2, n))
            for power_model, s in self._power_groups:
                core_power[:, s] = power_model.busy_core_power_batch(
                    freq[s], effective_activity[s], _SMT_OCCUPANCIES
                )
            per_single, per_smt = core_power

            share = threads / total_rep
            own_single = share * single_rep
            own_smt = share * smt_rep
            session_power = own_single * per_single + own_smt * per_smt

            # -- transcode (composed as in HevcDecoder/HevcEncoder/Transcoder) --
            effective = np.maximum(1.0, speedup * scale_rep)
            decode_cycles, encode_time, psnr, bitrate = np.empty((4, n))
            for transcoder, s in self._model_groups:
                encoder = transcoder.encoder
                q, cx, mo, sc = qp[s], complexity[s], motion[s], scene[s]
                px = video["pixels"][s]
                decoder_model = transcoder.decoder.complexity_model
                decode_cycles[s] = decoder_model.decode_cycles_batch(px, cx)
                encode_time[s] = encoder.complexity_model.encode_time_seconds_batch(
                    q, px, cx, mo, sc, freq[s], effective[s], video["effort_factor"][s]
                )
                psnr[s] = encoder.rd_model.psnr_db_batch(
                    q, cx, mo, video["quality_gain_db"][s]
                )
                bitrate[s] = encoder.rd_model.bitrate_mbps_batch(
                    q, cx, mo, sc, px, encoder.delivery_fps, video["compression_gain"][s]
                )
            decode_time = decode_cycles / (freq * 1e9)
            total_time = decode_time + encode_time
            fps = 1.0 / total_time

        # -- scatter -------------------------------------------------------------
        with profiler.phase("scatter"):
            fps_l = fps.tolist()
            psnr_l = psnr.tolist()
            bitrate_l = bitrate.tolist()
            time_l = total_time.tolist()
            power_l = session_power.tolist()
            qp_l = qp.tolist()
            threads_l = threads.tolist()
            freq_list = freq.tolist()
            idle_cores_l = idle_cores.tolist()
            # Lanes whose commit moved the session to its next video (its
            # controller was reset) or finished it, for the MAMUT driver.
            advanced = np.zeros(n, dtype=bool)
            finished = np.zeros(n, dtype=bool)
            # Per-lane server power (each session observes its server's total
            # draw), fed back into the driver's observation windows.
            power_lane = np.empty(n)

            samples: list[Optional[PowerSample]] = [None] * len(
                self.orchestrators
            )
            make_observation = Observation
            make_record = FrameRecord
            for k, server_index in enumerate(busy_idx):
                start = starts[server_index]
                end = start + counts[server_index]
                orch = self.orchestrators[server_index]
                server_static = self._servers[server_index]

                # Idle/base power share (mirrors allocate's shared_power).
                if orch.server.dvfs_policy is DvfsPolicy.CHIP_WIDE:
                    idle_freq = max(freq_list[start:end])
                    cache = server_static.idle_core_power_cache
                    idle_core_power = cache.get(idle_freq)
                    if idle_core_power is None:
                        idle_core_power = (
                            server_static.power_model.idle_core_power(idle_freq)
                        )
                        cache[idle_freq] = idle_core_power
                else:
                    idle_core_power = server_static.idle_core_power_min_w
                idle_power = idle_cores_l[k] * idle_core_power
                shared_power = server_static.base_power_w + idle_power
                busy_power_total = sum(power_l[start:end])
                total_power = shared_power + busy_power_total
                power_lane[start:end] = total_power

                for i in range(start, end):
                    lane = lanes[i]
                    session = lane.session
                    fps_i = fps_l[i]
                    psnr_i = psnr_l[i]
                    bitrate_i = bitrate_l[i]
                    # Positional construction, field order of the dataclasses.
                    observation = make_observation(
                        fps_i, psnr_i, bitrate_i, total_power
                    )
                    record = make_record(
                        lane.session_id,
                        session.step,
                        lane.video_name,
                        fidx_l[i],
                        lane.resolution_class,
                        qp_l[i],
                        threads_l[i],
                        freq_list[i],
                        fps_i,
                        psnr_i,
                        bitrate_i,
                        time_l[i],
                        total_power,
                        lane.target_fps,
                    )
                    session.commit(record, observation)
                    if session.frame_index == 0:
                        # The commit wrapped the frame index: a video boundary.
                        if session.active:
                            advanced[i] = True
                            lane.refresh_video()
                            for name in _VIDEO_COLUMNS:
                                self._video_static[name][i] = float(
                                    getattr(lane, name)
                                )
                        else:
                            finished[i] = True

                duration = sum(time_l[start:end]) / counts[server_index]
                samples[server_index] = PowerSample(
                    step=step,
                    power_w=total_power,
                    duration_s=duration,
                    active_sessions=counts[server_index],
                )

            for server_index, orch in enumerate(self.orchestrators):
                if samples[server_index] is None:
                    samples[server_index] = orch.idle_step(step)

            if self._driver is not None:
                self._driver.commit_observations(
                    fps, psnr, bitrate, power_lane, advanced, finished
                )
        return samples  # type: ignore[return-value]
