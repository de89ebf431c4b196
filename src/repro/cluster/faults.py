"""Seeded fault injection: crashes, stragglers, and failed provisions.

Every server in the original cluster layer was immortal; a production fleet
is not.  This module supplies the *chaos* half of the failure-recovery
subsystem: a :class:`FaultInjector` owns its own random stream (independent
of the workload's and the per-session controllers') and answers, step by
step, which servers crash, which ones transiently straggle, and which fresh
provisions never come ready.  The *recovery* half — health states on the
server roster, session salvage and Q-table migration, retries with
exponential backoff, the ``failed``/``retried`` ledger — lives in
:class:`~repro.cluster.cluster.ClusterOrchestrator`.

Fault models
------------

* **Crash** — an abrupt whole-server failure.  Each healthy or degraded
  server fails independently with probability ``1 / crash_mtbf_steps`` per
  step.  A crashed server is down (drawing no power, serving nothing) for an
  exponentially distributed downtime around ``crash_mttr_steps``, then
  reboots through the provisioning warm-up before serving again.
* **Straggler** — a transient frequency/thermal throttle.  A throttled
  server keeps serving its in-flight sessions but is *removed from the
  dispatchable roster* for the throttle's duration, so the scheduler routes
  around it.  Modelling the throttle at the scheduling layer (like brownout
  degrades only at dispatch) keeps both stepping engines trivially
  bitwise-equivalent: no in-engine math changes.
* **Warm-up failure** — a provision that never comes ready.  Each fresh
  server commissioned by the autoscaler fails with probability
  ``warmup_failure_rate``; at the step it would have become dispatchable it
  is retired instead, and the autoscaler sees the lost capacity.
* **Zone outage** — a *correlated* whole-domain failure.  Every roster slot
  belongs to a seeded ``(zone, rack)`` failure domain
  (:class:`FailureTopology`); a zone outage — drawn per zone per step with
  probability ``1 / zone_mtbf_steps``, or declared outright by a
  :class:`KillSchedule` — crashes every powered-on server in the zone at
  once, all sharing a single downtime draw.  This is the rack/zone power
  loss real fleets see and i.i.d. per-server draws cannot model.

Checkpointing
-------------

``checkpoint_interval_frames`` enables periodic frame-level session
checkpoints: every time a session's frame index crosses the interval, the
cluster meters a modeled checkpoint-bandwidth cost
(``checkpoint_power_w``) into that server's power draw, and a session later
lost to a crash resumes its interrupted video from the last checkpoint
rather than from the video start — bounding recomputation to at most
``interval - 1`` frames per retry.

Determinism
-----------

All draws come from generators seeded by ``FaultConfig.seed`` and are made
in cluster-orchestrator code shared verbatim by the scalar and batch
engines (per-slot in roster order, outside both engines' stepping math), so
the same config produces the identical fault schedule — and the identical
run — on either engine.  A config with no fault mode enabled
(:attr:`FaultConfig.enabled` false) makes no draws at all, so a no-op
config is bitwise identical to running without one.

Zone-outage draws live on their *own* substream
(``default_rng((seed, _DOMAIN_STREAM_KEY))``), one batch of draws per zone
per step regardless of fleet membership — so the zonal outage schedule is a
pure function of ``(seed, step)`` and survives mid-run autoscale resizes
bitwise unchanged, which per-server i.i.d. draws on the shared stream could
not guarantee.

Like the scheduling policies, an injector carries state (its RNG streams):
build a fresh instance per run for reproducible schedules.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

import numpy as np

from repro.errors import ClusterError

__all__ = [
    "FailureTopology",
    "KillEntry",
    "KillSchedule",
    "FaultConfig",
    "FaultInjector",
]

# Key mixed into the fault seed for the zone-outage substream.  Any fixed
# constant works; keeping it distinct from plausible user seeds avoids
# accidental stream collisions with the per-server stream.
_DOMAIN_STREAM_KEY = 0x5A4F4E45  # "ZONE"


@dataclasses.dataclass(frozen=True)
class FailureTopology:
    """Seeded assignment of roster slots to ``(zone, rack)`` failure domains.

    The assignment is a pure function of the slot index: each consecutive
    block of ``zones`` slots covers every zone exactly once, in an order
    shuffled per block by ``seed``.  That keeps zones balanced at any fleet
    size *and* keeps every slot's domain stable under mid-run autoscale
    growth — slot 7's zone is the same whether the fleet started at 3
    servers or 12.

    Attributes
    ----------
    zones:
        Number of failure zones (power domains).  1 means the whole fleet
        shares one domain.
    racks_per_zone:
        Racks inside each zone; rack identity currently only labels fault
        events and snapshots (outages are drawn at zone granularity).
    seed:
        Seeds the per-block zone shuffle.  Defaults to 0 — pass the fault
        seed to correlate the layout with the rest of the fault schedule.
    """

    zones: int = 1
    racks_per_zone: int = 1
    seed: int = 0
    _block_cache: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.zones < 1:
            raise ClusterError(f"zones must be >= 1, got {self.zones}")
        if self.racks_per_zone < 1:
            raise ClusterError(
                f"racks_per_zone must be >= 1, got {self.racks_per_zone}"
            )

    def domain_of(self, slot_index: int) -> tuple[int, int]:
        """The ``(zone, rack)`` domain of roster slot ``slot_index``."""
        if slot_index < 0:
            raise ClusterError(f"slot_index must be >= 0, got {slot_index}")
        block, pos = divmod(slot_index, self.zones)
        perm = self._block_cache.get(block)
        if perm is None:
            perm = np.random.default_rng((self.seed, block)).permutation(self.zones)
            self._block_cache[block] = perm
        zone = int(perm[pos])
        rack = block % self.racks_per_zone
        return zone, rack


@dataclasses.dataclass(frozen=True)
class KillEntry:
    """One declarative zone kill: take zone ``zone`` down at ``step``."""

    zone: int
    step: int
    duration: int

    def __post_init__(self) -> None:
        if self.zone < 0:
            raise ClusterError(f"kill zone must be >= 0, got {self.zone}")
        if self.step < 0:
            raise ClusterError(f"kill step must be >= 0, got {self.step}")
        if self.duration < 1:
            raise ClusterError(f"kill duration must be >= 1, got {self.duration}")


@dataclasses.dataclass(frozen=True)
class KillSchedule:
    """A declarative chaos experiment: kill zone Z at step T for D steps.

    Unlike MTBF-drawn outages, scheduled kills consume *no* random draws —
    the same schedule replays bit-for-bit against any fault seed, which is
    what makes pinned chaos scenarios (CI smoke, benchmark sweeps)
    comparable across configurations.
    """

    entries: tuple[KillEntry, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.entries)

    def at_step(self, step: int) -> tuple[KillEntry, ...]:
        """The kills declared for ``step``, in declaration order."""
        return tuple(entry for entry in self.entries if entry.step == step)

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "KillSchedule":
        """Build a schedule from ``"ZONE:STEP:DURATION"`` spec strings."""
        entries = []
        for spec in specs:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ClusterError(
                    f"kill spec must be ZONE:STEP:DURATION, got {spec!r}"
                )
            try:
                zone, step, duration = (int(part) for part in parts)
            except ValueError as exc:
                raise ClusterError(
                    f"kill spec must be three integers, got {spec!r}"
                ) from exc
            entries.append(KillEntry(zone=zone, step=step, duration=duration))
        return cls(entries=tuple(entries))


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Declarative description of one run's fault schedule.

    Attributes
    ----------
    crash_mtbf_steps:
        Per-server mean time between crashes, in cluster steps; each
        healthy server fails with probability ``1 / crash_mtbf_steps`` per
        step.  ``None`` disables crashes.
    crash_mttr_steps:
        Mean downtime of a crashed server before it starts rebooting
        (exponentially distributed, at least one step).  The reboot then
        pays the cluster's provisioning warm-up on top.
    straggler_mtbf_steps:
        Per-server mean time between transient throttles; ``None``
        disables stragglers.
    straggler_duration_steps:
        Mean length of a throttle episode (exponential, at least one step).
    warmup_failure_rate:
        Probability in ``[0, 1]`` that a freshly commissioned server never
        comes ready and is retired at the end of its warm-up.
    max_retries:
        Crash-retry budget per request: how many times a session lost to a
        crash is re-dispatched before the request lands in the ``failed``
        ledger.  0 turns recovery off (the naive load-shedding baseline).
    retry_backoff_steps:
        Base of the exponential backoff: the ``n``-th retry becomes
        eligible ``retry_backoff_steps * 2**(n-1)`` steps after the crash.
    seed:
        Seeds the injector's private random streams — independent of the
        workload and controller seeds, so the same fault schedule can be
        replayed against different traffic and vice versa.
    topology:
        The fleet's :class:`FailureTopology`.  ``None`` means one zone /
        one rack (every server in the same domain).
    zone_mtbf_steps:
        Mean time between *correlated* zone outages, per zone; each zone
        fails with probability ``1 / zone_mtbf_steps`` per step, taking
        down every powered-on server in it.  ``None`` disables drawn zone
        outages (a :class:`KillSchedule` can still declare them).
    zone_mttr_steps:
        Mean downtime of a drawn zone outage (exponential, at least one
        step, one draw shared by all victims of the outage).
    kill_schedule:
        Declarative zone kills for deterministic chaos experiments; adds
        no random draws.
    checkpoint_interval_frames:
        Frame-level checkpoint period.  Every ``interval`` frames a
        session's state is checkpointed (bandwidth cost metered into fleet
        power); a crashed session resumes from the last checkpoint instead
        of the video start.  ``None`` disables checkpointing — crashed
        sessions replay the interrupted video from frame 0.
    checkpoint_power_w:
        Modeled bandwidth/IO cost of writing one checkpoint, added to the
        owning server's package power for the step of the write.
    """

    crash_mtbf_steps: Optional[float] = None
    crash_mttr_steps: float = 10.0
    straggler_mtbf_steps: Optional[float] = None
    straggler_duration_steps: float = 5.0
    warmup_failure_rate: float = 0.0
    max_retries: int = 3
    retry_backoff_steps: int = 2
    seed: int = 0
    topology: Optional[FailureTopology] = None
    zone_mtbf_steps: Optional[float] = None
    zone_mttr_steps: float = 15.0
    kill_schedule: Optional[KillSchedule] = None
    checkpoint_interval_frames: Optional[int] = None
    checkpoint_power_w: float = 3.0

    def __post_init__(self) -> None:
        if self.crash_mtbf_steps is not None and self.crash_mtbf_steps <= 0:
            raise ClusterError(
                f"crash_mtbf_steps must be > 0, got {self.crash_mtbf_steps}"
            )
        if self.crash_mttr_steps <= 0:
            raise ClusterError(
                f"crash_mttr_steps must be > 0, got {self.crash_mttr_steps}"
            )
        if self.straggler_mtbf_steps is not None and self.straggler_mtbf_steps <= 0:
            raise ClusterError(
                f"straggler_mtbf_steps must be > 0, got {self.straggler_mtbf_steps}"
            )
        if self.straggler_duration_steps <= 0:
            raise ClusterError(
                "straggler_duration_steps must be > 0, "
                f"got {self.straggler_duration_steps}"
            )
        if not 0.0 <= self.warmup_failure_rate <= 1.0:
            raise ClusterError(
                f"warmup_failure_rate must be in [0, 1], got {self.warmup_failure_rate}"
            )
        if self.max_retries < 0:
            raise ClusterError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_steps < 0:
            raise ClusterError(
                f"retry_backoff_steps must be >= 0, got {self.retry_backoff_steps}"
            )
        if self.zone_mtbf_steps is not None and self.zone_mtbf_steps <= 0:
            raise ClusterError(
                f"zone_mtbf_steps must be > 0, got {self.zone_mtbf_steps}"
            )
        if self.zone_mttr_steps <= 0:
            raise ClusterError(
                f"zone_mttr_steps must be > 0, got {self.zone_mttr_steps}"
            )
        if self.kill_schedule is not None and self.topology is not None:
            for entry in self.kill_schedule.entries:
                if entry.zone >= self.topology.zones:
                    raise ClusterError(
                        f"kill schedule names zone {entry.zone} but the "
                        f"topology has only {self.topology.zones} zones"
                    )
        if (
            self.checkpoint_interval_frames is not None
            and self.checkpoint_interval_frames < 1
        ):
            raise ClusterError(
                "checkpoint_interval_frames must be >= 1, "
                f"got {self.checkpoint_interval_frames}"
            )
        if self.checkpoint_power_w < 0:
            raise ClusterError(
                f"checkpoint_power_w must be >= 0, got {self.checkpoint_power_w}"
            )

    @property
    def enabled(self) -> bool:
        """True when any fault mode (or checkpointing) can actually fire."""
        return (
            self.crash_mtbf_steps is not None
            or self.straggler_mtbf_steps is not None
            or self.warmup_failure_rate > 0.0
            or self.zone_mtbf_steps is not None
            or (self.kill_schedule is not None and bool(self.kill_schedule))
            or self.checkpoint_interval_frames is not None
        )


class FaultInjector:
    """Draws the fault schedule from its own seeded random streams.

    The orchestrator consults the injector once per step for zone outages
    (scheduled kills first — no draws — then one MTBF draw per zone on the
    dedicated domain substream), then per live server per step (crash, then
    straggler) and once per freshly commissioned server (warm-up failure) on
    the per-server stream.  Disabled modes make no draws, so enabling one
    mode never perturbs another mode's schedule, and a fully disabled
    config draws nothing at all.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.topology = (
            config.topology
            if config.topology is not None
            else FailureTopology(seed=config.seed)
        )
        self._rng = np.random.default_rng(config.seed)
        self._domain_rng = np.random.default_rng((config.seed, _DOMAIN_STREAM_KEY))
        self._crash_p = (
            min(1.0, 1.0 / config.crash_mtbf_steps)
            if config.crash_mtbf_steps is not None
            else 0.0
        )
        self._straggle_p = (
            min(1.0, 1.0 / config.straggler_mtbf_steps)
            if config.straggler_mtbf_steps is not None
            else 0.0
        )
        self._zone_p = (
            min(1.0, 1.0 / config.zone_mtbf_steps)
            if config.zone_mtbf_steps is not None
            else 0.0
        )

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def crashes(self) -> bool:
        """One per-server-per-step crash draw."""
        if self._crash_p == 0.0:
            return False
        return bool(self._rng.random() < self._crash_p)

    def straggles(self) -> bool:
        """One per-server-per-step throttle draw."""
        if self._straggle_p == 0.0:
            return False
        return bool(self._rng.random() < self._straggle_p)

    def downtime_steps(self) -> int:
        """Seeded downtime of one crash (>= 1 steps, mean ~MTTR)."""
        return 1 + int(self._rng.exponential(self.config.crash_mttr_steps))

    def throttle_steps(self) -> int:
        """Seeded duration of one straggler episode (>= 1 steps)."""
        return 1 + int(self._rng.exponential(self.config.straggler_duration_steps))

    def provision_fails(self) -> bool:
        """One draw per freshly commissioned server."""
        if self.config.warmup_failure_rate == 0.0:
            return False
        return bool(self._rng.random() < self.config.warmup_failure_rate)

    def scheduled_kills(self, step: int) -> tuple[KillEntry, ...]:
        """Declarative zone kills firing at ``step`` (no random draws)."""
        if self.config.kill_schedule is None:
            return ()
        return self.config.kill_schedule.at_step(step)

    def zone_outages(self) -> list[tuple[int, int]]:
        """Per-step correlated-outage draws: ``[(zone, downtime), ...]``.

        One Bernoulli draw per zone per step on the dedicated domain
        substream (plus one downtime draw per hit), *independent of fleet
        membership* — the zonal schedule is a pure function of the fault
        seed and the step, so autoscale resizes cannot perturb it.
        """
        if self._zone_p == 0.0:
            return []
        outages = []
        for zone in range(self.topology.zones):
            if self._domain_rng.random() < self._zone_p:
                downtime = 1 + int(
                    self._domain_rng.exponential(self.config.zone_mttr_steps)
                )
                outages.append((zone, downtime))
        return outages

    def retry_ready_step(self, step: int, attempt: int) -> int:
        """Step at which retry ``attempt`` (1-based) becomes eligible."""
        return step + self.config.retry_backoff_steps * (2 ** (attempt - 1))
