"""Agent activation sequence (paper Sec. III-B-d and Fig. 3).

Each agent acts periodically with an offset: ``AGqp`` every 24 frames
(offset 0), ``AGthread`` every 12 frames (offset 1), and ``AGdvfs`` every 6
frames (offset 2).  Frames where no agent acts are the "NULL" slots of
Fig. 3.  The schedule also defines, for Algorithm 1, the *chain* of agents
that follow a given agent before any agent repeats — e.g. right after
``AGqp`` acts, the chain is ``[AGthread, AGdvfs]``; after ``AGthread`` it is
``[AGdvfs]``; after ``AGdvfs`` it is empty (the next actor is ``AGdvfs``
itself, i.e. NULL in the paper's terms).

A schedule keeps its activation table over one hyper-period, which both
lookups read: :meth:`AgentSchedule.agent_at` for one frame and
:meth:`AgentSchedule.agent_at_batch` for an array of frames.  Beside it sits
each acting frame's chain, which :meth:`AgentSchedule.chain_after` reads.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

import numpy as np

from repro.constants import (
    DVFS_AGENT_OFFSET,
    DVFS_AGENT_PERIOD,
    QP_AGENT_OFFSET,
    QP_AGENT_PERIOD,
    THREAD_AGENT_OFFSET,
    THREAD_AGENT_PERIOD,
)
from repro.errors import SchedulingError

__all__ = ["AgentSlot", "AgentSchedule"]


@dataclasses.dataclass(frozen=True)
class AgentSlot:
    """Periodic activation pattern of one agent.

    Attributes
    ----------
    name:
        Agent name (must match the agent registered with the coordinator).
    period:
        The agent acts every ``period`` frames.
    offset:
        Frame offset of the agent's first activation.
    """

    name: str
    period: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise SchedulingError(f"period must be >= 1, got {self.period}")
        if not 0 <= self.offset < self.period:
            raise SchedulingError(
                f"offset must be in [0, period), got offset={self.offset} period={self.period}"
            )

    def acts_at(self, frame_index: int) -> bool:
        """Whether this agent takes an action right before ``frame_index``."""
        if frame_index < 0:
            raise SchedulingError(f"frame_index must be >= 0, got {frame_index}")
        return frame_index % self.period == self.offset


class AgentSchedule:
    """The joint activation schedule of all agents.

    Parameters
    ----------
    slots:
        One :class:`AgentSlot` per agent.  Two agents must never be scheduled
        on the same frame (the paper's offsets guarantee this); overlapping
        slots raise :class:`~repro.errors.SchedulingError` at construction
        time, checked over one hyper-period.  Schedules with equal slots in
        the same order have equal :attr:`key`.
    """

    def __init__(self, slots: Iterable[AgentSlot]) -> None:
        slots = list(slots)
        if not slots:
            raise SchedulingError("an agent schedule needs at least one slot")
        names = [slot.name for slot in slots]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate agent names in schedule: {names}")
        self._slots = tuple(slots)
        self.key = tuple((slot.name, slot.period, slot.offset) for slot in slots)

        hyper_period = 1
        for slot in slots:
            hyper_period = _lcm(hyper_period, slot.period)
        self.hyper_period = hyper_period
        # The position in ``slots`` of the agent acting at each frame of a
        # hyper-period, -1 (the trailing None of _names) on a NULL slot.
        table = []
        for frame in range(hyper_period):
            active = [i for i, slot in enumerate(slots) if slot.acts_at(frame)]
            if len(active) > 1:
                raise SchedulingError(
                    f"agents {[names[i] for i in active]} are scheduled on the "
                    f"same frame ({frame})"
                )
            table.append(active[0] if active else -1)
        self._table = np.array(table, dtype=np.int64)
        self._names = (*names, None)
        # chain_after for each frame of a hyper-period (None on a NULL slot):
        # the agents acting after it, each once, up to the first repeat.
        self._chains: list[Optional[tuple[str, ...]]] = []
        for frame, acting in enumerate(table):
            chain: list[int] = []
            for later in range(frame + 1, frame + hyper_period + 1):
                agent = table[later % hyper_period]
                if agent == acting or agent in chain:
                    break
                if agent >= 0:
                    chain.append(agent)
            self._chains.append(None if acting < 0 else tuple(names[a] for a in chain))

    @classmethod
    def mamut_default(
        cls,
        qp_name: str = "qp",
        thread_name: str = "threads",
        dvfs_name: str = "dvfs",
    ) -> "AgentSchedule":
        """The paper's schedule: QP/24+0, threads/12+1, DVFS/6+2."""
        return cls(
            [
                AgentSlot(qp_name, QP_AGENT_PERIOD, QP_AGENT_OFFSET),
                AgentSlot(thread_name, THREAD_AGENT_PERIOD, THREAD_AGENT_OFFSET),
                AgentSlot(dvfs_name, DVFS_AGENT_PERIOD, DVFS_AGENT_OFFSET),
            ]
        )

    # -- queries ------------------------------------------------------------------

    @property
    def slots(self) -> tuple[AgentSlot, ...]:
        """The schedule's slots."""
        return self._slots

    @property
    def agent_names(self) -> tuple[str, ...]:
        """Names of all scheduled agents, in slot order."""
        return self._names[:-1]

    def agent_at(self, frame_index: int) -> Optional[str]:
        """Name of the agent acting right before ``frame_index`` (None = NULL slot)."""
        if frame_index < 0:
            raise SchedulingError(f"frame_index must be >= 0, got {frame_index}")
        return self._names[self._table[frame_index % self.hyper_period]]

    def agent_at_batch(self, frame_index: np.ndarray) -> np.ndarray:
        """:meth:`agent_at` per frame, as positions in :attr:`agent_names` (-1 = NULL)."""
        frame_index = np.asarray(frame_index, dtype=np.int64)
        if len(frame_index) and frame_index.min() < 0:
            raise SchedulingError(f"frame_index must be >= 0, got {frame_index!r}")
        return self._table[frame_index % self.hyper_period]

    def next_activation(self, frame_index: int) -> tuple[str, int]:
        """The next (agent, frame) activation strictly after ``frame_index``."""
        if frame_index < 0:
            raise SchedulingError(f"frame_index must be >= 0, got {frame_index}")
        for frame in range(frame_index + 1, frame_index + 1 + self.hyper_period):
            agent = self.agent_at(frame)
            if agent is not None:
                return agent, frame
        raise SchedulingError("schedule produced no activation within a hyper-period")

    def chain_after(self, frame_index: int) -> list[str]:
        """Agents that act after the activation at ``frame_index``, in order,
        keeping only the first occurrence of each agent and stopping as soon
        as an already-seen agent (including the one acting at ``frame_index``)
        comes up again.

        This is the agent chain Algorithm 1 walks when computing expected
        Q-values.  With the paper's schedule this yields
        ``["threads", "dvfs"]`` after a QP activation, ``["dvfs"]`` after a
        threads activation, and ``[]`` after a DVFS activation.
        """
        if frame_index < 0:
            raise SchedulingError(f"frame_index must be >= 0, got {frame_index}")
        chain = self._chains[frame_index % self.hyper_period]
        if chain is None:
            raise SchedulingError(f"no agent acts at frame {frame_index}")
        return list(chain)


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)
