"""Agent activation sequence (paper Sec. III-B-d and Fig. 3).

Each agent acts periodically with an offset: ``AGqp`` every 24 frames
(offset 0), ``AGthread`` every 12 frames (offset 1), and ``AGdvfs`` every 6
frames (offset 2).  Frames where no agent acts are the "NULL" slots of
Fig. 3.  The schedule also defines, for Algorithm 1, the *chain* of agents
that follow a given agent before any agent repeats — e.g. right after
``AGqp`` acts, the chain is ``[AGthread, AGdvfs]``; after ``AGthread`` it is
``[AGdvfs]``; after ``AGdvfs`` it is empty (the next actor is ``AGdvfs``
itself, i.e. NULL in the paper's terms).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

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
        time, checked over one hyper-period.
    """

    def __init__(self, slots: Iterable[AgentSlot]) -> None:
        slots = list(slots)
        if not slots:
            raise SchedulingError("an agent schedule needs at least one slot")
        names = [slot.name for slot in slots]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate agent names in schedule: {names}")
        self._slots = tuple(slots)

        hyper_period = 1
        for slot in slots:
            hyper_period = _lcm(hyper_period, slot.period)
        self.hyper_period = hyper_period
        for frame in range(hyper_period):
            active = [slot.name for slot in slots if slot.acts_at(frame)]
            if len(active) > 1:
                raise SchedulingError(
                    f"agents {active} are scheduled on the same frame ({frame})"
                )

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
        """Names of all scheduled agents."""
        return tuple(slot.name for slot in self._slots)

    def agent_at(self, frame_index: int) -> Optional[str]:
        """Name of the agent acting right before ``frame_index`` (None = NULL slot)."""
        for slot in self._slots:
            if slot.acts_at(frame_index):
                return slot.name
        return None

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
        current = self.agent_at(frame_index)
        if current is None:
            raise SchedulingError(f"no agent acts at frame {frame_index}")
        seen = {current}
        chain: list[str] = []
        frame = frame_index
        for _ in range(self.hyper_period):
            name, frame = self.next_activation(frame)
            if name in seen:
                break
            chain.append(name)
            seen.add(name)
        return chain


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)
