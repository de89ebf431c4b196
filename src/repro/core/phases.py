"""Learning phases (paper Sec. IV-A and IV-C).

Each agent progresses, *per state*, through three phases:

* **EXPLORATION** — actions are chosen randomly (least-tried first) and every
  transition/reward updates the Q-table and the transition counts.
* **EXPLORATION_EXPLOITATION** — entered when the learning rate of the
  state's actions drops below ``alpha_th1``; actions are chosen greedily from
  the agent's own Q-table, but updates continue.
* **EXPLOITATION** — entered below ``alpha_th2``; the agent selects actions
  with the chained expected-Q policy of Algorithm 1 (falling back to its own
  Q-table when the other agents are not ready).

Observing a brand-new state puts that state back into EXPLORATION.
"""

from __future__ import annotations

import enum

__all__ = ["Phase"]


class Phase(enum.Enum):
    """Learning phase of one agent for one state."""

    EXPLORATION = "exploration"
    EXPLORATION_EXPLOITATION = "exploration-exploitation"
    EXPLOITATION = "exploitation"
