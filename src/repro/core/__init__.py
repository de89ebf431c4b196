"""Reinforcement-learning core: the MAMUT multi-agent controller.

This package implements the paper's contribution:

* the observation/state discretisation of Sec. III-C;
* the per-agent action subsets of Sec. III-B;
* the reward functions of Sec. III-D (Eq. 1-2 plus constraint penalties);
* the learning-rate function of Sec. IV-B (Eq. 3) and the three learning
  phases of Sec. IV-A/IV-C;
* the learning store that holds what every agent learns (Q-values, visit
  and action counts, transitions), with a scalar and a batch form of each
  learning step;
* the agent activation sequence of Fig. 3;
* the chained expected-Q exploitation policy of Algorithm 1;
* :class:`~repro.core.mamut.MamutController`, which ties the three agents
  (QP, threads, DVFS) together behind the generic
  :class:`~repro.core.controller.Controller` interface used by the
  multi-user orchestrator.
"""

from repro.core.observation import Observation, ObservationWindow
from repro.core.states import StateSpace, SystemState
from repro.core.actions import (
    ActionSet,
    default_dvfs_actions,
    default_qp_actions,
    default_thread_actions,
)
from repro.core.rewards import RewardConfig, RewardFunction, RewardBreakdown
from repro.core.learning_rate import LearningRateFunction
from repro.core.store import LearningStore
from repro.core.phases import Phase
from repro.core.agent import QLearningAgent
from repro.core.schedule import AgentSchedule, AgentSlot
from repro.core.exploitation import expected_q_action
from repro.core.controller import Controller, Decision
from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.core.persistence import (
    load_snapshot,
    restore_agents,
    save_snapshot,
    snapshot_agents,
)

__all__ = [
    "Observation",
    "ObservationWindow",
    "StateSpace",
    "SystemState",
    "ActionSet",
    "default_qp_actions",
    "default_thread_actions",
    "default_dvfs_actions",
    "RewardConfig",
    "RewardFunction",
    "RewardBreakdown",
    "LearningRateFunction",
    "LearningStore",
    "Phase",
    "QLearningAgent",
    "AgentSchedule",
    "AgentSlot",
    "expected_q_action",
    "Controller",
    "Decision",
    "MamutConfig",
    "MamutController",
    "snapshot_agents",
    "restore_agents",
    "save_snapshot",
    "load_snapshot",
]
