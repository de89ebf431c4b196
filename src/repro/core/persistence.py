"""Persistence of learned knowledge (Q-tables, counters, transitions).

The paper's results reflect agents that have already learned their
environment.  This module lets a controller's learned state be snapshotted to
plain JSON-serialisable dictionaries, written to disk, and restored into a
fresh controller — which enables pre-training once and reusing the knowledge
across experiments (see :mod:`repro.manager.pretrain`).

Snapshots cover, per agent: the Q-table, the per-(state, action) and
per-action visit counters, and the empirical transition counts.
:func:`snapshot_agent` reads them from the agent's slot of its
:class:`~repro.core.store.AgentPool` (its stored Q-values, visited pairs,
``Num(s, a)`` and next-state counts).  In memory an agent's states are
dense integers; snapshots write each one as its 4-tuple of bin indices,
through the agent's :class:`~repro.core.states.StateSpace`.

JSON is the on-disk format only, parsed and checked by
:func:`restore_agents`.  Copying learned state from one live controller
into another serialises nothing: :func:`copy_controller_state` copies each
agent's Q-table and counters.  It serves crash salvage inside a cluster run
(:func:`snapshot_session` keeps a reference to the dying controller, and
:func:`restore_session_state` copies from it into the replacement) and
pre-trained factories, which parse each snapshot once and copy it into
every controller they build (:mod:`repro.manager.pretrain`).  Both paths
write into the target agent's own slot of its
:class:`~repro.core.store.LearningStore` (through
:meth:`~repro.core.agent.QLearningAgent.load_learned_state` and
:meth:`~repro.core.agent.QLearningAgent.copy_learned_state`), so restored
knowledge lands in the store the batch engine reads; a copy may cross
stores, as it does when a retry is built by a brownout's own factory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.core.agent import QLearningAgent
from repro.core.states import StateSpace, SystemState
from repro.errors import ConfigurationError, LearningError
from repro.numeric import ordered_sum

__all__ = [
    "snapshot_agent",
    "restore_agent",
    "snapshot_agents",
    "restore_agents",
    "snapshot_controller",
    "copy_controller_state",
    "snapshot_session",
    "restore_session_state",
    "save_snapshot",
    "load_snapshot",
]

#: Format version stored in every snapshot file.
SNAPSHOT_VERSION = 1


def _state_key(space: StateSpace, state: int) -> str:
    return ",".join(str(v) for v in space.index_to_state(state).as_tuple())


def snapshot_agent(agent: QLearningAgent) -> dict[str, Any]:
    """Serialise one agent's learned state into a JSON-compatible dict."""
    space = agent.state_space
    pool, slot = agent.pool, agent.slot
    pairs = pool.visited_pairs(slot)

    def pair_key(state: int, action: int) -> str:
        return f"{_state_key(space, state)}|{action}"

    return {
        "name": agent.name,
        "num_actions": len(agent.actions),
        "action_values": list(agent.actions.values),
        "q_values": {
            pair_key(state, action): value
            for (state, action), value in pool.stored_q(slot).items()
        },
        "state_action_counts": {
            pair_key(state, action): pool.visit_count(slot, state, action)
            for state, action in pairs
        },
        "action_counts": {str(a): agent.action_count(a) for a in agent.actions.indices()},
        "transitions": {
            pair_key(state, action): {
                _state_key(space, next_state): count
                for next_state, count in pool.next_counts(slot, state, action).items()
            }
            for state, action in pairs
        },
    }


def restore_agent(agent: QLearningAgent, snapshot: Mapping[str, Any]) -> None:
    """Load a snapshot produced by :func:`snapshot_agent` into ``agent``.

    The snapshot replaces what the agent had learned; nothing is merged.
    The agent must have the same number of actions as the snapshot; the
    action *values* are compared too and a mismatch raises, because Q-values
    indexed against a different action set would be silently wrong.  Every
    key is parsed and checked before anything is written: each state must
    lie inside the agent's state space, each action index in range, each
    count must be an integer, and ``state_action_counts`` must equal the
    transition totals.  Any violation raises :class:`LearningError` and
    leaves the agent untouched.
    """
    if int(snapshot["num_actions"]) != len(agent.actions):
        raise LearningError(
            f"snapshot has {snapshot['num_actions']} actions, "
            f"agent {agent.name!r} has {len(agent.actions)}"
        )
    snapshot_values = [tuple(v) if isinstance(v, list) else v for v in snapshot["action_values"]]
    agent_values = [
        tuple(v) if isinstance(v, (list, tuple)) else v for v in agent.actions.values
    ]
    if list(snapshot_values) != list(agent_values):
        raise LearningError(
            f"snapshot action values {snapshot_values!r} do not match "
            f"agent {agent.name!r} action values {agent_values!r}"
        )

    space = agent.state_space
    actions = {str(a): a for a in agent.actions.indices()}

    def state(key: str) -> int:
        return space.state_index(SystemState(*(int(v) for v in key.split(","))))

    def pair(key: str) -> tuple[int, int]:
        state_key, _, action_key = key.rpartition("|")
        return state(state_key), actions[action_key]

    def count(value: Any, minimum: int = 1) -> int:
        if not isinstance(value, int) or value < minimum:
            raise LearningError(
                f"snapshot of agent {agent.name!r}: count {value!r} is not an "
                f"integer >= {minimum}"
            )
        return value

    try:
        q_values = {pair(key): float(value) for key, value in snapshot["q_values"].items()}
        transitions = {
            pair(key): {state(next_key): count(n) for next_key, n in next_counts.items()}
            for key, next_counts in snapshot["transitions"].items()
        }
        pair_counts = {pair(key): count(n) for key, n in snapshot["state_action_counts"].items()}
        action_counts = {actions[key]: count(n, 0) for key, n in snapshot["action_counts"].items()}
    except (KeyError, TypeError, ValueError, ConfigurationError) as error:
        raise LearningError(
            f"snapshot does not fit agent {agent.name!r}: {error!r}"
        ) from None
    if pair_counts != {p: ordered_sum(observed.values()) for p, observed in transitions.items()}:
        raise LearningError(
            f"snapshot of agent {agent.name!r}: state_action_counts do not "
            "match the transition totals"
        )

    agent.load_learned_state(
        q_values,
        transitions,
        [action_counts.get(a, 0) for a in agent.actions.indices()],
    )


def snapshot_agents(agents: Mapping[str, QLearningAgent]) -> dict[str, Any]:
    """Serialise a named collection of agents (e.g. a MAMUT controller's)."""
    return {
        "version": SNAPSHOT_VERSION,
        "agents": {name: snapshot_agent(agent) for name, agent in agents.items()},
    }


def restore_agents(agents: Mapping[str, QLearningAgent], snapshot: Mapping[str, Any]) -> None:
    """Restore a collection snapshot into matching agents (by name)."""
    if int(snapshot.get("version", -1)) != SNAPSHOT_VERSION:
        raise LearningError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    stored = snapshot["agents"]
    missing = set(stored) - set(agents)
    if missing:
        raise LearningError(f"snapshot contains unknown agents: {sorted(missing)}")
    for name, agent_snapshot in stored.items():
        restore_agent(agents[name], agent_snapshot)


def _agents(controller: Any) -> Mapping[str, QLearningAgent] | None:
    """The controller's name-to-agent mapping, or None if it learns nothing."""
    agents = getattr(controller, "agents", None)
    if not isinstance(agents, Mapping) or not agents:
        return None
    if not all(isinstance(agent, QLearningAgent) for agent in agents.values()):
        return None
    return agents


def snapshot_controller(controller: Any) -> Mapping[str, Any] | None:
    """Snapshot a controller's learned state, if it carries any.

    Controllers that expose an ``agents`` name-to-:class:`QLearningAgent`
    mapping (MAMUT) are snapshotted with :func:`snapshot_agents`; for
    anything else (static, heuristic) there is nothing to carry and ``None``
    is returned.
    """
    agents = _agents(controller)
    return None if agents is None else snapshot_agents(agents)


def snapshot_session(
    session: Any, *, checkpoint_interval: int | None = None
) -> dict[str, Any]:
    """Salvage a crashing transcoding session for migration.

    Keeps a reference to the session's ``controller`` — the caller
    terminates the session and never steps that controller again, so its
    learned state stays as it was at the crash — and the session's
    progress.  ``resume_frame`` is the largest multiple of
    ``checkpoint_interval`` at or below the session's current frame (0 when
    checkpointing is off: the classic replay-from-video-start behaviour),
    and ``recomputed_frames`` is the work between the checkpoint and the
    crash point that a retry must redo.  Both are pure functions of the
    session's frame index, so the scalar and batch engines — which agree on
    every frame index — salvage identically.
    """
    frame = int(session.frame_index)
    if checkpoint_interval is not None and checkpoint_interval > 0:
        resume_frame = frame - frame % checkpoint_interval
    else:
        resume_frame = 0
    return {
        "controller": session.controller,
        "resume_frame": resume_frame,
        "recomputed_frames": frame - resume_frame,
    }


def _bin_counts(space: StateSpace) -> tuple[int, int, int, int]:
    return (
        space.num_fps_bins,
        space.num_psnr_bins,
        space.num_bitrate_bins,
        space.num_power_bins,
    )


def copy_controller_state(controller: Any, source: Any) -> None:
    """Replace what ``controller``'s agents learned with copies of ``source``'s.

    Each agent of ``source`` replaces the Q-table, transition counts and
    action counts of the same-named agent of ``controller``; nothing is
    merged and nothing is serialised.  Raises :class:`LearningError`,
    before copying anything, when either side learns nothing or ``source``
    has an agent ``controller`` lacks, and, at that agent, when a pair
    differs in action values or state-space bin counts (equal bin counts
    give equal dense state indices); agents copied before it stay copied.
    """
    sources, targets = _agents(source), _agents(controller)
    if sources is None or targets is None or not sources.keys() <= targets.keys():
        raise LearningError("the controllers' agents do not correspond")
    for name, agent in sources.items():
        target = targets[name]
        if (
            target.actions.values != agent.actions.values
            or _bin_counts(target.state_space) != _bin_counts(agent.state_space)
        ):
            raise LearningError(f"agent {name!r} does not fit the controller's")
        target.copy_learned_state(agent)


def restore_session_state(controller: Any, salvage: Mapping[str, Any] | None) -> bool:
    """Copy a :func:`snapshot_session` salvage's learned state into
    ``controller``; returns True when every salvaged agent was copied.

    The copy is :func:`copy_controller_state` from the salvaged controller;
    progress (``resume_frame``) is the caller's to apply.  A ``None``
    salvage or a copy that function rejects — e.g. into a retry dispatched
    under a brownout ``degraded_factory`` — returns False, and the migrated
    session learns the rest from scratch, which is always safe and, like
    the agents copied before a mismatch, deterministic on both engines.
    """
    if salvage is None:
        return False
    try:
        copy_controller_state(controller, salvage["controller"])
    except LearningError:
        return False
    return True


def save_snapshot(snapshot: Mapping[str, Any], path: str | Path) -> Path:
    """Write a snapshot dictionary to a JSON file and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read a snapshot dictionary from a JSON file."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
