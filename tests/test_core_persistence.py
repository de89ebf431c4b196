"""Unit tests for repro.core.persistence."""

from __future__ import annotations

import copy

import pytest

from engine_fixtures import decide_after
from repro.core.actions import ActionSet
from repro.core.agent import QLearningAgent
from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.core.observation import Observation
from repro.core.persistence import (
    copy_controller_state,
    load_snapshot,
    restore_agent,
    restore_agents,
    restore_session_state,
    save_snapshot,
    snapshot_agent,
    snapshot_agents,
    snapshot_controller,
    snapshot_session,
)
from repro.core.states import StateSpace, SystemState
from repro.errors import LearningError


SPACE = StateSpace()
S0 = SPACE.state_index(SystemState(0, 1, 0, 0))
S1 = SPACE.state_index(SystemState(2, 1, 0, 0))

# snapshot_agent output of an agent trained with updates
# (s0, 1) -> s1, (s0, 1) -> s0, (s0, 1) -> s1, (s1, 2) -> s1, (s0, 0) -> s0
# where s0 = (0, 1, 0, 0) and s1 = (2, 1, 0, 0).  A literal, so the
# on-disk format cannot drift with snapshot and restore changing together.
GOLDEN_SNAPSHOT = {
    "name": "demo",
    "num_actions": 3,
    "action_values": [10, 20, 30],
    "q_values": {
        "0,1,0,0|1": 0.23046296296296293,
        "2,1,0,0|2": 0.175,
        "0,1,0,0|0": -0.3016027777777778,
    },
    "state_action_counts": {"0,1,0,0|0": 1, "0,1,0,0|1": 3, "2,1,0,0|2": 1},
    "action_counts": {"0": 1, "1": 3, "2": 1},
    "transitions": {
        "0,1,0,0|1": {"2,1,0,0": 2, "0,1,0,0": 1},
        "2,1,0,0|2": {"2,1,0,0": 1},
        "0,1,0,0|0": {"0,1,0,0": 1},
    },
}


def trained_agent(seed: int = 0) -> QLearningAgent:
    agent = QLearningAgent("demo", ActionSet("demo", (10, 20, 30)), seed=seed)
    agent.update(S0, 0, reward=-1.0, next_state=S0, peer_min_counts=[2])
    agent.update(S0, 1, reward=1.0, next_state=S1, peer_min_counts=[2])
    agent.update(S1, 2, reward=0.5, next_state=S1, peer_min_counts=[3])
    return agent


class TestAgentSnapshot:
    def test_roundtrip_preserves_q_values_and_counts(self):
        source = trained_agent()
        snapshot = snapshot_agent(source)
        target = QLearningAgent("demo", ActionSet("demo", (10, 20, 30)))
        restore_agent(target, snapshot)

        for state in (S0, S1):
            assert target.pool.q_values(target.slot, state) == pytest.approx(
                source.pool.q_values(source.slot, state)
            )
        assert target.state_action_count(S0, 1) == source.state_action_count(S0, 1)
        assert target.action_count(1) == source.action_count(1)
        assert target.min_action_count() == source.min_action_count()

    def test_roundtrip_preserves_transition_probabilities(self):
        source = trained_agent()
        snapshot = snapshot_agent(source)
        target = QLearningAgent("demo", ActionSet("demo", (10, 20, 30)))
        restore_agent(target, snapshot)
        assert target.pool.distribution(target.slot, S0, 1) == pytest.approx(
            source.pool.distribution(source.slot, S0, 1)
        )

    def test_restoring_into_mismatched_action_set_fails(self):
        snapshot = snapshot_agent(trained_agent())
        wrong_size = QLearningAgent("demo", ActionSet("demo", (10, 20)))
        with pytest.raises(LearningError):
            restore_agent(wrong_size, snapshot)
        wrong_values = QLearningAgent("demo", ActionSet("demo", (1, 2, 3)))
        with pytest.raises(LearningError):
            restore_agent(wrong_values, snapshot)

    def test_golden_snapshot_round_trips_unchanged(self):
        target = QLearningAgent("demo", ActionSet("demo", (10, 20, 30)), seed=5)
        restore_agent(target, GOLDEN_SNAPSHOT)
        snapshot = snapshot_agent(target)
        assert snapshot == GOLDEN_SNAPSHOT
        # Next states keep their first-seen order (Algorithm 1 sums in it).
        assert list(snapshot["transitions"]["0,1,0,0|1"]) == ["2,1,0,0", "0,1,0,0"]

    def test_restore_replaces_what_the_agent_learned(self):
        # A trained agent's own Q-values, transitions and action counts are
        # dropped, not merged with the snapshot's.
        target = trained_agent(seed=3)
        restore_agent(target, GOLDEN_SNAPSHOT)
        assert snapshot_agent(target) == GOLDEN_SNAPSHOT

    def test_snapshot_is_json_serialisable(self, tmp_path):
        snapshot = snapshot_agents({"demo": trained_agent()})
        path = save_snapshot(snapshot, tmp_path / "knowledge.json")
        loaded = load_snapshot(path)
        assert loaded["version"] == snapshot["version"]
        assert set(loaded["agents"]) == {"demo"}


class TestControllerSnapshot:
    def _train(self, controller: MamutController, frames: int = 240) -> None:
        controller.decide(0)
        for frame in range(1, frames):
            decide_after(
                controller,
                frame,
                Observation(fps=25.0, psnr_db=36.0, bitrate_mbps=4.0, power_w=80.0),
            )

    def test_controller_knowledge_roundtrip(self, hr_request):
        source = MamutController(MamutConfig.for_request(hr_request, seed=0))
        self._train(source)
        snapshot = snapshot_agents(source.agents)

        target = MamutController(MamutConfig.for_request(hr_request, seed=99))
        restore_agents(target.agents, snapshot)
        for name, agent in source.agents.items():
            restored = target.agents[name]
            assert restored.pool.stored_q(restored.slot) == agent.pool.stored_q(agent.slot)
            assert target.agents[name].min_action_count() == agent.min_action_count()

    def test_unknown_agent_names_rejected(self, hr_request):
        source = MamutController(MamutConfig.for_request(hr_request))
        self._train(source, frames=60)
        snapshot = snapshot_agents(source.agents)
        snapshot["agents"]["mystery"] = snapshot["agents"]["qp"]
        target = MamutController(MamutConfig.for_request(hr_request))
        with pytest.raises(LearningError):
            restore_agents(target.agents, snapshot)

    def test_version_check(self, hr_request):
        source = MamutController(MamutConfig.for_request(hr_request))
        self._train(source, frames=60)
        snapshot = snapshot_agents(source.agents)
        snapshot["version"] = 999
        with pytest.raises(LearningError):
            restore_agents(MamutController(MamutConfig.for_request(hr_request)).agents, snapshot)


def _set(section, key, value):
    def mutate(snapshot):
        snapshot[section][key] = value

    return mutate


class TestBadSnapshots:
    """A snapshot that does not fit is rejected before anything is written."""

    @pytest.mark.parametrize(
        "mutate",
        [
            _set("q_values", "x,1,0,0|0", 1.0),
            _set("q_values", "0,1,0|0", 1.0),
            _set("q_values", "9,1,0,0|0", 1.0),
            _set("q_values", "0,-1,0,0|0", 1.0),
            _set("q_values", "0,1,0,0|3", 1.0),
            _set("q_values", "0,1,0,0|x", 1.0),
            _set("q_values", "0,1,0,0|2", "high"),
            _set("transitions", "0,1,0,0|2", {"0,6,0,0": 1}),
            _set("transitions", "0,1,0,0|0", {"0,1,0,0": 1.0}),
            _set("state_action_counts", "0,1,0,0|0", 1.0),
            _set("state_action_counts", "0,1,0,0|1", 2),
            _set("state_action_counts", "2,1,0,0|0", 1),
            _set("action_counts", "3", 0),
            _set("action_counts", "0", -1),
        ],
        ids=[
            "non-integer-bin",
            "three-bins",
            "fps-bin-out-of-range",
            "negative-bin",
            "action-out-of-range",
            "non-integer-action",
            "non-numeric-q-value",
            "next-state-out-of-range",
            "float-transition-count",
            "float-pair-count",
            "pair-count-not-the-transition-total",
            "pair-count-without-transitions",
            "action-count-out-of-range",
            "negative-action-count",
        ],
    )
    def test_restore_agent_raises_and_writes_nothing(self, mutate):
        snapshot = copy.deepcopy(GOLDEN_SNAPSHOT)
        mutate(snapshot)
        target = trained_agent()
        before = snapshot_agent(target)
        with pytest.raises(LearningError):
            restore_agent(target, snapshot)
        assert snapshot_agent(target) == before

    def _trained(self, config: MamutConfig, psnr_db: float) -> MamutController:
        controller = MamutController(config)
        controller.decide(0)
        for frame in range(1, 60):
            decide_after(
                controller,
                frame,
                Observation(fps=25.0, psnr_db=psnr_db, bitrate_mbps=4.0, power_w=80.0),
            )
        return controller

    def test_restore_session_state_rejects_a_foreign_state_space(self):
        # Eight PSNR edges give nine PSNR bins; the target space has six.
        wide = StateSpace(psnr_edges=(30.0, 32.0, 34.0, 36.0, 38.0, 40.0, 42.0, 44.0))
        source = self._trained(MamutConfig(state_space=wide, seed=0), psnr_db=50.0)
        target = self._trained(MamutConfig(seed=1), psnr_db=36.0)
        before = snapshot_controller(target)
        salvage = snapshot_session(_SessionStub(source, frame_index=0))
        assert not restore_session_state(target, salvage)
        assert snapshot_controller(target) == before
        with pytest.raises(LearningError):
            copy_controller_state(target, source)
        assert snapshot_controller(target) == before

    def test_copy_controller_state_rejects_other_action_values(self, hr_request, lr_request):
        source = MamutController(MamutConfig.for_request(hr_request, seed=0))
        target = MamutController(MamutConfig.for_request(lr_request, seed=1))
        with pytest.raises(LearningError):
            copy_controller_state(target, source)
        with pytest.raises(LearningError):
            copy_controller_state(target, object())


class TestRestoreRebuildsCaches:
    def test_min_action_count_fresh_after_restore(self):
        source = QLearningAgent("qp", ActionSet("qp", (28, 32, 36)))
        state = SPACE.state_index(SystemState(1, 1, 1, 0))
        other = SPACE.state_index(SystemState(2, 1, 1, 0))
        for action in (0, 0, 1, 2, 0):
            source.update(state, action, 1.0, other, [0, 0])
        snapshot = snapshot_agent(source)

        target = QLearningAgent("qp", ActionSet("qp", (28, 32, 36)))
        # Poison the cache: read it once so it is materialised at 0.
        assert target.min_action_count() == 0
        restore_agent(target, snapshot)
        assert target.min_action_count() == source.min_action_count() == 1
        assert target.max_state_count(state) == source.max_state_count(state)
        assert target.phase(state, [3, 3]) is source.phase(state, [3, 3])


class _SessionStub:
    """The duck type :func:`snapshot_session` reads: progress + controller."""

    def __init__(self, controller, frame_index):
        self.controller = controller
        self.frame_index = frame_index


class TestSessionSnapshot:
    def _trained(self, hr_request, seed=0):
        controller = MamutController(MamutConfig.for_request(hr_request, seed=seed))
        controller.decide(0)
        for frame in range(1, 120):
            decide_after(
                controller,
                frame,
                Observation(fps=25.0, psnr_db=36.0, bitrate_mbps=4.0, power_w=80.0),
            )
        return controller

    @pytest.mark.parametrize(
        "frame,interval,resume",
        [(11, 4, 8), (12, 4, 12), (3, 4, 0), (11, None, 0), (0, 4, 0)],
    )
    def test_resume_frame_floors_to_the_interval(
        self, hr_request, frame, interval, resume
    ):
        session = _SessionStub(self._trained(hr_request), frame_index=frame)
        snapshot = snapshot_session(session, checkpoint_interval=interval)
        assert snapshot["resume_frame"] == resume
        assert snapshot["recomputed_frames"] == frame - resume

    def test_restore_rehydrates_learned_state(self, hr_request):
        source = self._trained(hr_request)
        snapshot = snapshot_session(
            _SessionStub(source, frame_index=9), checkpoint_interval=4
        )
        # The target learned on its own first; the copy replaces that.
        target = self._trained(hr_request, seed=99)
        assert restore_session_state(target, snapshot)
        assert snapshot_controller(target) == snapshot_controller(source)

    def test_restored_state_is_a_copy(self, hr_request):
        source = self._trained(hr_request)
        target = MamutController(MamutConfig.for_request(hr_request, seed=99))
        assert restore_session_state(
            target, snapshot_session(_SessionStub(source, frame_index=0))
        )
        restored = snapshot_controller(target)
        # Learning on after the copy leaves the other side untouched.
        for frame in range(120, 180):
            decide_after(
                source,
                frame,
                Observation(fps=20.0, psnr_db=40.0, bitrate_mbps=8.0, power_w=120.0),
            )
        assert snapshot_controller(source) != restored
        assert snapshot_controller(target) == restored

    def test_restore_of_none_is_a_noop(self, hr_request):
        target = MamutController(MamutConfig.for_request(hr_request, seed=1))
        before = snapshot_controller(target)
        assert not restore_session_state(target, None)
        assert snapshot_controller(target) == before
