"""Unit tests for repro.core.schedule (paper Sec. III-B-d, Fig. 3)."""

from __future__ import annotations

import pytest

from repro.core.schedule import AgentSchedule, AgentSlot
from repro.errors import SchedulingError


@pytest.fixture
def schedule() -> AgentSchedule:
    return AgentSchedule.mamut_default()


class TestAgentSlot:
    def test_acts_at(self):
        slot = AgentSlot("dvfs", period=6, offset=2)
        assert slot.acts_at(2)
        assert slot.acts_at(8)
        assert not slot.acts_at(0)
        assert not slot.acts_at(3)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            AgentSlot("a", period=0)
        with pytest.raises(SchedulingError):
            AgentSlot("a", period=6, offset=6)
        with pytest.raises(SchedulingError):
            AgentSlot("a", period=6, offset=2).acts_at(-1)


class TestMamutDefault:
    def test_paper_periods_and_offsets(self, schedule):
        """AGqp every 24 frames, AGthread every 12 (offset 1), AGdvfs every 6 (offset 2)."""
        by_name = {slot.name: slot for slot in schedule.slots}
        assert (by_name["qp"].period, by_name["qp"].offset) == (24, 0)
        assert (by_name["threads"].period, by_name["threads"].offset) == (12, 1)
        assert (by_name["dvfs"].period, by_name["dvfs"].offset) == (6, 2)

    def test_agent_at_over_one_hyper_period(self, schedule):
        activations = {
            frame: schedule.agent_at(frame)
            for frame in range(schedule.hyper_period)
            if schedule.agent_at(frame) is not None
        }
        assert activations == {
            0: "qp",
            1: "threads",
            2: "dvfs",
            8: "dvfs",
            13: "threads",
            14: "dvfs",
            20: "dvfs",
        }

    def test_null_frames_exist(self, schedule):
        assert schedule.agent_at(3) is None
        assert schedule.agent_at(10) is None

    def test_dvfs_acts_most_frequently(self, schedule):
        counts = {"qp": 0, "threads": 0, "dvfs": 0}
        for frame in range(240):
            agent = schedule.agent_at(frame)
            if agent:
                counts[agent] += 1
        assert counts["dvfs"] > counts["threads"] > counts["qp"]
        assert counts == {"qp": 10, "threads": 20, "dvfs": 40}


class TestChains:
    def test_chain_after_qp_is_threads_then_dvfs(self, schedule):
        assert schedule.chain_after(0) == ["threads", "dvfs"]

    def test_chain_after_threads_is_dvfs(self, schedule):
        assert schedule.chain_after(1) == ["dvfs"]
        assert schedule.chain_after(13) == ["dvfs"]

    def test_chain_after_dvfs_depends_on_its_position(self, schedule):
        # Right after frames 2 and 14 the next actor is AGdvfs itself (NULL
        # chain); after frame 8 the next distinct actor is AGthread.
        assert schedule.chain_after(2) == []
        assert schedule.chain_after(14) == []
        assert schedule.chain_after(8) == ["threads"]

    def test_chain_at_null_frame_raises(self, schedule):
        with pytest.raises(SchedulingError):
            schedule.chain_after(3)

    def test_next_activation(self, schedule):
        assert schedule.next_activation(0) == ("threads", 1)
        assert schedule.next_activation(2) == ("dvfs", 8)
        assert schedule.next_activation(20) == ("qp", 24)


class TestValidation:
    def test_overlapping_slots_rejected(self):
        with pytest.raises(SchedulingError):
            AgentSchedule([AgentSlot("a", 6, 0), AgentSlot("b", 12, 0)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchedulingError):
            AgentSchedule([AgentSlot("a", 6, 0), AgentSlot("a", 12, 1)])

    def test_empty_schedule_rejected(self):
        with pytest.raises(SchedulingError):
            AgentSchedule([])

    def test_custom_non_overlapping_schedule(self):
        schedule = AgentSchedule([AgentSlot("x", 4, 0), AgentSlot("y", 4, 2)])
        assert schedule.hyper_period == 4
        assert schedule.agent_at(0) == "x"
        assert schedule.agent_at(2) == "y"
        assert schedule.chain_after(0) == ["y"]


class TestBatchLookup:
    @pytest.mark.parametrize(
        "slots",
        [
            None,
            # Slot order unlike the default's, NULL slots at 4 and 5.
            [AgentSlot("threads", 3, 0), AgentSlot("dvfs", 6, 1), AgentSlot("qp", 6, 2)],
        ],
        ids=["paper", "custom"],
    )
    def test_equals_agent_at(self, slots):
        schedule = AgentSchedule.mamut_default() if slots is None else AgentSchedule(slots)
        frames = list(range(3 * schedule.hyper_period)) + [10**9 + 7, 0]
        positions = schedule.agent_at_batch(frames).tolist()
        names = [schedule.agent_at(frame) for frame in frames]
        assert [
            None if position == -1 else schedule.agent_names[position]
            for position in positions
        ] == names
        assert None in names

    def test_negative_frames_rejected(self, schedule):
        with pytest.raises(SchedulingError):
            schedule.agent_at(-1)
        with pytest.raises(SchedulingError):
            schedule.agent_at_batch([3, -1])
        assert schedule.agent_at_batch([]).tolist() == []

    def test_equal_slots_give_equal_keys(self, schedule):
        assert AgentSchedule.mamut_default().key == schedule.key
        assert AgentSchedule.mamut_default(qp_name="q").key != schedule.key
