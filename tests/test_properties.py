"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observation import Observation, ObservationWindow
from repro.core.qtable import QTable
from repro.core.rewards import RewardFunction
from repro.core.states import StateSpace, SystemState
from repro.core.store import AgentPool
from repro.core.transitions import TransitionModel
from repro.errors import LearningError
from repro.hevc.complexity import ComplexityModel
from repro.hevc.params import EncoderConfig
from repro.hevc.rd_model import RateDistortionModel
from repro.hevc.wpp import WppModel
from repro.platform.power import PowerModel, VoltageTable
from repro.platform.topology import CpuTopology
from repro.video.content import FrameContent
from repro.video.sequence import Frame


# -- strategies -----------------------------------------------------------------

qp_values = st.integers(min_value=0, max_value=51)
complexities = st.floats(min_value=0.4, max_value=2.0, allow_nan=False)
motions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
frequencies = st.floats(min_value=1.2, max_value=3.2, allow_nan=False)
observations = st.builds(
    Observation,
    fps=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    psnr_db=st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
    bitrate_mbps=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    power_w=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)


def frame_from(complexity: float, motion: float, scene_change: bool = False) -> Frame:
    return Frame(
        index=0,
        width=1920,
        height=1080,
        content=FrameContent(complexity=complexity, motion=motion, scene_change=scene_change),
    )


# -- RD / complexity models -------------------------------------------------------

@given(qp=st.integers(min_value=0, max_value=50), complexity=complexities, motion=motions)
@settings(max_examples=80)
def test_psnr_monotonically_decreases_with_qp(qp, complexity, motion):
    model = RateDistortionModel()
    frame = frame_from(complexity, motion)
    low = model.psnr_db(frame, EncoderConfig(qp=qp, threads=1))
    high = model.psnr_db(frame, EncoderConfig(qp=qp + 1, threads=1))
    assert high <= low + 1e-9


@given(qp=st.integers(min_value=0, max_value=50), complexity=complexities, motion=motions)
@settings(max_examples=80)
def test_bitrate_monotonically_decreases_with_qp(qp, complexity, motion):
    model = RateDistortionModel()
    frame = frame_from(complexity, motion)
    low = model.frame_bits(frame, EncoderConfig(qp=qp, threads=1))
    high = model.frame_bits(frame, EncoderConfig(qp=qp + 1, threads=1))
    assert high <= low


@given(qp=qp_values, complexity=complexities, motion=motions, scene=st.booleans())
@settings(max_examples=80)
def test_encode_cycles_are_positive_and_finite(qp, complexity, motion, scene):
    model = ComplexityModel()
    cycles = model.encode_cycles(frame_from(complexity, motion, scene), EncoderConfig(qp=qp, threads=1))
    assert cycles > 0
    assert math.isfinite(cycles)


@given(
    threads=st.integers(min_value=1, max_value=32),
    width=st.sampled_from([832, 1280, 1920, 3840]),
    height=st.sampled_from([480, 720, 1080, 2160]),
)
@settings(max_examples=100)
def test_wpp_speedup_bounds(threads, width, height):
    model = WppModel()
    speedup = model.speedup(threads, width, height)
    assert 1.0 <= speedup <= threads + 1e-9
    assert speedup <= model.ctu_rows(height) + 1e-9


# -- platform ---------------------------------------------------------------------

@given(frequency=frequencies)
@settings(max_examples=60)
def test_voltage_and_dynamic_scale_bounded(frequency):
    table = VoltageTable()
    assert 0.0 < table.relative_voltage(frequency) <= 1.0
    assert 0.0 < table.relative_dynamic(frequency) <= 1.0


@given(
    frequency=frequencies,
    activity=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    smt=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=60)
def test_core_power_positive_and_bounded(frequency, activity, smt):
    model = PowerModel()
    power = model.busy_core_power(frequency, activity, smt)
    assert 0.0 < power < 20.0


@given(threads=st.integers(min_value=0, max_value=128))
@settings(max_examples=60)
def test_topology_capacity_and_scale_invariants(threads):
    topology = CpuTopology()
    capacity = topology.effective_capacity(threads)
    assert 0.0 <= capacity <= topology.hardware_threads
    scale = topology.contention_scale(threads)
    assert 0.0 < scale <= 1.0
    if threads <= topology.physical_cores:
        assert scale == 1.0


# -- state space / rewards ----------------------------------------------------------

@given(observation=observations)
@settings(max_examples=100)
def test_discretization_always_lands_in_the_state_space(observation):
    space = StateSpace()
    state = space.discretize(observation)
    assert 0 <= state.fps_bin < space.num_fps_bins
    assert 0 <= state.psnr_bin < space.num_psnr_bins
    assert 0 <= state.bitrate_bin < space.num_bitrate_bins
    assert 0 <= state.power_bin < space.num_power_bins


@given(observation=observations)
@settings(max_examples=100)
def test_reward_terms_are_bounded(observation):
    rewards = RewardFunction()
    breakdown = rewards.breakdown(observation)
    for term in (breakdown.fps, breakdown.psnr, breakdown.bitrate, breakdown.power):
        assert -4.0 <= term <= 1.0
    assert -16.0 <= breakdown.total <= 4.0


@given(st.lists(observations, min_size=1, max_size=20))
@settings(max_examples=60)
def test_average_observation_stays_within_the_component_ranges(batch):
    window = ObservationWindow()
    for o in batch:
        window.add(o.fps, o.psnr_db, o.bitrate_mbps, o.power_w)
    averaged = window.average()
    for attribute in ("fps", "psnr_db", "bitrate_mbps", "power_w"):
        values = [getattr(o, attribute) for o in batch]
        assert min(values) - 1e-9 <= getattr(averaged, attribute) <= max(values) + 1e-9
        # Bitwise the mean summed left to right from 0.0 (not sum(), which
        # compensates on Python 3.12+).
        total = 0.0
        for value in values:
            total += value
        assert getattr(averaged, attribute) == total / len(values)
    window.clear()
    with pytest.raises(LearningError):
        window.average()


# -- tabular learning ------------------------------------------------------------------

@given(
    initial=st.floats(min_value=-10, max_value=10, allow_nan=False),
    target=st.floats(min_value=-10, max_value=10, allow_nan=False),
    alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=100)
def test_q_update_moves_towards_the_target(initial, target, alpha):
    pool = AgentPool((1,), StateSpace().size)
    table = QTable(pool, pool.add_slot())
    state = 0
    table.set(state, 0, initial)
    new_value = table.update_towards(state, 0, target, alpha)
    assert abs(new_value - target) <= abs(initial - target) + 1e-9


@given(
    transitions=st.lists(
        st.integers(min_value=0, max_value=4), min_size=1, max_size=50
    )
)
@settings(max_examples=60)
def test_transition_probabilities_form_a_distribution(transitions):
    space = StateSpace()
    pool = AgentPool((1,), space.size)
    model = TransitionModel(pool, pool.add_slot())
    source = space.state_index(SystemState(0, 0, 0, 0))
    for target_bin in transitions:
        model.record(source, 0, space.state_index(SystemState(target_bin, 0, 0, 0)))
    distribution = model.distribution(source, 0)
    assert sum(distribution.values()) == pytest.approx(1.0)
    assert all(0.0 < p <= 1.0 for p in distribution.values())
