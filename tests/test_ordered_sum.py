"""Float sums give the same doubles on every Python version.

Python 3.12 made the builtin ``sum()`` over floats compensated.  Every float
sum that reaches a record, a sample, a span, a metric or a summary goes
through :func:`repro.numeric.ordered_sum`, so the golden literals — made
with Python 3.11's plain left-to-right ``sum()`` — must hold unchanged with
``builtins.sum`` replaced by ``engine_fixtures.compensated_sum``, a copy of
3.12's.  This lets a 3.10 or 3.11 interpreter prove what a 3.12 one would
print.
"""

from __future__ import annotations

import builtins

import numpy as np
import pytest

import test_cluster_golden as cluster_golden
import test_manager_golden as manager_golden
from engine_fixtures import compensated_sum
from repro.numeric import ordered_sum


class TestOrderedSum:
    def test_adds_left_to_right_without_compensation(self):
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert compensated_sum([0.1] * 10) == 1.0

    def test_ints_start_and_empty_input(self):
        assert ordered_sum([1, 2, 3]) == 6
        assert type(ordered_sum([1, 2, 3])) is int
        assert ordered_sum([]) == 0
        assert ordered_sum([0.5, 0.25], 1.0) == 1.75
        assert ordered_sum(x / 10 for x in range(3)) == 0.1 + 0.2

    @pytest.mark.skipif(
        sum([0.1] * 10) == 1.0,
        reason="the builtin sum() is compensated (Python 3.12+, or patched)",
    )
    def test_equals_the_uncompensated_builtin(self):
        rng = np.random.default_rng(311)
        for _ in range(2000):
            size = int(rng.integers(0, 40))
            values = (rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)).tolist()
            assert ordered_sum(values) == sum(values)


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


@pytest.mark.parametrize("engine", ["batch", "scalar"])
@pytest.mark.parametrize("name", sorted(cluster_golden.SCENARIOS))
def test_cluster_golden_literals_hold(name, engine, compensated):
    outputs = cluster_golden.run_scenario(name, engine)
    assert cluster_golden.digests(*outputs) == cluster_golden.GOLDEN[name]


@pytest.mark.parametrize("run", sorted(manager_golden.RUNS))
@pytest.mark.parametrize("fleet", sorted(manager_golden.FLEETS))
def test_manager_golden_literals_hold(fleet, run, compensated):
    runner, argument, pin = manager_golden.RUNS[run]
    outputs = runner(argument, manager_golden.FLEETS[fleet])
    assert manager_golden.digests(*outputs) == manager_golden.GOLDEN[fleet][pin]


def test_idle_golden_literal_holds(compensated):
    assert manager_golden.idle_digest() == manager_golden.GOLDEN_IDLE


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_three_phase_golden_literals_hold(engine, compensated):
    # Pre-trained under the patch too: Algorithm 1 runs in pre-training.
    knowledge = cluster_golden.phase_knowledge.__wrapped__()
    outputs = cluster_golden.run_phases(engine, knowledge)
    assert cluster_golden.phase_digests(*outputs) == cluster_golden.GOLDEN_PHASES
