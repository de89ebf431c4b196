"""Unit tests for repro.platform.server."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError
from repro.platform.dvfs import DvfsPolicy
from repro.platform.server import MulticoreServer, SessionDemand


def demand(session_id="s0", threads=8, frequency=3.2, activity=0.8) -> SessionDemand:
    return SessionDemand(
        session_id=session_id, threads=threads, frequency_ghz=frequency, activity=activity
    )


class TestSessionDemand:
    def test_validation(self):
        with pytest.raises(AllocationError):
            demand(threads=0)
        with pytest.raises(AllocationError):
            demand(frequency=0.0)
        with pytest.raises(AllocationError):
            demand(activity=1.5)


class TestAllocation:
    def test_no_contention_below_core_count(self, server):
        allocation = server.allocate([demand(threads=10)])
        assert allocation.contention_scale == pytest.approx(1.0)
        assert allocation.total_threads == 10
        assert not allocation.oversubscribed

    def test_contention_appears_with_smt_sharing(self, server):
        allocation = server.allocate([demand("a", 12), demand("b", 12)])
        assert 0.5 < allocation.contention_scale < 1.0
        assert not allocation.oversubscribed

    def test_oversubscription_detected(self, server):
        allocation = server.allocate([demand("a", 20), demand("b", 20)])
        assert allocation.oversubscribed
        assert allocation.contention_scale < 0.8

    def test_duplicate_session_ids_rejected(self, server):
        with pytest.raises(AllocationError):
            server.allocate([demand("a"), demand("a")])

    def test_empty_allocation_is_idle_power(self, server):
        allocation = server.allocate([])
        assert allocation.total_threads == 0
        assert allocation.busy_cores == 0.0
        assert allocation.total_power_w > 0
        assert allocation.total_power_w < 60.0

    def test_power_grows_with_load(self, server):
        idle = server.allocate([]).total_power_w
        light = server.allocate([demand(threads=4)]).total_power_w
        heavy = server.allocate([demand("a", 12), demand("b", 12), demand("c", 12)]).total_power_w
        assert idle < light < heavy

    def test_power_grows_with_frequency(self, server):
        slow = server.allocate([demand(threads=10, frequency=1.6)]).total_power_w
        fast = server.allocate([demand(threads=10, frequency=3.2)]).total_power_w
        assert slow < fast

    def test_chip_wide_policy_burns_more_power_when_cores_idle(self):
        per_core = MulticoreServer(dvfs_policy=DvfsPolicy.PER_CORE)
        chip_wide = MulticoreServer(dvfs_policy=DvfsPolicy.CHIP_WIDE)
        demands = [demand(threads=6, frequency=3.2)]
        assert (
            chip_wide.allocate(demands).total_power_w
            > per_core.allocate(demands).total_power_w
        )

    def test_chip_wide_equals_per_core_when_machine_is_full(self):
        per_core = MulticoreServer(dvfs_policy=DvfsPolicy.PER_CORE)
        chip_wide = MulticoreServer(dvfs_policy=DvfsPolicy.CHIP_WIDE)
        demands = [demand("a", 16, 3.2), demand("b", 16, 3.2)]
        assert chip_wide.allocate(demands).total_power_w == pytest.approx(
            per_core.allocate(demands).total_power_w
        )

    def test_scenario_ii_power_range(self, server):
        """Table II calibration: multi-user mixes land roughly in 80-140 W."""
        light = server.allocate(
            [demand("hr", 10, 2.9, 0.7), demand("lr", 4, 2.9, 0.8)]
        ).total_power_w
        heavy = server.allocate(
            [demand(f"hr{i}", 10, 3.2, 0.9) for i in range(3)]
            + [demand(f"lr{i}", 5, 3.2, 0.9) for i in range(3)]
        ).total_power_w
        assert 75.0 <= light <= 110.0
        assert 105.0 <= heavy <= 145.0

    def test_busy_plus_idle_cores_equals_topology(self, server):
        allocation = server.allocate([demand(threads=5)])
        assert allocation.busy_cores + allocation.idle_cores == pytest.approx(
            server.topology.physical_cores
        )
