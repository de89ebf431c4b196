"""Unit tests for repro.platform.dvfs."""

from __future__ import annotations

import pytest

from repro.errors import DvfsError
from repro.platform.dvfs import DEFAULT_AVAILABLE_FREQUENCIES_GHZ, DvfsDriver, DvfsPolicy
from repro.platform.topology import CpuTopology


@pytest.fixture
def driver() -> DvfsDriver:
    return DvfsDriver()


AVAILABLE = "/sys/devices/system/cpu/cpu{}/cpufreq/scaling_available_frequencies"


class TestDvfsDriver:
    def test_available_frequencies_sorted(self, driver):
        freqs = driver.available_frequencies_ghz
        assert list(freqs) == sorted(freqs)
        assert freqs[-1] == pytest.approx(3.2)
        assert driver.min_frequency_ghz == pytest.approx(1.2)

    def test_unknown_core_rejected(self, driver):
        for core in (16, 99, -1):
            with pytest.raises(DvfsError):
                driver.sysfs_read(AVAILABLE.format(core))

    def test_custom_topology_core_count(self):
        driver = DvfsDriver(topology=CpuTopology(sockets=1, cores_per_socket=4))
        assert driver.sysfs_read(AVAILABLE.format(3))
        with pytest.raises(DvfsError):
            driver.sysfs_read(AVAILABLE.format(4))

    def test_out_of_range_available_frequency_rejected(self):
        with pytest.raises(DvfsError):
            DvfsDriver(available_frequencies_ghz=(0.8, 1.6))

    def test_empty_frequency_list_rejected(self):
        with pytest.raises(DvfsError):
            DvfsDriver(available_frequencies_ghz=())


class TestSysfsFacade:
    def test_read_available_frequencies(self, driver):
        value = driver.sysfs_read(AVAILABLE.format(0))
        assert value.split() == [
            str(int(f * 1e6)) for f in DEFAULT_AVAILABLE_FREQUENCIES_GHZ
        ]

    def test_malformed_paths_rejected(self, driver):
        with pytest.raises(DvfsError):
            driver.sysfs_read("/sys/devices/system/cpu/cpufreq/scaling_available_frequencies")
        with pytest.raises(DvfsError):
            driver.sysfs_read(AVAILABLE.format("X"))

    def test_unknown_attribute_rejected(self, driver):
        for attribute in ("energy_bias", "scaling_cur_freq"):
            with pytest.raises(DvfsError):
                driver.sysfs_read(f"/sys/devices/system/cpu/cpu0/cpufreq/{attribute}")


class TestDvfsPolicy:
    def test_policy_values(self):
        assert DvfsPolicy.PER_CORE.value == "per-core"
        assert DvfsPolicy.CHIP_WIDE.value == "chip-wide"
