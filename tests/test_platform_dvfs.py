"""Unit tests for repro.platform.dvfs."""

from __future__ import annotations

import pytest

from repro.errors import DvfsError
from repro.platform.dvfs import DEFAULT_AVAILABLE_FREQUENCIES_GHZ, DvfsDriver, DvfsPolicy
from repro.platform.topology import CpuTopology


@pytest.fixture
def driver() -> DvfsDriver:
    return DvfsDriver()


class TestDvfsDriver:
    def test_initial_frequency_is_lowest(self, driver):
        assert driver.get_frequency(0) == pytest.approx(driver.min_frequency_ghz)

    def test_available_frequencies_sorted(self, driver):
        freqs = driver.available_frequencies_ghz
        assert list(freqs) == sorted(freqs)
        assert driver.max_frequency_ghz == pytest.approx(3.2)
        assert driver.min_frequency_ghz == pytest.approx(1.2)

    def test_set_and_get_per_core(self, driver):
        driver.set_frequency(3, 2.9)
        assert driver.get_frequency(3) == pytest.approx(2.9)
        assert driver.get_frequency(4) == pytest.approx(driver.min_frequency_ghz)

    def test_unsupported_frequency_rejected(self, driver):
        with pytest.raises(DvfsError):
            driver.set_frequency(0, 2.0)

    def test_unknown_core_rejected(self, driver):
        with pytest.raises(DvfsError):
            driver.set_frequency(99, 2.3)
        with pytest.raises(DvfsError):
            driver.get_frequency(-1)

    def test_closest_available(self, driver):
        assert driver.closest_available(2.0) == pytest.approx(1.9)
        assert driver.closest_available(3.5) == pytest.approx(3.2)
        with pytest.raises(DvfsError):
            driver.closest_available(0.0)

    def test_custom_topology_core_count(self):
        driver = DvfsDriver(topology=CpuTopology(sockets=1, cores_per_socket=4))
        assert len(driver.frequencies()) == 4

    def test_out_of_range_available_frequency_rejected(self):
        with pytest.raises(DvfsError):
            DvfsDriver(available_frequencies_ghz=(0.8, 1.6))

    def test_empty_frequency_list_rejected(self):
        with pytest.raises(DvfsError):
            DvfsDriver(available_frequencies_ghz=())

    def test_initial_frequency_override(self):
        driver = DvfsDriver(initial_frequency_ghz=3.2)
        assert driver.get_frequency(0) == pytest.approx(3.2)


class TestSysfsFacade:
    def test_read_current_frequency_in_khz(self, driver):
        driver.set_frequency(2, 2.6)
        value = driver.sysfs_read("/sys/devices/system/cpu/cpu2/cpufreq/scaling_cur_freq")
        assert value == str(int(2.6e6))

    def test_read_available_frequencies(self, driver):
        value = driver.sysfs_read(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies"
        )
        assert value.split() == [
            str(int(f * 1e6)) for f in DEFAULT_AVAILABLE_FREQUENCIES_GHZ
        ]

    def test_malformed_paths_rejected(self, driver):
        with pytest.raises(DvfsError):
            driver.sysfs_read("/sys/devices/system/cpu/cpufreq/scaling_cur_freq")
        with pytest.raises(DvfsError):
            driver.sysfs_read("/sys/devices/system/cpu/cpuX/cpufreq/scaling_cur_freq")

    def test_unknown_attribute_rejected(self, driver):
        with pytest.raises(DvfsError):
            driver.sysfs_read("/sys/devices/system/cpu/cpu0/cpufreq/energy_bias")


class TestDvfsPolicy:
    def test_policy_values(self):
        assert DvfsPolicy.PER_CORE.value == "per-core"
        assert DvfsPolicy.CHIP_WIDE.value == "chip-wide"
