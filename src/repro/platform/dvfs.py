"""Per-core DVFS driver.

On the real platform, changing a core's frequency is a write to a sysfs file
(``/sys/devices/system/cpu/cpu<N>/cpufreq/scaling_setspeed``).  This module
reproduces that interface as an in-memory driver: frequencies are validated
against the supported set, can be set per core, and can be read back,
including through a read-only fake sysfs tree for tests and examples.

The simulated server does not actuate the driver.  A
:class:`~repro.platform.server.MulticoreServer` reads only the driver's
lowest frequency, at which idle cores are parked; the frequencies sessions
run at travel in each step's allocation instead.  A driver's per-core state
is therefore whatever its owner last set, not the last step's allocation.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from repro.constants import PLATFORM_MAX_FREQ_GHZ, PLATFORM_MIN_FREQ_GHZ
from repro.errors import DvfsError
from repro.platform.topology import CpuTopology

__all__ = ["DvfsPolicy", "DvfsDriver", "DEFAULT_AVAILABLE_FREQUENCIES_GHZ"]

#: Frequencies (GHz) exposed by the cpufreq driver of the modelled platform.
#: Includes the 1.2-1.6 GHz points that MAMUT's DVFS agent discards.
DEFAULT_AVAILABLE_FREQUENCIES_GHZ: tuple[float, ...] = (
    1.2,
    1.4,
    1.6,
    1.9,
    2.3,
    2.6,
    2.9,
    3.2,
)


class DvfsPolicy(enum.Enum):
    """How frequency decisions are applied to the package.

    ``PER_CORE`` is what MAMUT and the mono-agent controller use: only the
    cores assigned to a video run at the requested frequency, while unused
    cores are parked at the minimum frequency.  ``CHIP_WIDE`` models a
    conventional governor where one frequency is applied to every core of the
    package (idle cores included), which is how the heuristic baseline's
    DVFS-for-power-capping behaves in practice.
    """

    PER_CORE = "per-core"
    CHIP_WIDE = "chip-wide"


class DvfsDriver:
    """In-memory per-core frequency driver.

    Parameters
    ----------
    topology:
        CPU topology; one frequency entry is kept per physical core.
    available_frequencies_ghz:
        The discrete frequency points supported by the driver.
    initial_frequency_ghz:
        Frequency applied to every core at construction time (defaults to the
        lowest available frequency, mimicking the powersave governor).
    """

    def __init__(
        self,
        topology: CpuTopology | None = None,
        available_frequencies_ghz: Iterable[float] = DEFAULT_AVAILABLE_FREQUENCIES_GHZ,
        initial_frequency_ghz: float | None = None,
    ) -> None:
        self.topology = topology if topology is not None else CpuTopology()
        freqs = tuple(sorted(float(f) for f in available_frequencies_ghz))
        if not freqs:
            raise DvfsError("available_frequencies_ghz must not be empty")
        for freq in freqs:
            if not PLATFORM_MIN_FREQ_GHZ <= freq <= PLATFORM_MAX_FREQ_GHZ:
                raise DvfsError(
                    f"frequency {freq} GHz outside supported range "
                    f"[{PLATFORM_MIN_FREQ_GHZ}, {PLATFORM_MAX_FREQ_GHZ}]"
                )
        self._available = freqs
        initial = float(initial_frequency_ghz) if initial_frequency_ghz else freqs[0]
        self._validate(initial)
        self._frequencies: dict[int, float] = {
            core: initial for core in self.topology.core_ids()
        }

    # -- queries ---------------------------------------------------------------

    @property
    def available_frequencies_ghz(self) -> tuple[float, ...]:
        """Supported frequency points, ascending."""
        return self._available

    @property
    def min_frequency_ghz(self) -> float:
        """Lowest supported frequency."""
        return self._available[0]

    @property
    def max_frequency_ghz(self) -> float:
        """Highest supported frequency."""
        return self._available[-1]

    def get_frequency(self, core_id: int) -> float:
        """Current frequency of a physical core."""
        self._validate_core(core_id)
        return self._frequencies[core_id]

    def frequencies(self) -> Mapping[int, float]:
        """Snapshot of every core's current frequency."""
        return dict(self._frequencies)

    # -- actuation ---------------------------------------------------------------

    def set_frequency(self, core_id: int, frequency_ghz: float) -> None:
        """Set one core's frequency (per-core DVFS)."""
        self._validate_core(core_id)
        self._validate(frequency_ghz)
        self._frequencies[core_id] = float(frequency_ghz)

    def closest_available(self, frequency_ghz: float) -> float:
        """Supported frequency closest to an arbitrary request."""
        if frequency_ghz <= 0:
            raise DvfsError(f"frequency must be positive, got {frequency_ghz}")
        return min(self._available, key=lambda f: abs(f - frequency_ghz))

    # -- sysfs-style facade --------------------------------------------------------

    def sysfs_read(self, path: str) -> str:
        """Read a cpufreq attribute through a sysfs-like path.

        Supported paths::

            /sys/devices/system/cpu/cpu<N>/cpufreq/scaling_cur_freq
            /sys/devices/system/cpu/cpu<N>/cpufreq/scaling_available_frequencies

        Frequencies are reported in kHz, as on Linux.
        """
        core_id, attribute = self._parse_sysfs_path(path)
        if attribute == "scaling_cur_freq":
            return str(int(self.get_frequency(core_id) * 1e6))
        if attribute == "scaling_available_frequencies":
            return " ".join(str(int(f * 1e6)) for f in self._available)
        raise DvfsError(f"unsupported cpufreq attribute {attribute!r}")

    # -- internals ---------------------------------------------------------------

    def _validate(self, frequency_ghz: float) -> None:
        if not any(abs(frequency_ghz - f) < 1e-9 for f in self._available):
            raise DvfsError(
                f"frequency {frequency_ghz} GHz is not one of the supported points "
                f"{self._available}"
            )

    def _validate_core(self, core_id: int) -> None:
        if core_id not in self._frequencies:
            raise DvfsError(
                f"core {core_id} does not exist "
                f"(valid: 0..{self.topology.physical_cores - 1})"
            )

    @staticmethod
    def _parse_sysfs_path(path: str) -> tuple[int, str]:
        parts = [p for p in path.split("/") if p]
        # Expected: sys devices system cpu cpu<N> cpufreq <attribute>
        if (
            len(parts) != 7
            or parts[:4] != ["sys", "devices", "system", "cpu"]
            or not parts[4].startswith("cpu")
            or parts[5] != "cpufreq"
        ):
            raise DvfsError(f"unrecognised cpufreq path {path!r}")
        try:
            core_id = int(parts[4][len("cpu"):])
        except ValueError as exc:
            raise DvfsError(f"unrecognised cpufreq path {path!r}") from exc
        return core_id, parts[6]
