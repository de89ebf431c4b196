"""The platform's frequency points, behind a sysfs-like facade.

On the real platform, changing a core's frequency is a write to a sysfs file
(``/sys/devices/system/cpu/cpu<N>/cpufreq/scaling_setspeed``).  The
simulated server does not actuate frequencies: the frequencies sessions run
at travel in each step's allocation.  A :class:`DvfsDriver` holds only the
supported frequency points, validated at construction.  A
:class:`~repro.platform.server.MulticoreServer` reads the lowest one, at
which idle cores are parked, and a read-only fake sysfs tree reports them
per core.
"""

from __future__ import annotations

import enum
from typing import Iterable

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
    """The supported frequency points of a platform's cores.

    Parameters
    ----------
    topology:
        CPU topology; the sysfs facade answers for its physical cores.
    available_frequencies_ghz:
        The discrete frequency points supported by the driver.
    """

    def __init__(
        self,
        topology: CpuTopology | None = None,
        available_frequencies_ghz: Iterable[float] = DEFAULT_AVAILABLE_FREQUENCIES_GHZ,
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

    @property
    def available_frequencies_ghz(self) -> tuple[float, ...]:
        """Supported frequency points, ascending."""
        return self._available

    @property
    def min_frequency_ghz(self) -> float:
        """Lowest supported frequency."""
        return self._available[0]

    # -- sysfs-style facade --------------------------------------------------------

    def sysfs_read(self, path: str) -> str:
        """Read a cpufreq attribute through a sysfs-like path.

        Supported path::

            /sys/devices/system/cpu/cpu<N>/cpufreq/scaling_available_frequencies

        Frequencies are reported in kHz, as on Linux.  ``<N>`` must be one
        of the topology's physical cores.
        """
        core_id, attribute = self._parse_sysfs_path(path)
        if core_id not in self.topology.core_ids():
            raise DvfsError(
                f"core {core_id} does not exist "
                f"(valid: 0..{self.topology.physical_cores - 1})"
            )
        if attribute == "scaling_available_frequencies":
            return " ".join(str(int(f * 1e6)) for f in self._available)
        raise DvfsError(f"unsupported cpufreq attribute {attribute!r}")

    # -- internals ---------------------------------------------------------------

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
