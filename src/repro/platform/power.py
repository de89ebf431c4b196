"""Voltage/frequency table and package power model.

Package power is modelled as::

    P = P_base
        + Σ_busy-cores  [ leak·V_rel + dyn·smt_factor·V_rel²·f_rel·activity ]
        + Σ_idle-cores  [ leak·V_rel + idle_fraction·dyn·V_rel²·f_rel ]

where ``V_rel`` and ``f_rel`` are voltage and frequency relative to the
maximum operating point.  Leakage scales with voltage, dynamic power with
``V²·f`` and the busy fraction of the core, and a core running two SMT
siblings draws ``smt_activity_bonus`` extra dynamic power.  Idle cores burn
power at whatever voltage the DVFS policy leaves them at — this is what makes
a chip-wide maximum-frequency policy (the heuristic baseline) more expensive
than per-core DVFS with parked idle cores (MAMUT), as observed in the paper's
Table II.

Default constants are calibrated so that one 1080p ultrafast encode at
3.2 GHz spans roughly 50-85 W across 1-10 threads (Fig. 2) and the Scenario II
mixes land in the 85-135 W range (Table II).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import PlatformError

__all__ = ["VoltageTable", "PowerModelParameters", "PowerModel"]


class VoltageTable:
    """Piecewise-linear voltage/frequency operating points.

    Parameters
    ----------
    points:
        Mapping of frequency (GHz) to supply voltage (V).  Queries between
        points are linearly interpolated; queries outside the covered range
        are clamped to the nearest endpoint.
    """

    _DEFAULT_POINTS: tuple[tuple[float, float], ...] = (
        (1.2, 0.80),
        (1.4, 0.83),
        (1.6, 0.85),
        (1.9, 0.90),
        (2.3, 0.97),
        (2.6, 1.04),
        (2.9, 1.13),
        (3.2, 1.22),
    )

    def __init__(self, points: dict[float, float] | None = None) -> None:
        raw = (
            sorted(points.items())
            if points is not None
            else list(self._DEFAULT_POINTS)
        )
        if len(raw) < 2:
            raise PlatformError("a voltage table needs at least two points")
        freqs = [f for f, _ in raw]
        volts = [v for _, v in raw]
        if any(f <= 0 for f in freqs) or any(v <= 0 for v in volts):
            raise PlatformError("frequencies and voltages must be positive")
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise PlatformError("voltage must be strictly increasing with frequency")
        self._freqs = freqs
        self._volts = volts
        self._freq_array = np.array(freqs)
        self._volt_array = np.array(volts)

    @property
    def max_frequency_ghz(self) -> float:
        """Highest frequency covered by the table."""
        return self._freqs[-1]

    @property
    def max_voltage(self) -> float:
        """Voltage at the highest operating point."""
        return self._volts[-1]

    def voltage(self, frequency_ghz: float) -> float:
        """Supply voltage (V) required for ``frequency_ghz``."""
        if frequency_ghz <= 0:
            raise PlatformError(f"frequency must be positive, got {frequency_ghz}")
        freqs, volts = self._freqs, self._volts
        if frequency_ghz <= freqs[0]:
            return volts[0]
        if frequency_ghz >= freqs[-1]:
            return volts[-1]
        for (f0, v0), (f1, v1) in zip(zip(freqs, volts), zip(freqs[1:], volts[1:])):
            if f0 <= frequency_ghz <= f1:
                t = (frequency_ghz - f0) / (f1 - f0)
                return v0 + t * (v1 - v0)
        raise PlatformError("unreachable")  # pragma: no cover

    def relative_voltage(self, frequency_ghz: float) -> float:
        """Voltage relative to the maximum operating point (≤ 1)."""
        return self.voltage(frequency_ghz) / self.max_voltage

    def relative_dynamic(self, frequency_ghz: float) -> float:
        """Dynamic-power scale ``(V/Vmax)² · (f/fmax)`` for a frequency."""
        # The square is an explicit multiply (not ``** 2``) so the scalar and
        # vectorized paths round identically on every platform.
        v_rel = self.relative_voltage(frequency_ghz)
        return v_rel * v_rel * frequency_ghz / self.max_frequency_ghz

    # -- batch entry points -----------------------------------------------------

    def voltage_batch(self, frequency_ghz: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`voltage` over an array of frequencies.

        Elementwise bitwise-identical to the scalar method: the same pair of
        operating points is selected and the same interpolation expression is
        applied in the same order.
        """
        f = np.asarray(frequency_ghz, dtype=float)
        if np.any(f <= 0):
            raise PlatformError("frequencies must be positive")
        freqs, volts = self._freq_array, self._volt_array
        idx = np.clip(np.searchsorted(freqs, f, side="left"), 1, len(freqs) - 1)
        f0, f1 = freqs[idx - 1], freqs[idx]
        v0, v1 = volts[idx - 1], volts[idx]
        t = (f - f0) / (f1 - f0)
        v = v0 + t * (v1 - v0)
        v = np.where(f <= freqs[0], volts[0], v)
        return np.where(f >= freqs[-1], volts[-1], v)

    def relative_voltage_batch(self, frequency_ghz: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`relative_voltage`."""
        return self.voltage_batch(frequency_ghz) / self.max_voltage

    def relative_dynamic_batch(self, frequency_ghz: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`relative_dynamic`."""
        v_rel = self.relative_voltage_batch(frequency_ghz)
        return v_rel * v_rel * np.asarray(frequency_ghz) / self.max_frequency_ghz


@dataclasses.dataclass(frozen=True)
class PowerModelParameters:
    """Calibration constants of the package power model.

    Attributes
    ----------
    base_power_w:
        Package power with all cores idle at minimum voltage (uncore, DRAM
        interface, fans' share measured at the node).
    core_dynamic_w:
        Dynamic power of one fully busy core at maximum frequency/voltage.
    core_leakage_w:
        Leakage power of one powered core at maximum voltage.
    smt_activity_bonus:
        Extra relative dynamic power when a core runs two busy SMT siblings.
    idle_activity_fraction:
        Fraction of ``core_dynamic_w`` an idle (but not power-gated) core
        still burns at its current operating point.
    """

    base_power_w: float = 33.0
    core_dynamic_w: float = 4.0
    core_leakage_w: float = 1.5
    smt_activity_bonus: float = 0.25
    idle_activity_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.base_power_w < 0 or self.core_dynamic_w <= 0 or self.core_leakage_w < 0:
            raise PlatformError("power parameters must be non-negative (dynamic > 0)")
        if not 0 <= self.smt_activity_bonus <= 1:
            raise PlatformError("smt_activity_bonus must be in [0, 1]")
        if not 0 <= self.idle_activity_fraction <= 1:
            raise PlatformError("idle_activity_fraction must be in [0, 1]")


class PowerModel:
    """Computes package power from per-core operating points and activity."""

    def __init__(
        self,
        params: PowerModelParameters | None = None,
        voltage_table: VoltageTable | None = None,
    ) -> None:
        self.params = params if params is not None else PowerModelParameters()
        self.voltage_table = voltage_table if voltage_table is not None else VoltageTable()

    def busy_core_power(
        self,
        frequency_ghz: float,
        activity: float,
        smt_threads: int = 1,
    ) -> float:
        """Power of one core actively encoding.

        Parameters
        ----------
        frequency_ghz:
            The core's operating frequency.
        activity:
            Busy fraction of the core in ``[0, 1]`` (WPP threads idle on the
            wavefront ramp reduce this).
        smt_threads:
            Number of busy SMT siblings on the core (1 or 2).
        """
        if not 0.0 <= activity <= 1.0:
            raise PlatformError(f"activity must be in [0, 1], got {activity}")
        if smt_threads < 1:
            raise PlatformError(f"smt_threads must be >= 1, got {smt_threads}")
        p = self.params
        v_rel = self.voltage_table.relative_voltage(frequency_ghz)
        dyn_rel = self.voltage_table.relative_dynamic(frequency_ghz)
        smt_factor = 1.0 + p.smt_activity_bonus * (min(smt_threads, 2) - 1)
        leakage = p.core_leakage_w * v_rel
        dynamic = p.core_dynamic_w * smt_factor * dyn_rel * activity
        return leakage + dynamic

    def idle_core_power(self, frequency_ghz: float) -> float:
        """Power of a core that is powered but has no work assigned."""
        p = self.params
        v_rel = self.voltage_table.relative_voltage(frequency_ghz)
        dyn_rel = self.voltage_table.relative_dynamic(frequency_ghz)
        return p.core_leakage_w * v_rel + p.idle_activity_fraction * p.core_dynamic_w * dyn_rel

    # -- batch entry points -----------------------------------------------------

    def busy_core_power_batch(
        self,
        frequency_ghz: np.ndarray,
        activity: np.ndarray,
        smt_threads: np.ndarray | int = 1,
    ) -> np.ndarray:
        """Vectorized :meth:`busy_core_power` over parallel arrays.

        Elementwise bitwise-identical to the scalar method.
        """
        activity = np.asarray(activity)
        smt_threads = np.asarray(smt_threads, dtype=np.int64)
        if activity.size and (activity.min() < 0.0 or activity.max() > 1.0):
            raise PlatformError("activity values must be in [0, 1]")
        if smt_threads.size and smt_threads.min() < 1:
            raise PlatformError("smt_threads values must be >= 1")
        p = self.params
        v_rel = self.voltage_table.relative_voltage_batch(frequency_ghz)
        dyn_rel = self.voltage_table.relative_dynamic_batch(frequency_ghz)
        smt_factor = 1.0 + p.smt_activity_bonus * (np.minimum(smt_threads, 2) - 1)
        leakage = p.core_leakage_w * v_rel
        dynamic = p.core_dynamic_w * smt_factor * dyn_rel * activity
        return leakage + dynamic

    def package_power(
        self,
        busy_cores: list[tuple[float, float, int]],
        idle_cores: list[float],
    ) -> float:
        """Total package power.

        Parameters
        ----------
        busy_cores:
            One ``(frequency_ghz, activity, smt_threads)`` tuple per busy
            core (fractional cores are supported by passing an entry whose
            activity is already scaled).
        idle_cores:
            One frequency entry per idle core.
        """
        total = self.params.base_power_w
        for frequency_ghz, activity, smt_threads in busy_cores:
            total += self.busy_core_power(frequency_ghz, activity, smt_threads)
        for frequency_ghz in idle_cores:
            total += self.idle_core_power(frequency_ghz)
        return total
