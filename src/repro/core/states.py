"""State space: discretisation of the observations (paper Sec. III-C).

The continuous observations are binned into a finite state space:

* PSNR: ``<=30, <=35, <=40, <=45, <=50, >50`` dB;
* power: below / at-or-above the server power cap;
* bitrate: ``<3``, ``3..6``, ``>6`` Mb/s (typical 3G bandwidth bands);
* FPS: ``<24, <26, <28, <30, >=30`` with a 24-FPS target.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator

import numpy as np

from repro.constants import (
    BITRATE_STATE_BOUNDS_MBPS,
    DEFAULT_POWER_CAP_W,
    TARGET_FPS,
)
from repro.core.observation import Observation
from repro.errors import ConfigurationError

__all__ = ["SystemState", "StateSpace"]


@dataclasses.dataclass(frozen=True, order=True)
class SystemState:
    """A discretised environment state.

    Each field is a bin index; the meaning of each index is defined by the
    :class:`StateSpace` that produced the state.
    """

    fps_bin: int
    psnr_bin: int
    bitrate_bin: int
    power_bin: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The state as a plain tuple (useful as a dictionary key)."""
        return (self.fps_bin, self.psnr_bin, self.bitrate_bin, self.power_bin)


class StateSpace:
    """Maps raw :class:`~repro.core.observation.Observation` to discrete states.

    Parameters
    ----------
    fps_target:
        Real-time throughput target; FPS bins are anchored on it.
    fps_margins:
        Upper edges of the FPS bins *above* the target.  The defaults
        reproduce the paper's ``<24, <26, <28, <30, >=30`` split.
    psnr_edges:
        Upper edges of the PSNR bins; one extra bin covers values above the
        last edge.
    bitrate_edges_mbps:
        Upper edges of the bitrate bins (paper: 3 and 6 Mb/s).
    power_cap_w:
        Server power cap; the power state is binary (below / at-or-above).

    Spaces that bin every observation alike have equal :attr:`key`; the
    batch engine discretises their lanes together.
    """

    def __init__(
        self,
        fps_target: float = TARGET_FPS,
        fps_margins: tuple[float, ...] = (2.0, 4.0, 6.0),
        psnr_edges: tuple[float, ...] = (30.0, 35.0, 40.0, 45.0, 50.0),
        bitrate_edges_mbps: tuple[float, ...] = BITRATE_STATE_BOUNDS_MBPS,
        power_cap_w: float = DEFAULT_POWER_CAP_W,
    ) -> None:
        if fps_target <= 0:
            raise ConfigurationError(f"fps_target must be positive, got {fps_target}")
        if power_cap_w <= 0:
            raise ConfigurationError(f"power_cap_w must be positive, got {power_cap_w}")
        if list(fps_margins) != sorted(fps_margins) or any(m <= 0 for m in fps_margins):
            raise ConfigurationError("fps_margins must be positive and ascending")
        if list(psnr_edges) != sorted(psnr_edges):
            raise ConfigurationError("psnr_edges must be ascending")
        if list(bitrate_edges_mbps) != sorted(bitrate_edges_mbps):
            raise ConfigurationError("bitrate_edges_mbps must be ascending")

        self.fps_target = float(fps_target)
        self.fps_edges = tuple(fps_target + m for m in fps_margins)
        self.psnr_edges = tuple(float(e) for e in psnr_edges)
        self.bitrate_edges_mbps = tuple(float(e) for e in bitrate_edges_mbps)
        self.power_cap_w = float(power_cap_w)
        self.key = (
            self.fps_target,
            self.fps_edges,
            self.psnr_edges,
            self.bitrate_edges_mbps,
            self.power_cap_w,
        )
        self._fps_edge_array = np.array(self.fps_edges)
        self._psnr_edge_array = np.array(self.psnr_edges)
        self._bitrate_edge_array = np.array(self.bitrate_edges_mbps)

    # -- bin counts -------------------------------------------------------------

    @property
    def num_fps_bins(self) -> int:
        """Below-target bin + one bin per margin + at/above the last margin."""
        return len(self.fps_edges) + 2

    @property
    def num_psnr_bins(self) -> int:
        """One bin per edge plus the above-last-edge bin."""
        return len(self.psnr_edges) + 1

    @property
    def num_bitrate_bins(self) -> int:
        """One bin per edge plus the above-last-edge bin."""
        return len(self.bitrate_edges_mbps) + 1

    @property
    def num_power_bins(self) -> int:
        """Below-cap and at-or-above-cap."""
        return 2

    @property
    def size(self) -> int:
        """Total number of distinct states."""
        return (
            self.num_fps_bins
            * self.num_psnr_bins
            * self.num_bitrate_bins
            * self.num_power_bins
        )

    # -- discretisation ------------------------------------------------------------

    def fps_bin(self, fps: float) -> int:
        """Bin index of an FPS value (0 = below target)."""
        if fps < self.fps_target:
            return 0
        for i, edge in enumerate(self.fps_edges):
            if fps < edge:
                return i + 1
        return len(self.fps_edges) + 1

    def psnr_bin(self, psnr_db: float) -> int:
        """Bin index of a PSNR value (0 = lowest band)."""
        for i, edge in enumerate(self.psnr_edges):
            if psnr_db <= edge:
                return i
        return len(self.psnr_edges)

    def bitrate_bin(self, bitrate_mbps: float) -> int:
        """Bin index of a bitrate value (0 = lowest band)."""
        for i, edge in enumerate(self.bitrate_edges_mbps):
            if bitrate_mbps <= edge:
                return i
        return len(self.bitrate_edges_mbps)

    def power_bin(self, power_w: float) -> int:
        """0 when the power is below the cap, 1 otherwise."""
        return 0 if power_w < self.power_cap_w else 1

    def discretize(self, observation: Observation) -> SystemState:
        """Map an observation to its discrete state."""
        return SystemState(
            fps_bin=self.fps_bin(observation.fps),
            psnr_bin=self.psnr_bin(observation.psnr_db),
            bitrate_bin=self.bitrate_bin(observation.bitrate_mbps),
            power_bin=self.power_bin(observation.power_w),
        )

    # -- dense integer encoding ------------------------------------------------------

    def state_index(self, state: SystemState) -> int:
        """Dense index of a state in ``[0, size)`` (mixed-radix encoding).

        The encoding orders states exactly like :meth:`states` iterates them
        (fps-major, power-minor), so ``state_index`` and :meth:`index_to_state`
        are inverses.  It is the learning core's state representation: Q-table
        rows, transition counts and visit counters are keyed by it.
        """
        if (
            not 0 <= state.fps_bin < self.num_fps_bins
            or not 0 <= state.psnr_bin < self.num_psnr_bins
            or not 0 <= state.bitrate_bin < self.num_bitrate_bins
            or not 0 <= state.power_bin < self.num_power_bins
        ):
            raise ConfigurationError(
                f"state {state!r} has bins outside this space's ranges"
            )
        return (
            (state.fps_bin * self.num_psnr_bins + state.psnr_bin)
            * self.num_bitrate_bins
            + state.bitrate_bin
        ) * self.num_power_bins + state.power_bin

    def index_to_state(self, index: int) -> SystemState:
        """Inverse of :meth:`state_index`."""
        if not 0 <= index < self.size:
            raise ConfigurationError(
                f"state index {index} out of range [0, {self.size})"
            )
        index, power_bin = divmod(index, self.num_power_bins)
        index, bitrate_bin = divmod(index, self.num_bitrate_bins)
        fps_bin, psnr_bin = divmod(index, self.num_psnr_bins)
        return SystemState(fps_bin, psnr_bin, bitrate_bin, power_bin)

    def state_index_batch(self, bins: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state_index` over an ``(n, 4)`` bin array.

        ``bins`` is the output of :meth:`discretize_batch` (columns: fps,
        psnr, bitrate, power); returns the ``(n,)`` dense index array.
        """
        bins = np.asarray(bins, dtype=np.int64)
        return (
            (bins[..., 0] * self.num_psnr_bins + bins[..., 1])
            * self.num_bitrate_bins
            + bins[..., 2]
        ) * self.num_power_bins + bins[..., 3]

    def discretize_batch(
        self,
        fps: np.ndarray,
        psnr_db: np.ndarray,
        bitrate_mbps: np.ndarray,
        power_w: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`discretize` over parallel observation arrays.

        Returns an ``(n, 4)`` int array whose columns are the ``fps``,
        ``psnr``, ``bitrate`` and ``power`` bin indices;
        ``SystemState(*row)`` reconstructs the discrete state of row ``i``.
        Used by fleet-level tooling that bins thousands of observations per
        step (the per-agent Q lookups stay per-session).
        """
        fps = np.asarray(fps)
        fps_bins = np.where(
            fps < self.fps_target,
            0,
            1 + np.searchsorted(self._fps_edge_array, fps, side="right"),
        )
        psnr_bins = np.searchsorted(self._psnr_edge_array, psnr_db, side="left")
        bitrate_bins = np.searchsorted(
            self._bitrate_edge_array, bitrate_mbps, side="left"
        )
        power_bins = (np.asarray(power_w) >= self.power_cap_w).astype(np.int64)
        return np.stack(
            [
                np.asarray(fps_bins, dtype=np.int64),
                psnr_bins.astype(np.int64),
                bitrate_bins.astype(np.int64),
                power_bins,
            ],
            axis=-1,
        )

    # -- enumeration ------------------------------------------------------------

    def states(self) -> Iterator[SystemState]:
        """Iterate over every state in the space (useful for tests/analysis)."""
        for fps_bin, psnr_bin, bitrate_bin, power_bin in itertools.product(
            range(self.num_fps_bins),
            range(self.num_psnr_bins),
            range(self.num_bitrate_bins),
            range(self.num_power_bins),
        ):
            yield SystemState(fps_bin, psnr_bin, bitrate_bin, power_bin)
