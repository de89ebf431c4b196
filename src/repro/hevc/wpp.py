"""Wavefront Parallel Processing (WPP) speedup model.

HEVC's WPP tool lets one thread process each CTU row, with a two-CTU lag
between consecutive rows.  The achievable speedup is therefore bounded by the
number of CTU rows and by the wavefront ramp-up/ramp-down, which is why the
paper observes thread-count saturation at ~12 threads for 1080p and ~5
threads for 832x480 (Sec. V-A, Fig. 2).

The model uses the classic critical-path approximation: with ``R`` CTU rows of
``W`` CTUs each and ``n`` worker threads, the per-frame processing time in CTU
units is approximately::

    T(n) = (R / n) * W + 2 * (min(n, R) - 1)

(the first term is the work per thread, the second the wavefront lag), giving
``speedup(n) = (R * W) / T(n)``.  A small per-thread synchronisation overhead
is added on top.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.constants import CTU_SIZE
from repro.errors import EncodingError

__all__ = ["WppModelParameters", "WppModel"]


@dataclasses.dataclass(frozen=True)
class WppModelParameters:
    """Calibration constants of the WPP speedup model.

    Attributes
    ----------
    ctu_size:
        Coding Tree Unit size in pixels (64 for HEVC main profile).
    sync_overhead_per_thread:
        Relative time overhead added per extra thread (thread wake-up,
        entropy-state propagation, cache contention).
    """

    ctu_size: int = CTU_SIZE
    sync_overhead_per_thread: float = 0.005


class WppModel:
    """Parallel speedup of WPP encoding as a function of thread count."""

    def __init__(self, params: WppModelParameters | None = None) -> None:
        self.params = params if params is not None else WppModelParameters()

    def ctu_rows(self, height: int) -> int:
        """Number of CTU rows for a frame of the given height."""
        if height <= 0:
            raise EncodingError(f"height must be positive, got {height}")
        return math.ceil(height / self.params.ctu_size)

    def ctu_cols(self, width: int) -> int:
        """Number of CTU columns for a frame of the given width."""
        if width <= 0:
            raise EncodingError(f"width must be positive, got {width}")
        return math.ceil(width / self.params.ctu_size)

    def speedup(self, threads: int, width: int, height: int, wpp: bool = True) -> float:
        """Parallel speedup obtained with ``threads`` WPP threads.

        Returns 1.0 when WPP is disabled or a single thread is used.  The
        result is monotonically non-decreasing in ``threads`` up to the CTU
        row count, then flat (minus the per-thread overhead).
        """
        if threads < 1:
            raise EncodingError(f"threads must be >= 1, got {threads}")
        if not wpp or threads == 1:
            return 1.0

        rows = self.ctu_rows(height)
        cols = self.ctu_cols(width)
        usable = min(threads, rows)

        serial_units = rows * cols
        # Work per thread (rows are interleaved across threads, so the
        # per-thread share is fractional) plus the wavefront ramp lag.
        parallel_units = (rows / usable) * cols + 2 * (usable - 1)
        raw_speedup = serial_units / parallel_units

        overhead = 1.0 + self.params.sync_overhead_per_thread * (threads - 1)
        return float(max(1.0, raw_speedup / overhead))

    def efficiency(self, threads: int, width: int, height: int, wpp: bool = True) -> float:
        """Fraction of the allocated threads that does useful work on average.

        This feeds the power model: threads idling on the wavefront ramp do
        not consume full dynamic power.
        """
        return self.speedup(threads, width, height, wpp) / threads

    # -- batch entry points -----------------------------------------------------

    def speedup_batch(
        self,
        threads: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
        wpp: np.ndarray | bool = True,
    ) -> np.ndarray:
        """Vectorized :meth:`speedup` over parallel arrays.

        Elementwise bitwise-identical to the scalar method (the formula is
        pure IEEE arithmetic, applied in the same order).
        """
        threads = np.asarray(threads, dtype=np.int64)
        width = np.asarray(width)
        height = np.asarray(height)
        if threads.size and threads.min() < 1:
            raise EncodingError("threads values must be >= 1")
        if np.any(width <= 0) or np.any(height <= 0):
            raise EncodingError("width and height values must be positive")

        ctu = self.params.ctu_size
        rows = np.ceil(height / ctu)
        cols = np.ceil(width / ctu)
        usable = np.minimum(threads, rows)

        serial_units = rows * cols
        parallel_units = (rows / usable) * cols + 2 * (usable - 1)
        raw_speedup = serial_units / parallel_units

        overhead = 1.0 + self.params.sync_overhead_per_thread * (threads - 1)
        result = np.maximum(1.0, raw_speedup / overhead)
        return np.where(np.logical_and(wpp, threads > 1), result, 1.0)

    def saturation_threads(
        self, width: int, height: int, gain_threshold: float = 0.03
    ) -> int:
        """Smallest thread count beyond which the marginal gain is negligible.

        The marginal gain is the relative speedup increase from adding one
        more thread; saturation is declared when it drops below
        ``gain_threshold``.  For 1920x1080 this lands near the paper's 12
        threads, and for 832x480 near 5 threads.
        """
        previous = self.speedup(1, width, height)
        for n in range(2, self.ctu_rows(height) + 1):
            current = self.speedup(n, width, height)
            if (current - previous) / previous < gain_threshold:
                return n - 1
            previous = current
        return self.ctu_rows(height)
