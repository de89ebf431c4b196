"""Observations: the raw quantities the agents see after each frame.

The environment exposes exactly the four quantities listed in the paper's
Fig. 1 and Sec. III-C: throughput (FPS), video quality (PSNR), output bitrate
and package power.  A controller averages the frames it saw since it last
acted.  Its :class:`ObservationWindow` is one row of a :class:`WindowTable`,
which holds the running sums of many windows as columns, so each operation
has a scalar form on one window (:meth:`ObservationWindow.add`,
:meth:`~ObservationWindow.average`, :meth:`~ObservationWindow.clear`: the
scalar engine) and a batch form on many rows of one table
(:meth:`WindowTable.add_batch`, :meth:`~WindowTable.average_batch`,
:meth:`~WindowTable.clear_batch`: the batch engine).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import LearningError

__all__ = ["Observation", "ObservationWindow", "WindowTable"]


@dataclasses.dataclass(frozen=True)
class Observation:
    """Raw per-frame measurements observed by every agent.

    Attributes
    ----------
    fps:
        Instantaneous throughput of the session (frames per second).
    psnr_db:
        PSNR of the frame just encoded.
    bitrate_mbps:
        Output bitrate in Mbit/s at the delivery frame rate.
    power_w:
        Package power of the server while the frame was encoded.
    """

    fps: float
    psnr_db: float
    bitrate_mbps: float
    power_w: float

    def __post_init__(self) -> None:
        if self.fps < 0:
            raise LearningError(f"fps must be >= 0, got {self.fps}")
        if self.bitrate_mbps < 0:
            raise LearningError(f"bitrate_mbps must be >= 0, got {self.bitrate_mbps}")
        if self.power_w < 0:
            raise LearningError(f"power_w must be >= 0, got {self.power_w}")


class WindowTable:
    """Observation windows as rows: running sums and frame counts.

    The paper averages the frames in which no agent acts ("NULL" slots of
    Fig. 3) into the state presented to the next learning update, so that
    agents learn about each other's behaviour rather than about
    frame-to-frame content noise.  Each row is one controller's window:
    ``sums[row]`` holds its fps, PSNR, bitrate and power sums, in
    :class:`Observation` field order, and ``counts[row]`` the frames in
    them.  :meth:`window` hands out a row as an :class:`ObservationWindow`.
    A controller factory's :class:`~repro.core.store.LearningStore` holds
    the table of every MAMUT controller it builds; any other controller
    gets a table of its own.

    The sums accumulate left to right from 0.0 in arrival order, one IEEE
    addition per frame in either form, so an average is bitwise the mean
    of the frames added since the last clear.  The columns grow by
    reallocation, so nothing outside the table keeps them.  The batch
    forms take distinct rows.
    """

    __slots__ = ("sums", "counts", "size")

    def __init__(self) -> None:
        self.sums = np.zeros((1, 4))
        self.counts = np.zeros(1, dtype=np.int64)
        #: Rows handed out so far.
        self.size = 0

    def window(self) -> ObservationWindow:
        """A new, empty window: the next row of the table."""
        row = self.size
        if row == len(self.counts):
            sums = np.zeros((2 * row, 4))
            counts = np.zeros(2 * row, dtype=np.int64)
            sums[:row] = self.sums
            counts[:row] = self.counts
            self.sums, self.counts = sums, counts
        self.size = row + 1
        return ObservationWindow(self, row)

    def add_batch(
        self,
        rows: np.ndarray,
        fps: np.ndarray,
        psnr_db: np.ndarray,
        bitrate_mbps: np.ndarray,
        power_w: np.ndarray,
    ) -> None:
        """:meth:`ObservationWindow.add` of one frame to each of ``rows``."""
        self.sums[rows] += np.stack((fps, psnr_db, bitrate_mbps, power_w), axis=1)
        self.counts[rows] += 1

    def average_batch(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`ObservationWindow.average` of each of ``rows``, as a
        ``(4, len(rows))`` array of fps, PSNR, bitrate and power.

        The same division of each running sum by the count, so bitwise equal.
        """
        counts = self.counts[rows]
        if not counts.all():
            raise LearningError("cannot average an empty observation window")
        return (self.sums[rows] / counts[:, None]).T

    def clear_batch(self, rows: np.ndarray) -> None:
        """:meth:`ObservationWindow.clear` of each of ``rows``."""
        self.sums[rows] = 0.0
        self.counts[rows] = 0


class ObservationWindow:
    """One controller's window: a view of one row of a :class:`WindowTable`.

    Every controller owns one, and
    :meth:`~repro.manager.session.TranscodingSession.commit` (or its batch
    form) adds each committed frame to it once, whichever engine stepped
    the frame.  Built without a table, it takes a table of its own.
    """

    __slots__ = ("table", "row")

    def __init__(self, table: WindowTable | None = None, row: int | None = None) -> None:
        if table is None:
            table, row = WindowTable(), 0
            table.size = 1
        self.table = table
        self.row = row

    @property
    def fps(self) -> float:
        """Sum of the fps of the frames in the window."""
        return float(self.table.sums[self.row, 0])

    @property
    def psnr_db(self) -> float:
        """Sum of their PSNR."""
        return float(self.table.sums[self.row, 1])

    @property
    def bitrate_mbps(self) -> float:
        """Sum of their bitrates."""
        return float(self.table.sums[self.row, 2])

    @property
    def power_w(self) -> float:
        """Sum of their server powers."""
        return float(self.table.sums[self.row, 3])

    @property
    def count(self) -> int:
        """Frames in the window."""
        return int(self.table.counts[self.row])

    def add(self, fps: float, psnr_db: float, bitrate_mbps: float, power_w: float) -> None:
        """Fold one frame's measurements into the window."""
        table, row = self.table, self.row
        table.sums[row] += (fps, psnr_db, bitrate_mbps, power_w)
        table.counts[row] += 1

    def average(self) -> Observation:
        """The component-wise mean of the window (raises when it is empty)."""
        n = self.count
        if n == 0:
            raise LearningError("cannot average an empty observation window")
        fps, psnr_db, bitrate_mbps, power_w = self.table.sums[self.row].tolist()
        return Observation(
            fps=fps / n,
            psnr_db=psnr_db / n,
            bitrate_mbps=bitrate_mbps / n,
            power_w=power_w / n,
        )

    def clear(self) -> None:
        """Empty the window."""
        table, row = self.table, self.row
        table.sums[row] = 0.0
        table.counts[row] = 0
