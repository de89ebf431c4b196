"""Static controller: a fixed (QP, threads, frequency) configuration.

Not one of the paper's comparison points, but indispensable as a substrate:
the Fig. 2 characterisation sweeps are static configurations, and a fixed
operating point is the natural sanity baseline for the learning controllers.
"""

from __future__ import annotations

from repro.core.controller import Controller, Decision
from repro.platform.dvfs import DvfsPolicy

__all__ = ["StaticController"]


class StaticController(Controller):
    """Always returns the same decision.

    Parameters
    ----------
    qp, threads, frequency_ghz:
        The fixed configuration.
    dvfs_policy:
        Whether the fixed frequency is applied per-core or chip-wide
        (chip-wide by default, matching how a manually configured encoder run
        behaves on a stock governor).
    """

    def __init__(
        self,
        qp: int,
        threads: int,
        frequency_ghz: float,
        dvfs_policy: DvfsPolicy = DvfsPolicy.CHIP_WIDE,
    ) -> None:
        super().__init__()
        self._decision = Decision(qp=qp, threads=threads, frequency_ghz=frequency_ghz)
        self.dvfs_policy = dvfs_policy

    @property
    def name(self) -> str:
        return "Static"

    def decide(self, frame_index: int) -> Decision:
        return self._decision
