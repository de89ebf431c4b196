"""QoS accounting: frames processed below the real-time target."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.metrics.records import FrameRecord
from repro.numeric import ordered_sum

__all__ = ["violations", "qos_violation_pct"]


def violations(records: Iterable[FrameRecord]) -> int:
    """Number of frames processed below their session's FPS target."""
    return ordered_sum(1 for record in records if record.is_violation)


def qos_violation_pct(records: Sequence[FrameRecord]) -> float:
    """Δ: percentage of frames under the QoS threshold (paper Fig. 4 / Table II)."""
    if not records:
        return 0.0
    return 100.0 * violations(records) / len(records)
