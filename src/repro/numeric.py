"""Float sums that give the same double on every Python version.

Python 3.12 made the builtin ``sum()`` over floats compensated (Neumaier's
algorithm), so one list of floats can add up to a different double on 3.12
than on 3.10 and 3.11.  The engines' bitwise equivalence, the pinned
benchmark digests and the golden literals all rest on plain left-to-right
addition, so every float sum that reaches a frame record, a power sample,
a span, a metric or a summary goes through :func:`ordered_sum`.  Sums of
ints stay ``sum()``: they are exact on every version.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable, start=0):
    """``start + v0 + v1 + ...``, added left to right, with no compensation.

    Equal, bit for bit, to the builtin ``sum()`` of Python 3.10 and 3.11.
    """
    return functools.reduce(operator.add, values, start)
