"""Step profiler: per-phase wall-time accounting for the stepping engines.

The batch engine's speedup over the scalar loop comes from four distinct
phases (gather decisions, fused model eval, MAMUT fleet activation, scatter
records); the scalar engine has its own three (decide, allocate, execute).
The profiler wraps each phase in a context manager and accumulates wall
time, so ``bench_step_throughput.py`` and the cluster CLI can *attribute*
throughput instead of only measuring it end to end.

Wall-clock timing is inherently nondeterministic, which is fine: the
profiler only ever observes time, never feeds it back into the simulation,
so enabling it cannot perturb a seeded run.  When disabled, the shared
:data:`NULL_PROFILER` hands out a single reusable no-op context manager —
one dict-free method call and ``with`` enter/exit per phase, cheap enough
to leave the hooks in the hot loops unconditionally (bounded by a guard in
``bench_step_throughput.py``).
"""

from __future__ import annotations

import time

from repro.numeric import ordered_sum

__all__ = ["StepProfiler", "PhaseStats", "NULL_PROFILER"]


class PhaseStats:
    """Accumulated wall-time for one named phase."""

    __slots__ = ("name", "total_s", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_s = 0.0
        self.calls = 0

    def to_dict(self) -> dict:
        return {"name": self.name, "total_s": self.total_s, "calls": self.calls}


class _PhaseTimer:
    """Context manager charging elapsed wall time to one phase."""

    __slots__ = ("_stats", "_start")

    def __init__(self, stats: PhaseStats) -> None:
        self._stats = stats
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stats.total_s += time.perf_counter() - self._start
        self._stats.calls += 1


class StepProfiler:
    """Accumulates per-phase wall-time and a step count.

    Usage::

        with profiler.phase("evaluate"):
            ...fused model eval...
        profiler.count_step()

    Phases nest freely (a cluster-level phase may contain engine-level
    ones); each charges only its own wall-clock span.
    """

    enabled = True

    def __init__(self) -> None:
        self._phases: dict[str, PhaseStats] = {}
        self.steps = 0
        self._started = time.perf_counter()

    def phase(self, name: str) -> _PhaseTimer:
        stats = self._phases.get(name)
        if stats is None:
            stats = PhaseStats(name)
            self._phases[name] = stats
        return _PhaseTimer(stats)

    def count_step(self, steps: int = 1) -> None:
        self.steps += steps

    @property
    def phases(self) -> list[PhaseStats]:
        """Phase stats in first-seen order."""
        return list(self._phases.values())

    def report(self) -> dict:
        """Summary dict: per-phase totals plus derived steps/sec.

        ``steps_per_s`` is computed against the summed phase time (the
        instrumented portion of the run), so it reflects engine throughput
        rather than whole-process wall time.
        """
        phase_rows = [stats.to_dict() for stats in self._phases.values()]
        instrumented_s = ordered_sum(row["total_s"] for row in phase_rows)
        for row in phase_rows:
            row["share"] = (
                row["total_s"] / instrumented_s if instrumented_s > 0 else 0.0
            )
        return {
            "steps": self.steps,
            "instrumented_s": instrumented_s,
            "steps_per_s": (
                self.steps / instrumented_s if instrumented_s > 0 else 0.0
            ),
            "phases": phase_rows,
        }


class _NullTimer:
    """Single shared no-op context manager for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_TIMER = _NullTimer()


class _NullProfiler:
    """Disabled profiler: ``phase()`` returns a shared no-op timer."""

    enabled = False
    steps = 0

    def phase(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def count_step(self, steps: int = 1) -> None:
        pass

    @property
    def phases(self) -> list:
        return []

    def report(self) -> dict:
        return {"steps": 0, "instrumented_s": 0.0, "steps_per_s": 0.0, "phases": []}


NULL_PROFILER = _NullProfiler()
