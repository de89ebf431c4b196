"""Online SLO engine: declarative objectives evaluated as the run evolves.

An :class:`SloObjective` states a promise about the cluster's behaviour —
"p95 queue wait stays at or under 4 steps", "we shed at most 2% of
arrivals", "at most 1% of frames violate QoS" — and the :class:`SloEngine`
checks every promise once per cluster step through the same observe-only
hook path the metrics registry uses.  Each objective is judged over a
**rolling window** of recent steps (transient spikes within the window
dilute; sustained pressure does not) and carries an **error budget**: the
percentage of run steps it is allowed to spend in breach before the run as
a whole counts as out of SLO.

Per objective and step the engine publishes four gauges —
``repro_slo_value``, ``repro_slo_breached``, ``repro_slo_burn_rate`` and
``repro_slo_budget_consumed_pct``, all labelled ``{slo="<name>"}`` — where
*burn rate* is the classic ratio of observed breach fraction in the window
to the allowed fraction (1.0 = spending the budget exactly as fast as it
accrues; 10 = ten times too fast).  On breach *entry* (healthy → breached,
not every breached step) it emits one ``slo_breach`` trace span keyed
``slo-<name>``, so a trace shows when each objective tipped over without
drowning in repeats.

The engine is strictly observe-only: it draws no randomness, mutates no
simulation state, and consumes only values the orchestrator already
computed — an SLO-instrumented run is bitwise identical to a bare one,
which ``tests/test_telemetry_slo.py`` pins for both stepping engines.
Queue-wait quantiles come from a fixed-bucket
:class:`~repro.telemetry.metrics.Histogram` via its ``quantile`` method,
trading a little resolution for O(buckets) evaluation at any fleet size.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Sequence

from repro.errors import ConfigurationError
from repro.numeric import ordered_sum
from repro.telemetry.metrics import NULL_REGISTRY, QUEUE_WAIT_EDGES, Histogram
from repro.telemetry.trace import NULL_TRACER

__all__ = [
    "SloObjective",
    "QueueWaitObjective",
    "ShedRateObjective",
    "ViolationRateObjective",
    "StepDeltas",
    "SloEngine",
]


@dataclasses.dataclass(frozen=True)
class StepDeltas:
    """What one cluster step contributed, as the SLO engine sees it."""

    new_waits: tuple  #: queue waits of requests dispatched this step
    arrivals: int  #: requests that arrived this step
    shed: int  #: requests lost this step (rejected + dropped + failed)
    frames: int  #: frames transcoded this step
    violations: int  #: QoS-violating frames this step


@dataclasses.dataclass(frozen=True)
class SloObjective:
    """Base declarative objective: a name, a window and an error budget.

    ``window_steps`` is how much recent history each evaluation sees;
    ``error_budget_pct`` is the share of run steps the objective may spend
    in breach before :meth:`SloEngine.report` marks it unhealthy.
    Subclasses define what is measured and the threshold it must stay at
    or under.
    """

    name: str
    window_steps: int = 32
    error_budget_pct: float = 5.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO objective needs a non-empty name")
        if self.window_steps < 1:
            raise ConfigurationError(
                f"SLO {self.name!r}: window_steps must be >= 1, got {self.window_steps}"
            )
        if not 0.0 < self.error_budget_pct <= 100.0:
            raise ConfigurationError(
                f"SLO {self.name!r}: error_budget_pct must be in (0, 100], "
                f"got {self.error_budget_pct}"
            )

    @property
    def threshold(self) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def sample(self, deltas: StepDeltas):
        """The window entry this step contributes."""
        raise NotImplementedError

    def value(self, window: Sequence) -> float:
        """The objective's current value over the windowed samples."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class QueueWaitObjective(SloObjective):
    """``quantile`` of queue waits in the window stays <= ``max_steps``.

    Waits are bucketed into a fixed-edge histogram each evaluation and the
    quantile linearly interpolated (``Histogram.quantile``), so the value
    is a deterministic estimate independent of how many requests the
    window holds.  A window with no dispatches reads 0 — no waits is not
    a breach.
    """

    max_steps: float = 8.0
    quantile: float = 0.95
    edges: tuple = QUEUE_WAIT_EDGES

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.quantile <= 1.0:
            raise ConfigurationError(
                f"SLO {self.name!r}: quantile must be in (0, 1], got {self.quantile}"
            )

    @property
    def threshold(self) -> float:
        return float(self.max_steps)

    def describe(self) -> str:
        return f"p{self.quantile * 100:g} queue wait <= {self.max_steps:g} steps"

    def sample(self, deltas: StepDeltas):
        return deltas.new_waits

    def value(self, window: Sequence) -> float:
        histogram = Histogram("slo_queue_wait", self.edges)
        for waits in window:
            for wait in waits:
                histogram.observe(wait)
        if histogram.count == 0:
            return 0.0
        return histogram.quantile(self.quantile)


@dataclasses.dataclass(frozen=True)
class ShedRateObjective(SloObjective):
    """Shed arrivals (rejected + dropped + failed) stay <= ``max_pct``.

    Rate of shed requests over arrivals within the window; a window with
    no arrivals reads 0 — an idle cluster sheds nothing.
    """

    max_pct: float = 5.0

    @property
    def threshold(self) -> float:
        return float(self.max_pct)

    def describe(self) -> str:
        return f"shed rate <= {self.max_pct:g}% of arrivals"

    def sample(self, deltas: StepDeltas):
        return (deltas.shed, deltas.arrivals)

    def value(self, window: Sequence) -> float:
        shed = ordered_sum(entry[0] for entry in window)
        arrivals = ordered_sum(entry[1] for entry in window)
        if arrivals == 0:
            return 0.0
        return 100.0 * shed / arrivals


@dataclasses.dataclass(frozen=True)
class ViolationRateObjective(SloObjective):
    """QoS-violating frames stay <= ``max_pct`` of frames in the window."""

    max_pct: float = 1.0

    @property
    def threshold(self) -> float:
        return float(self.max_pct)

    def describe(self) -> str:
        return f"QoS violation rate <= {self.max_pct:g}% of frames"

    def sample(self, deltas: StepDeltas):
        return (deltas.violations, deltas.frames)

    def value(self, window: Sequence) -> float:
        violations = ordered_sum(entry[0] for entry in window)
        frames = ordered_sum(entry[1] for entry in window)
        if frames == 0:
            return 0.0
        return 100.0 * violations / frames


class _ObjectiveState:
    """Mutable per-objective tracking inside the engine."""

    __slots__ = (
        "objective",
        "window",
        "breach_window",
        "steps",
        "breach_steps",
        "in_breach",
        "last_value",
        "worst_value",
        "max_burn_rate",
        "g_value",
        "g_breached",
        "g_burn",
        "g_budget",
    )

    def __init__(self, objective: SloObjective, metrics) -> None:
        self.objective = objective
        self.window = deque(maxlen=objective.window_steps)
        self.breach_window = deque(maxlen=objective.window_steps)
        self.steps = 0
        self.breach_steps = 0
        self.in_breach = False
        self.last_value = 0.0
        self.worst_value = 0.0
        self.max_burn_rate = 0.0
        labels = {"slo": objective.name}
        self.g_value = metrics.gauge(
            "repro_slo_value", "Current SLO objective value", labels
        )
        self.g_breached = metrics.gauge(
            "repro_slo_breached", "1 while the objective is in breach", labels
        )
        self.g_burn = metrics.gauge(
            "repro_slo_burn_rate",
            "Windowed breach fraction over the allowed fraction",
            labels,
        )
        self.g_budget = metrics.gauge(
            "repro_slo_budget_consumed_pct",
            "Share of the run-long error budget already spent",
            labels,
        )

    @property
    def budget_consumed_pct(self) -> float:
        if self.steps == 0:
            return 0.0
        allowed = self.objective.error_budget_pct / 100.0 * self.steps
        return 100.0 * self.breach_steps / allowed

    @property
    def burn_rate(self) -> float:
        if not self.breach_window:
            return 0.0
        breached_fraction = ordered_sum(self.breach_window) / len(self.breach_window)
        return breached_fraction / (self.objective.error_budget_pct / 100.0)


class SloEngine:
    """Evaluates a set of objectives once per step; observe-only.

    Feed it the orchestrator's running totals via :meth:`observe_step`
    (the engine differences them itself, so call sites pass what they
    already have) and read the verdicts back as ``repro_slo_*`` gauges,
    breach-entry trace spans, and the end-of-run :meth:`report`.
    """

    def __init__(
        self,
        objectives: Sequence[SloObjective],
        metrics=NULL_REGISTRY,
        tracer=NULL_TRACER,
    ) -> None:
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO objective names: {names}")
        self.tracer = tracer
        self._states = [_ObjectiveState(obj, metrics) for obj in objectives]
        self._seen_waits = 0
        self._last_rejected = 0
        self._last_failed = 0

    @property
    def objectives(self) -> list[SloObjective]:
        return [state.objective for state in self._states]

    def observe_step(
        self,
        step: int,
        *,
        queue_waits: Sequence[int],
        arrivals: int,
        rejected_total: int,
        dropped: int,
        failed_total: int,
        frames: int,
        violations: int,
    ) -> None:
        """Judge every objective against this step's observations.

        ``queue_waits`` is the run's growing wait list and ``rejected_total``
        / ``failed_total`` are running totals (the engine differences them);
        ``arrivals``, ``dropped``, ``frames`` and ``violations`` are this
        step's increments, matching what the fleet sample already carries.
        """
        new_waits = tuple(queue_waits[self._seen_waits:])
        self._seen_waits = len(queue_waits)
        shed = (
            (rejected_total - self._last_rejected)
            + dropped
            + (failed_total - self._last_failed)
        )
        self._last_rejected = rejected_total
        self._last_failed = failed_total
        deltas = StepDeltas(
            new_waits=new_waits,
            arrivals=arrivals,
            shed=shed,
            frames=frames,
            violations=violations,
        )
        for state in self._states:
            objective = state.objective
            state.window.append(objective.sample(deltas))
            value = objective.value(state.window)
            breached = value > objective.threshold
            state.steps += 1
            state.breach_window.append(1 if breached else 0)
            state.last_value = value
            state.worst_value = max(state.worst_value, value)
            if breached:
                state.breach_steps += 1
            burn = state.burn_rate
            state.max_burn_rate = max(state.max_burn_rate, burn)
            state.g_value.set(value)
            state.g_breached.set(1.0 if breached else 0.0)
            state.g_burn.set(burn)
            state.g_budget.set(state.budget_consumed_pct)
            if breached and not state.in_breach:
                self.tracer.emit(
                    "slo_breach",
                    step,
                    f"slo-{objective.name}",
                    slo=objective.name,
                    value=value,
                    threshold=objective.threshold,
                    burn_rate=burn,
                )
            state.in_breach = breached

    def report(self) -> list[dict]:
        """Per-objective verdicts for the end-of-run summary.

        ``healthy`` means the objective stayed within its error budget
        over the whole run — individual breached steps are the budget
        working as intended, not a failure by themselves.
        """
        out = []
        for state in self._states:
            objective = state.objective
            breach_pct = (
                100.0 * state.breach_steps / state.steps if state.steps else 0.0
            )
            out.append(
                {
                    "name": objective.name,
                    "objective": objective.describe(),
                    "threshold": objective.threshold,
                    "window_steps": objective.window_steps,
                    "error_budget_pct": objective.error_budget_pct,
                    "steps": state.steps,
                    "breach_steps": state.breach_steps,
                    "breach_pct": breach_pct,
                    "budget_consumed_pct": state.budget_consumed_pct,
                    "max_burn_rate": state.max_burn_rate,
                    "last_value": state.last_value,
                    "worst_value": state.worst_value,
                    "healthy": state.budget_consumed_pct <= 100.0,
                }
            )
        return out
