"""Live metrics registry: counters, gauges and fixed-bucket histograms.

The cluster stack publishes its observable state here each step — queue
depth, fleet composition, admission verdicts, frames and violations — so a
run can be inspected *while it evolves* instead of only through the post-hoc
:class:`~repro.metrics.cluster.ClusterSummary` aggregation.

Design constraints, both load-bearing:

* **Determinism.**  Instruments never sample, subsample or timestamp with
  wall-clock values: counters and gauges hold exact values, histograms use
  fixed bucket edges chosen at creation.  The same seeded run therefore
  always exports the identical metrics text, which is what the telemetry
  tests pin.
* **Zero overhead when disabled.**  The :data:`NULL_REGISTRY` singleton
  returns shared no-op instruments, so instrumented code can create and
  update metrics unconditionally; with telemetry disabled every update is a
  single no-op method call and no state is allocated.

Export formats: :meth:`MetricsRegistry.to_prometheus` renders the standard
Prometheus text exposition format (final values, suitable for offline
inspection or scraping a dumped file), and :class:`TimeSeriesRecorder`
captures per-step snapshots of every counter and gauge for trajectory
analysis.
"""

from __future__ import annotations

import bisect
from typing import Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeriesRecorder",
    "NULL_REGISTRY",
]

#: Default bucket edges for step-wait histograms (admission queue waits).
QUEUE_WAIT_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _label_key(labels: Optional[Mapping[str, str]]) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render without a trailing ``.0``."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "labels", "_value")

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels = _label_key(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[str]:
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self._value)}"]


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "_value")

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels = _label_key(labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[str]:
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self._value)}"]


class Histogram:
    """A distribution over fixed bucket edges.

    Edges are upper bounds (``value <= edge`` lands in that bucket); values
    above the last edge land in the implicit ``+Inf`` bucket.  Edges are
    frozen at creation — the determinism contract — and must be strictly
    increasing.
    """

    __slots__ = ("name", "help", "labels", "edges", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        edges: Sequence[float],
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name} edges must be strictly increasing")
        self.name = name
        self.help = help
        self.labels = _label_key(labels)
        self.edges = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_left(self.edges, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the bucket the quantile rank falls
        into, the way ``histogram_quantile`` does it: a bucket with upper
        edge ``e`` and predecessor edge ``p`` is treated as the interval
        ``(p, e]`` with its observations spread uniformly; the first bucket
        interpolates from ``min(0, edge)`` so non-negative distributions
        (every histogram the cluster keeps) never estimate below zero, and
        a rank landing exactly on a bucket's cumulative count returns the
        bucket's upper edge *exactly*.  Ranks in the ``+Inf`` overflow
        bucket clamp to the last finite edge.  Returns ``nan`` for an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        if self._count == 0:
            return float("nan")
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts[:-1]):
            if cumulative + bucket_count >= rank and bucket_count > 0:
                upper = self.edges[index]
                lower = self.edges[index - 1] if index > 0 else min(0.0, upper)
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.edges[-1]

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts keyed by upper edge (``inf`` for the overflow)."""
        cumulative: dict[float, int] = {}
        running = 0
        for edge, count in zip(self.edges, self._counts):
            running += count
            cumulative[edge] = running
        cumulative[float("inf")] = running + self._counts[-1]
        return cumulative

    def samples(self) -> list[str]:
        lines = []
        for edge, cumulative in self.bucket_counts().items():
            le = "+Inf" if edge == float("inf") else _format_value(edge)
            labels = _format_labels(self.labels, f'le="{le}"')
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        labels = _format_labels(self.labels)
        lines.append(f"{self.name}_sum{labels} {_format_value(self._sum)}")
        lines.append(f"{self.name}_count{labels} {self._count}")
        return lines


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()

    name = ""
    help = ""
    labels = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def samples(self) -> list[str]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Creates and owns instruments; get-or-create by (name, labels)."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        edges: Sequence[float],
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, edges, help=help, labels=labels)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def collect(self) -> list:
        """All instruments, in registration order."""
        return list(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def scalar_snapshot(self) -> dict[str, float]:
        """Current counter/gauge values keyed by rendered sample name."""
        snapshot: dict[str, float] = {}
        for metric in self._metrics.values():
            if isinstance(metric, (Counter, Gauge)):
                snapshot[f"{metric.name}{_format_labels(metric.labels)}"] = (
                    metric.value
                )
        return snapshot

    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in self._metrics.values():
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + ("\n" if lines else "")


class _NullRegistry:
    """Shared disabled registry: every instrument is the no-op singleton."""

    enabled = False

    def counter(self, name, help="", labels=None):
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labels=None):
        return _NULL_INSTRUMENT

    def histogram(self, name, edges, help="", labels=None):
        return _NULL_INSTRUMENT

    def collect(self) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def scalar_snapshot(self) -> dict[str, float]:
        return {}

    def to_prometheus(self) -> str:
        return ""


NULL_REGISTRY = _NullRegistry()


class TimeSeriesRecorder:
    """Per-step snapshots of every counter and gauge in a registry.

    One :meth:`record` call per cluster step turns the live registry into a
    trajectory — how queue depth, fleet size and brownout level co-evolved —
    without the instrumented code knowing the recorder exists.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.steps: list[int] = []
        self.rows: list[dict[str, float]] = []

    def record(self, step: int) -> None:
        self.steps.append(step)
        self.rows.append(self.registry.scalar_snapshot())

    def series(self, name: str) -> list[float]:
        """One metric's trajectory; steps before its registration read 0."""
        return [row.get(name, 0.0) for row in self.rows]

    def names(self) -> list[str]:
        names: dict[str, None] = {}
        for row in self.rows:
            for name in row:
                names.setdefault(name)
        return list(names)

    def to_dict(self) -> dict:
        return {
            "steps": list(self.steps),
            "series": {name: self.series(name) for name in self.names()},
        }
