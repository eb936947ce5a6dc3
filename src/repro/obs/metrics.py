"""A dependency-free metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` holds named :class:`Counter`/:class:`Gauge`/
:class:`Histogram` families; a family with ``labels=(...)`` fans out into
per-label-value series via ``metric.labels(k=v)``.  This replaces the three
parallel counter implementations that grew across the stack (kernel stepper
ints, ``serve`` dict counters, lab cache row flags) with a single shape that

* the ``/v1/stats`` JSON snapshot can read back (``series()``),
* the ``GET /v1/metrics`` endpoint can render as Prometheus text
  (:func:`render_prometheus` — exposition format 0.0.4, stdlib only), and
* tests can assert against without reaching into private dicts.

Thread safety: a single registry-wide lock guards series creation and every
update.  That is deliberate — the registry sits on request/cell boundaries
(hundreds of ops per second), never inside simulation step loops, which keep
their counters as plain ints in :class:`repro.obs.stats.RunStats` and fold
into the registry once per run.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The one histogram bucket ladder (seconds): 11 geometric steps per decade
#: (ratio 10 ** (1/11) ~ 1.233) from 100µs to 1s, then a 5/15/60s tail.  A
#: :meth:`Histogram.quantile` and the nearest-rank sample share a bucket, so
#: from 100µs to 1s the estimate is within 23.3% of it (below 100µs, within
#: 100µs).
DEFAULT_BUCKETS = tuple(
    float(f"{10 ** (step / 11 - 4):.4g}") for step in range(45)
) + (5.0, 15.0, 60.0)

LabelValues = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Series:
    """One (metric, label-values) time series: a value or histogram state."""

    __slots__ = ("value", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        self.value = 0.0
        if buckets is not None:
            self.bucket_counts = [0] * (len(buckets) + 1)  # trailing +Inf
            self.sum = 0.0
            self.count = 0


class Metric:
    """A named family of series; label-less families have one implicit series."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.registry = registry
        self.name = _check_name(name)
        self.help = help_text
        self.label_names = label_names
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.buckets = buckets
        self._series: Dict[LabelValues, _Series] = {}
        if not label_names:
            self._series[()] = _Series(buckets)

    def _series_for(self, values: LabelValues) -> _Series:
        with self.registry._lock:
            series = self._series.get(values)
            if series is None:
                series = _Series(self.buckets)
                self._series[values] = series
            return series

    def _values_from(self, labels: Dict[str, Any]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def labels(self, **labels: Any) -> "Metric._Child":
        return Metric._Child(self, self._values_from(labels))

    class _Child:
        __slots__ = ("metric", "values")

        def __init__(self, metric: "Metric", values: LabelValues) -> None:
            self.metric = metric
            self.values = values

        def inc(self, amount: float = 1.0) -> None:
            self.metric._inc(self.values, amount)

        def set(self, value: float) -> None:
            self.metric._set(self.values, value)

        def observe(self, value: float) -> None:
            self.metric._observe(self.values, value)

        @property
        def value(self) -> float:
            return self.metric.value_of(self.values)

    # Label-less convenience forwarding.
    def inc(self, amount: float = 1.0) -> None:
        self._inc((), amount)

    def set(self, value: float) -> None:
        self._set((), value)

    def observe(self, value: float) -> None:
        self._observe((), value)

    @property
    def value(self) -> float:
        return self.value_of(())

    # -- storage ops (overridden per kind where semantics differ) -----------

    def _inc(self, values: LabelValues, amount: float) -> None:
        series = self._series_for(values)
        with self.registry._lock:
            series.value += amount

    def _set(self, values: LabelValues, value: float) -> None:
        series = self._series_for(values)
        with self.registry._lock:
            series.value = float(value)

    def _observe(self, values: LabelValues, value: float) -> None:
        raise TypeError(f"{self.kind} metric {self.name!r} does not support observe()")

    def value_of(self, values: LabelValues = ()) -> float:
        series = self._series.get(values)
        return series.value if series is not None else 0.0

    def series(self) -> Dict[LabelValues, float]:
        """Label-values -> current value (counters/gauges)."""
        with self.registry._lock:
            return {values: series.value for values, series in self._series.items()}


class Counter(Metric):
    kind = "counter"

    def _inc(self, values: LabelValues, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        Metric._inc(self, values, amount)

    def _set(self, values: LabelValues, value: float) -> None:
        raise TypeError(f"counter {self.name!r} does not support set()")


class Gauge(Metric):
    kind = "gauge"

    def dec(self, amount: float = 1.0) -> None:
        self._inc((), -amount)


class Histogram(Metric):
    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
    ) -> None:
        super().__init__(registry, name, help_text, label_names, buckets=DEFAULT_BUCKETS)

    def _inc(self, values: LabelValues, amount: float) -> None:
        raise TypeError(f"histogram {self.name!r} does not support inc()")

    def _set(self, values: LabelValues, value: float) -> None:
        raise TypeError(f"histogram {self.name!r} does not support set()")

    def _observe(self, values: LabelValues, value: float) -> None:
        series = self._series_for(values)
        index = bisect_left(self.buckets, value)
        with self.registry._lock:
            series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1

    def snapshot_of(self, values: LabelValues = ()) -> Dict[str, Any]:
        """``{"count", "sum", "buckets": [(le, cumulative), ...]}`` for a series."""
        with self.registry._lock:
            series = self._series.get(values)
            if series is None:
                return {"count": 0, "sum": 0.0, "buckets": []}
            cumulative, out = 0, []
            for bound, bucket in zip(
                list(self.buckets) + [math.inf], series.bucket_counts
            ):
                cumulative += bucket
                out.append((bound, cumulative))
            return {"count": series.count, "sum": series.sum, "buckets": out}

    def quantile(self, values: LabelValues, q: float) -> Optional[float]:
        """The ``q``-quantile of a series, as Prometheus ``histogram_quantile``.

        Finds the bucket holding rank ``q * count`` and interpolates linearly
        inside it (the first bucket starts at 0).  A rank in the ``+Inf``
        bucket reports the highest finite bound; an empty series is ``None``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        snap = self.snapshot_of(values)
        if not snap["count"]:
            return None
        rank = q * snap["count"]
        lower, below = 0.0, 0
        for bound, cumulative in snap["buckets"]:
            if cumulative >= rank and cumulative > below:
                break
            lower, below = bound, cumulative
        if bound == math.inf:
            return lower
        return lower + (bound - lower) * (rank - below) / (cumulative - below)


class MetricsRegistry:
    """Named metric families; idempotent getters so modules can share names."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str, labels) -> Metric:
        label_names = tuple(labels or ())
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.label_names}"
                    )
                return existing
            metric = cls(self, name, help_text, label_names)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "", labels: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "", labels: Iterable[str] = ()) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]


#: Shared default registry (lab cache, CLI runs).  The server builds its own
#: per-instance registry so parallel test servers never cross-count.
_DEFAULT = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _DEFAULT


# -- Prometheus text exposition ----------------------------------------------

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_labels(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus exposition-format 0.0.4 text."""
    lines: List[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for values in sorted(metric._series):
                snap = metric.snapshot_of(values)
                for bound, cumulative in snap["buckets"]:
                    labels = _format_labels(
                        metric.label_names, values, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                labels = _format_labels(metric.label_names, values)
                lines.append(f"{metric.name}_sum{labels} {_format_value(snap['sum'])}")
                lines.append(f"{metric.name}_count{labels} {snap['count']}")
        else:
            for values, value in sorted(metric.series().items()):
                labels = _format_labels(metric.label_names, values)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"
