"""Server-side observability for :mod:`repro.serve`.

One :class:`ServerMetrics` instance lives on the server state and is mutated
only from the event-loop thread.  It is a *view* over a
:class:`repro.obs.metrics.MetricsRegistry` and keeps no state of its own:
every ``record_*`` call updates a named registry series, ``GET /v1/stats``
reads every number of its JSON snapshot back from those series, and
``GET /v1/metrics`` renders the very same registry as Prometheus text.  The
server passes its registry to its :class:`~repro.lab.cache.ResultCache`, so
cache get/put latency histograms land in the same exposition.

What the ``/v1/stats`` contract promises:

* **cache memo effectiveness** — hits vs. misses across simulate /
  expected-output requests and job cells, plus the derived hit rate (this is
  the number that tells an operator the memo is actually absorbing repeat
  traffic);
* **per-engine demand** — how many requests *named* each engine vs. how many
  actually *executed* on it (requests minus executed = requests the cache
  absorbed);
* **latency quantiles** — p50/p90/p99 and mean per endpoint template over
  the server's lifetime, read from the ``repro_http_request_seconds``
  histogram with :meth:`~repro.obs.metrics.Histogram.quantile` (the
  Prometheus ``histogram_quantile`` rule, so a scrape computes the same
  numbers), and so a hot cache path and a cold simulate path are visible as
  separate distributions;
* **job lifecycle counters** — submitted / completed / cancelled / failed /
  rejected (backpressure 429s), and cell-level executed vs. from-cache;
* **worker restarts** — pool workers found dead and replaced (a worker that
  dies mid-call shows up here even when the call's retry succeeded).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry

#: The job-lifecycle events /v1/stats always reports, even at zero.
JOB_EVENTS = (
    "submitted",
    "completed",
    "cancelled",
    "failed",
    "rejected",
    "cells_executed",
    "cells_from_cache",
)

#: The latency quantiles /v1/stats reports per endpoint.
QUANTILES = {"p50_ms": 0.50, "p90_ms": 0.90, "p99_ms": 0.99}


class ServerMetrics:
    """All counters behind ``GET /v1/stats`` and ``GET /v1/metrics``.

    Mutation happens on the event-loop thread only; the registry's own lock
    additionally makes cross-thread reads (tests, the cache's worker-side
    updates) safe.  Each instance owns a private registry unless one is
    passed in, so parallel test servers never cross-count.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.started_at = time.time()
        self.registry = registry if registry is not None else MetricsRegistry()

        self._requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint template and status code.",
            labels=("endpoint", "status"),
        )
        self._request_seconds = self.registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency, by endpoint template.",
            labels=("endpoint",),
        )
        self._cache = self.registry.counter(
            "repro_cache_requests_total",
            "Server-side memo lookups, by result (hit/miss).",
            labels=("result",),
        )
        self._engine_requests = self.registry.counter(
            "repro_engine_requests_total",
            "Requests that named each engine (before the cache absorbed any).",
            labels=("engine",),
        )
        self._engine_executed = self.registry.counter(
            "repro_engine_executed_total",
            "Simulations that actually executed on each engine.",
            labels=("engine",),
        )
        self._jobs = self.registry.counter(
            "repro_job_events_total",
            "Job lifecycle events (submitted/completed/cancelled/failed/"
            "rejected) and cell outcomes (cells_executed/cells_from_cache).",
            labels=("event",),
        )
        self._worker_restarts = self.registry.counter(
            "repro_pool_worker_restarts_total",
            "Pool worker processes found dead and replaced.",
        )
        self._uptime = self.registry.gauge(
            "repro_server_uptime_seconds", "Seconds since the server booted."
        )
        # Pre-touch the series /v1/stats always reports, so a fresh server
        # exposes them at zero instead of omitting them.
        self._worker_restarts.inc(0)
        self._cache.labels(result="hit").inc(0)
        self._cache.labels(result="miss").inc(0)
        for event in JOB_EVENTS:
            self._jobs.labels(event=event).inc(0)

    # -- recording --------------------------------------------------------------

    def record_request(self, endpoint: str, status: int, seconds: float) -> None:
        self._requests.labels(endpoint=endpoint, status=str(int(status))).inc()
        self._request_seconds.labels(endpoint=endpoint).observe(seconds)

    def record_cache(self, hit: bool) -> None:
        self._cache.labels(result="hit" if hit else "miss").inc()

    def record_engine_request(self, engine: str) -> None:
        self._engine_requests.labels(engine=str(engine)).inc()

    def record_engine_executed(self, engine: str) -> None:
        self._engine_executed.labels(engine=str(engine)).inc()

    def record_job_event(self, event: str, count: int = 1) -> None:
        self._jobs.labels(event=str(event)).inc(count)

    def record_worker_restart(self) -> None:
        self._worker_restarts.inc()

    # -- reporting --------------------------------------------------------------

    def touch(self) -> None:
        """Refresh derived gauges (uptime) before a registry render."""
        self._uptime.set(round(time.time() - self.started_at, 3))

    def _latency_ms(self, endpoint: str) -> Dict[str, float]:
        snap = self._request_seconds.snapshot_of((endpoint,))
        if not snap["count"]:
            return {}
        latency = {
            key: round(self._request_seconds.quantile((endpoint,), q) * 1000, 3)
            for key, q in QUANTILES.items()
        }
        latency["mean_ms"] = round(snap["sum"] / snap["count"] * 1000, 3)
        return latency

    def snapshot(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload body (JSON-serializable, stable keys).

        Every number here is read back *from the registry*, so this JSON view
        and the Prometheus text of ``GET /v1/metrics`` cannot disagree.
        """
        requests: Dict[str, Dict[str, Any]] = {}
        for (endpoint, status), value in sorted(self._requests.series().items()):
            entry = requests.setdefault(endpoint, {"count": 0, "by_status": {}})
            entry["count"] += int(value)
            entry["by_status"][status] = int(value)
        for endpoint, entry in requests.items():
            entry["latency"] = self._latency_ms(endpoint)

        engines: Dict[str, Dict[str, int]] = {}
        for key, metric in (
            ("requests", self._engine_requests),
            ("executed", self._engine_executed),
        ):
            for (engine,), value in metric.series().items():
                engines.setdefault(engine, {"requests": 0, "executed": 0})[key] = int(value)

        hits = int(self._cache.value_of(("hit",)))
        misses = int(self._cache.value_of(("miss",)))
        self.touch()
        return {
            "uptime_s": self._uptime.value,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 6) if hits + misses else None,
            },
            "engines": engines,
            "requests": requests,
            "jobs": {event: int(value) for (event,), value in self._jobs.series().items()},
            "worker_restarts": int(self._worker_restarts.value),
        }
