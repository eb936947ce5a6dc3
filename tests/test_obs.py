"""Tests for :mod:`repro.obs` — tracing, metrics, provenance, RunStats.

The contracts pinned down here:

* **zero-cost disabled path** — the global tracer is off by default and its
  disabled spans are a shared no-op singleton (the kernel's hot loop never
  pays for observability it didn't ask for; the *overhead* ceiling itself is
  benched in ``benchmarks/test_bench_obs.py``);
* **trace schema** — ``JsonlTraceSink`` output round-trips through
  ``read_trace`` and passes ``validate_trace``; malformed files are loud;
* **registry exposition** — ``/v1/stats``-style JSON reads and the
  Prometheus text rendering are two views of the same series;
* **RunStats invariants** — every policy (Gillespie, fair, tau) over
  every construction strategy (known / 1d / leaderless / quilt / general)
  reports events/selections/propensity_ops/rng_draws that satisfy the
  cross-engine algebra, and seeded stats are reproducible bit for bit;
* **traced campaigns** — ``run_campaign(trace=True)`` writes a schema-valid
  ``trace.jsonl`` whose per-cell spans sum-check against the campaign span,
  plus a ``provenance.json`` manifest (written even when tracing is off).
"""

import bisect
import functools
import json
import math
import random
from contextlib import closing

import pytest

from repro.api.config import RunConfig
from repro.core.characterization import build_crn_for
from repro.functions.catalog import (
    double_spec,
    minimum_spec,
    quilt_2d_fig3b_spec,
    threshold_capped_spec,
)
from repro.lab.cache import CODE_SALT, ResultCache
from repro.lab.campaign import (
    PROVENANCE_NAME,
    TRACE_NAME,
    Campaign,
    run_campaign,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.provenance import PROVENANCE_SCHEMA, run_manifest
from repro.obs.report import format_self_time_table, format_span_tree
from repro.obs.stats import RunStats
from repro.obs.trace import (
    NOOP_SPAN,
    TRACE_SCHEMA,
    JsonlTraceSink,
    Tracer,
    get_tracer,
    install_tracer,
    read_trace,
    validate_trace,
)
from repro.sim.fair import output_producing_bias
from repro.sim.kernel import (
    FairPolicy,
    GillespiePolicy,
    SimulatorCore,
    TauLeapPolicy,
    default_quiescence_window,
)
from repro.sim.runner import estimate_expected_output, run_many


# ---------------------------------------------------------------------------
# RunStats
# ---------------------------------------------------------------------------


class TestRunStats:
    def test_merge_accumulates_every_field(self):
        a = RunStats(events=2, selections=2, propensity_ops=5, rng_draws=4, wall_s=0.5)
        b = RunStats(events=1, selections=1, propensity_ops=3, rng_draws=2, wall_s=0.25)
        a.merge(b)
        assert a.to_dict() == {
            "events": 3,
            "selections": 3,
            "propensity_ops": 8,
            "rng_draws": 6,
            "wall_s": 0.75,
        }

    def test_equality_is_by_value(self):
        assert RunStats(events=1) == RunStats(events=1)
        assert RunStats(events=1) != RunStats(events=2)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracerDisabled:
    def test_disabled_tracer_hands_out_the_noop_singleton(self):
        tracer = Tracer()
        assert not tracer.enabled
        span = tracer.span("anything", key="value")
        assert span is NOOP_SPAN
        with span as inner:
            inner.set(more="attrs")  # must be inert, not raise
        tracer.event("nothing")  # inert
        tracer.emit_span("nothing", 0.0, 0.0)  # inert

    def test_global_tracer_is_disabled_by_default(self):
        assert not get_tracer().enabled


class TestTracerEnabled:
    def test_spans_nest_events_interleave_and_validate(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlTraceSink(path, manifest={"purpose": "test"})
        tracer = Tracer(sink)
        assert tracer.enabled
        with tracer.span("outer", label="o"):
            tracer.event("ping", n=1)
            with tracer.span("inner") as span:
                span.set(status="ok")
        sink.close()

        records = list(read_trace(path))
        assert validate_trace(records) == []
        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["manifest"] == {"purpose": "test"}

        spans = {r["name"]: r for r in records if r["type"] == "span"}
        events = [r for r in records if r["type"] == "event"]
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["attrs"]["status"] == "ok"
        assert spans["outer"]["dur_s"] >= spans["inner"]["dur_s"] >= 0.0
        assert [e["name"] for e in events] == ["ping"]
        assert events[0]["attrs"] == {"n": 1}

    def test_install_tracer_swaps_and_restores_the_global(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        mine = Tracer(sink)
        previous = install_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            install_tracer(previous)
            sink.close()
        assert get_tracer() is previous

    def test_read_trace_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "schema": "%s"}\nnot json\n' % TRACE_SCHEMA)
        with pytest.raises(ValueError, match=r":2: malformed trace line"):
            list(read_trace(str(path)))

    def test_validate_trace_flags_schema_violations(self):
        good_meta = {"type": "meta", "schema": TRACE_SCHEMA, "pid": 1}
        span = {
            "type": "span", "name": "s", "t0": 1.0, "dur_s": 0.1,
            "pid": 1, "tid": 1, "id": "1-1", "parent": None, "attrs": {},
        }
        assert validate_trace([good_meta, span]) == []
        # no meta first
        assert validate_trace([span]) != []
        # wrong schema version
        bad_meta = dict(good_meta, schema="someone-elses-v9")
        assert validate_trace([bad_meta, span]) != []
        # orphan parent reference
        orphan = dict(span, parent="1-999")
        assert validate_trace([good_meta, orphan]) != []
        # negative duration
        negative = dict(span, dur_s=-0.5)
        assert validate_trace([good_meta, negative]) != []


# ---------------------------------------------------------------------------
# MetricsRegistry + Prometheus rendering
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help", labels=("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc(2)
        counter.labels(kind="b").inc(0)
        assert counter.value_of(("a",)) == 3
        assert counter.series() == {("a",): 3.0, ("b",): 0.0}
        with pytest.raises(ValueError):
            counter.labels(kind="a").inc(-1)
        with pytest.raises(TypeError):
            counter.labels(kind="a").set(5)

    def test_gauge_set_and_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_gauge", "help")
        gauge.set(10)
        gauge.dec(3)
        assert gauge.value == 7.0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_seconds", "help")
        for value in (0.05, 0.5, 100.0):
            hist.observe(value)
        snap = hist.snapshot_of(())
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(100.55)
        bounds = [bound for bound, _ in snap["buckets"]]
        cumulative = dict(snap["buckets"])
        assert bounds == list(DEFAULT_BUCKETS) + [float("inf")]
        assert cumulative[0.04329] == 0 and cumulative[0.05337] == 1
        assert cumulative[0.4329] == 1 and cumulative[0.5337] == 2
        assert cumulative[60.0] == 2 and cumulative[float("inf")] == 3
        counts = [count for _, count in snap["buckets"]]
        assert counts == sorted(counts)

    def test_getters_are_idempotent_but_reject_kind_mismatch(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", "help")
        assert registry.counter("repro_test_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_test_total", labels=("other",))

    def test_label_names_are_validated(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", labels=("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.labels(wrong="x")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "things counted", labels=("kind",))
        counter.labels(kind='we"ird\n').inc(2)
        hist = registry.histogram("repro_test_seconds")
        hist.observe(0.1)
        text = render_prometheus(registry)
        assert "# HELP repro_test_total things counted" in text
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{kind="we\\"ird\\n"} 2' in text
        assert 'repro_test_seconds_bucket{le="0.08111"} 0' in text
        assert 'repro_test_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_test_seconds_bucket{le="60"} 1' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 1' in text
        assert text.count("repro_test_seconds_bucket{") == len(DEFAULT_BUCKETS) + 1
        assert "repro_test_seconds_count 1" in text
        assert text.endswith("\n")

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_default_buckets_step_at_most_1_25_from_100us_to_1s(self):
        fine = [bound for bound in DEFAULT_BUCKETS if bound <= 1.0]
        assert fine[0] == 0.0001 and fine[-1] == 1.0
        assert max(b / a for a, b in zip(fine, fine[1:])) <= 1.25
        assert DEFAULT_BUCKETS[len(fine):] == (5.0, 15.0, 60.0)


class TestHistogramQuantile:
    @staticmethod
    def _histogram(samples):
        hist = MetricsRegistry().histogram("repro_test_seconds", labels=("endpoint",))
        for value in samples:
            hist.labels(endpoint="x").observe(value)
        return hist

    def test_within_one_bucket_width_of_nearest_rank(self):
        rng = random.Random(7)
        samples = sorted(rng.lognormvariate(math.log(0.0015), 0.8) for _ in range(2000))
        hist = self._histogram(samples)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            nearest = samples[max(0, math.ceil(q * len(samples)) - 1)]
            upper = DEFAULT_BUCKETS[bisect.bisect_left(DEFAULT_BUCKETS, nearest)]
            lower = DEFAULT_BUCKETS[bisect.bisect_left(DEFAULT_BUCKETS, nearest) - 1]
            estimate = hist.quantile(("x",), q)
            assert lower <= estimate <= upper, (q, nearest, estimate)
            assert abs(estimate - nearest) <= upper - lower

    def test_matches_prometheus_interpolation(self):
        # four samples in the (0.001, 0.001233] bucket, none below it
        hist = self._histogram([0.0011] * 4)
        assert hist.quantile(("x",), 0.5) == pytest.approx(0.001 + 0.000233 * 0.5)
        assert hist.quantile(("x",), 1.0) == pytest.approx(0.001233)
        assert hist.quantile(("x",), 0.0) == pytest.approx(0.001)

    def test_empty_series_is_none(self):
        hist = self._histogram([])
        assert hist.quantile(("x",), 0.5) is None
        assert hist.quantile(("never-observed",), 0.99) is None

    def test_past_the_last_bound_reports_the_highest_finite_bound(self):
        hist = self._histogram([0.002, 120.0, 300.0])
        assert hist.quantile(("x",), 0.99) == DEFAULT_BUCKETS[-1] == 60.0

    def test_one_sample(self):
        hist = self._histogram([0.002])
        for q in (0.5, 0.99):
            assert 0.00152 < hist.quantile(("x",), q) <= 0.002310

    def test_rejects_q_outside_0_1(self):
        with pytest.raises(ValueError, match="quantile"):
            self._histogram([0.002]).quantile(("x",), 1.5)


# ---------------------------------------------------------------------------
# Provenance manifests
# ---------------------------------------------------------------------------


class TestProvenance:
    def test_manifest_core_fields(self):
        from repro import __version__

        manifest = run_manifest(
            engine="python",
            config=RunConfig(trials=3, seed=7),
            spec_fingerprints={"minimum": "abc123"},
            extra={"campaign": "t"},
        )
        assert manifest["schema"] == PROVENANCE_SCHEMA
        assert manifest["version"] == __version__
        assert manifest["code_salt"] == CODE_SALT
        assert manifest["engine"] == "python"
        assert manifest["spec_fingerprints"] == {"minimum": "abc123"}
        assert manifest["config"]["trials"] == 3
        assert manifest["config_cache_key"] == RunConfig(trials=3, seed=7).cache_key()
        assert manifest["campaign"] == "t"
        assert manifest["created_unix"] > 0
        json.dumps(manifest)  # must be JSON-serializable as-is


# ---------------------------------------------------------------------------
# ResultCache metrics
# ---------------------------------------------------------------------------


class TestCacheMetrics:
    def test_get_put_report_into_the_registry(self, tmp_path):
        registry = MetricsRegistry()
        key = "ab" + "0" * 62
        with closing(ResultCache(str(tmp_path / "cache"), registry=registry)) as cache:
            assert cache.get(key) is None
            cache.put(key, {"payload": 1})
            assert cache.get(key) == {"payload": 1}

        requests = registry.get("repro_result_cache_requests_total")
        assert requests.value_of(("miss",)) == 1
        assert requests.value_of(("hit",)) == 1
        assert registry.get("repro_result_cache_get_seconds").snapshot_of(())["count"] == 2
        assert registry.get("repro_result_cache_put_seconds").snapshot_of(())["count"] == 1


# ---------------------------------------------------------------------------
# RunStats invariants across policies x construction strategies
# ---------------------------------------------------------------------------


def _strategy_crns():
    """One CRN per construction strategy family (mirrors test_kernel.py)."""
    return [
        ("known", minimum_spec().known_crn, (4, 7)),
        ("1d", build_crn_for(threshold_capped_spec(), strategy="1d"), (5,)),
        ("leaderless", build_crn_for(double_spec(), strategy="leaderless"), (4,)),
        ("quilt", build_crn_for(quilt_2d_fig3b_spec(), strategy="quilt"), (3, 2)),
        ("general", build_crn_for(minimum_spec(), strategy="general"), (3, 4)),
    ]


_STRATEGY_CRNS = _strategy_crns()

_POLICIES = [
    ("gillespie", GillespiePolicy),
    ("fair", FairPolicy),
    ("tau", TauLeapPolicy),
]


class TestRunStatsInvariants:
    @pytest.mark.parametrize(
        "strategy,crn,x", _STRATEGY_CRNS, ids=[s for s, _, _ in _STRATEGY_CRNS]
    )
    @pytest.mark.parametrize("policy_name,policy_cls", _POLICIES)
    def test_every_policy_reports_consistent_stats(
        self, strategy, crn, x, policy_name, policy_cls
    ):
        core = SimulatorCore(crn, policy_cls(), rng=random.Random(11))
        result = core.run(crn.initial_configuration(x), max_steps=5_000)
        stats = result.stats
        assert stats is not None
        assert stats.events == result.steps
        assert stats.wall_s > 0.0
        # start() always evaluates the full propensity/applicability vector
        assert stats.propensity_ops >= len(crn.reactions)
        if policy_name == "tau":
            # tau collapses many firings into few selection rounds
            assert stats.selections <= stats.events or stats.events == 0
        else:
            assert stats.selections == stats.events
        if stats.events > 0:
            assert stats.rng_draws > 0

    @pytest.mark.parametrize(
        "strategy,crn,x", _STRATEGY_CRNS, ids=[s for s, _, _ in _STRATEGY_CRNS]
    )
    def test_biased_fair_policy_reports_consistent_stats(self, strategy, crn, x):
        # The weighted choice is its own selection path: it must account
        # for its work exactly as the uniform one does.
        policy = FairPolicy(bias=output_producing_bias(crn))
        core = SimulatorCore(crn, policy, rng=random.Random(11))
        result = core.run(crn.initial_configuration(x), max_steps=5_000)
        stats = result.stats
        assert stats is not None
        assert stats.events == result.steps
        assert stats.selections == stats.events
        assert stats.propensity_ops >= len(crn.reactions)
        if stats.events > 0:
            assert stats.rng_draws > 0

    def test_seeded_stats_are_reproducible(self):
        crn = minimum_spec().known_crn
        runs = []
        for _ in range(2):
            core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(23))
            runs.append(core.run(crn.initial_configuration((6, 9)), max_steps=5_000))
        first, second = (r.stats.to_dict() for r in runs)
        first.pop("wall_s"), second.pop("wall_s")
        assert first == second

    def test_gillespie_counts_selection_and_firing_work(self):
        crn = minimum_spec().known_crn
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(5))
        result = core.run(crn.initial_configuration((5, 5)), max_steps=5_000)
        stats = result.stats
        # two draws per step (waiting time + choice) on the direct method
        assert stats.rng_draws == 2 * stats.events
        # beyond the start() full vector, each firing recomputes >= 1 dependent
        assert stats.propensity_ops >= len(crn.reactions) + stats.events


def _kernel_span_attrs(path, work):
    """The attrs of every ``kernel.run`` span emitted while ``work()`` runs
    under a global tracer writing to ``path``, in emission order."""
    sink = JsonlTraceSink(path)
    previous = install_tracer(Tracer(sink))
    try:
        work()
    finally:
        install_tracer(previous)
        sink.close()
    records = list(read_trace(path))
    assert validate_trace(records) == []
    return [r["attrs"] for r in records if r.get("name") == "kernel.run"]


class TestTracedKernelRuns:
    """A scalar engine's trials each emit the ``kernel.run`` span a
    one-trajectory ``SimulatorCore.run`` on the same seed emits."""

    @pytest.mark.parametrize("entry", ["run_many", "estimate_expected_output"])
    def test_one_span_per_trial_matching_simulator_core(self, tmp_path, entry):
        crn = build_crn_for(quilt_2d_fig3b_spec(), strategy="quilt")
        x = (3, 2)
        config = RunConfig(trials=3, seed=17, max_steps=20_000)
        if entry == "run_many":
            policy, window = FairPolicy(), default_quiescence_window(x)
            work = functools.partial(run_many, crn, x, config=config)
        else:
            policy, window = GillespiePolicy(), 0
            work = functools.partial(estimate_expected_output, crn, x, config=config)

        def one_core_per_seed():
            for seed in config.trial_seeds():
                SimulatorCore(crn, policy, rng=random.Random(seed)).run_on_input(
                    x, max_steps=config.max_steps, quiescence_window=window
                )

        traced = _kernel_span_attrs(str(tmp_path / "engine.jsonl"), work)
        expected = _kernel_span_attrs(str(tmp_path / "core.jsonl"), one_core_per_seed)
        assert len(traced) == 3
        assert traced == expected
        assert set(traced[0]) == {
            "policy", "events", "selections", "propensity_ops", "rng_draws",
            "silent", "converged",
        }


# ---------------------------------------------------------------------------
# Traced campaigns
# ---------------------------------------------------------------------------


def _tiny_campaign(name="obs-t"):
    return Campaign(
        name=name,
        specs=["minimum"],
        inputs=[(1, 2), (2, 1)],
        engines=("python",),
        configs=(RunConfig(trials=2),),
        seed=9,
    )


class TestTracedCampaign:
    def test_trace_and_provenance_artifacts(self, tmp_path):
        out = str(tmp_path / "out")
        run = run_campaign(_tiny_campaign(), out, cache_dir=None, trace=True)
        assert run.executed == 2

        records = list(read_trace(str(tmp_path / "out" / TRACE_NAME)))
        assert validate_trace(records) == []
        assert records[0]["manifest"]["schema"] == PROVENANCE_SCHEMA

        spans = [r for r in records if r["type"] == "span"]
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        campaign_span = by_name["campaign.run"][0]
        cell_spans = by_name["lab.cell"]
        assert len(cell_spans) == 2
        assert {s["attrs"]["cell"] for s in cell_spans} == {
            r.cell_id for r in run.results
        }
        # serial in-process cells nest under the campaign, and their summed
        # wall time cannot exceed the campaign span that contains them
        assert all(s["parent"] == campaign_span["id"] for s in cell_spans)
        assert sum(s["dur_s"] for s in cell_spans) <= campaign_span["dur_s"] + 1e-6
        # per-trial kernel spans nest under their cell
        kernel_parents = {s["parent"] for s in by_name["kernel.run"]}
        assert kernel_parents <= {s["id"] for s in cell_spans}
        assert campaign_span["attrs"]["executed"] == 2

        with open(str(tmp_path / "out" / PROVENANCE_NAME)) as handle:
            provenance = json.load(handle)
        assert provenance["schema"] == PROVENANCE_SCHEMA
        assert provenance["campaign"] == "obs-t"
        assert provenance["total_cells"] == 2
        assert provenance["engines"] == ["python"]
        assert list(provenance["spec_fingerprints"]) == ["minimum"]

    def test_rows_carry_cpu_and_worker_provenance(self, tmp_path):
        run = run_campaign(_tiny_campaign(), str(tmp_path / "out"), cache_dir=None)
        for row in run.results:
            assert row.cpu_time is not None and row.cpu_time >= 0.0
            assert isinstance(row.worker, int)

    def test_untraced_campaign_writes_no_trace_but_keeps_provenance(self, tmp_path):
        out = tmp_path / "out"
        run_campaign(_tiny_campaign(), str(out), cache_dir=None)
        assert not (out / TRACE_NAME).exists()
        assert (out / PROVENANCE_NAME).exists()

    def test_global_tracer_is_restored_after_a_traced_campaign(self, tmp_path):
        before = get_tracer()
        run_campaign(_tiny_campaign(), str(tmp_path / "out"), cache_dir=None, trace=True)
        assert get_tracer() is before


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


class TestTraceReport:
    def _records(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        tracer = Tracer(sink)
        with tracer.span("campaign.run", cells=2):
            with tracer.span("lab.cell", cell="c1"):
                tracer.event("worker.heartbeat")
            with tracer.span("lab.cell", cell="c2"):
                pass
        sink.close()
        return list(read_trace(str(tmp_path / "t.jsonl")))

    def test_span_tree_nests_and_counts_events(self, tmp_path):
        text = format_span_tree(self._records(tmp_path))
        lines = text.splitlines()
        assert lines[0].startswith("campaign.run")
        assert sum(1 for l in lines if l.strip().startswith("lab.cell")) == 2
        assert "1 point event" in text

    def test_self_time_table_lists_every_span_name(self, tmp_path):
        text = format_self_time_table(self._records(tmp_path))
        assert "campaign.run" in text
        assert "lab.cell" in text
