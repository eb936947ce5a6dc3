"""End-to-end tests for :mod:`repro.serve` — the HTTP simulation service.

Everything here drives a real server over real sockets: the in-process tests
use :class:`~repro.serve.server.ServerThread` (a live asyncio server on a
daemon thread, port 0), and the lifecycle test boots ``python -m repro serve``
as a subprocess and SIGTERMs it.

The two contracts the suite pins down:

* **the cache memo** — two identical ``POST /v1/simulate`` requests return
  byte-identical bodies, the second without invoking any engine (the hit is
  visible in ``/v1/stats`` and the ``X-Repro-Cache`` header);
* **serve/lab equivalence** — a job submitted over HTTP produces rows
  deterministically identical to an in-process ``Workbench.campaign`` run of
  the same grid (same cell ids, same derived per-cell seeds, same outputs).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.api.config import RunConfig
from repro.api.workbench import Workbench
from repro.lab.cache import ResultCache
from repro.lab.store import PROVENANCE_FIELDS
from repro.serve.client import ServeClient, ServeError
from repro.serve.handlers import UNMATCHED
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import canonical_json
from repro.serve.server import ReproServer, ServerThread

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: A cheap, deterministic request config used throughout.
FAST_CONFIG = {"trials": 3, "seed": 11, "engine": "python", "max_steps": 200_000}


def _exit_unless_marked(marker):
    """Kill the calling pool worker the first time, answer with its pid after that."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(4)
    return os.getpid()


@pytest.fixture()
def server(tmp_path):
    with ServerThread(port=0, workers=1, cache_dir=str(tmp_path / "cache")) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient("127.0.0.1", server.port)


class TestBasicEndpoints:
    def test_health_reports_version(self, client):
        from repro import __version__

        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["version"] == __version__

    def test_engines_matches_registry(self, client):
        from repro.sim.registry import registered_engines

        over_http = client.engines()
        in_process = [info.to_dict() for info in registered_engines()]
        assert over_http == in_process
        # capability metadata rides through the shared to_dict serialization
        by_name = {entry["name"]: entry for entry in over_http}
        assert by_name["tau-vec"]["batch_capable"] is True
        assert by_name["tau-vec"]["approximate"] is True
        assert by_name["python"]["batch_capable"] is False
        # ... and so does the "auto" cost rule
        assert by_name["python"]["trial_step_cost"] > 0
        assert by_name["vectorized"]["step_cost"] > 0

    def test_compile_reports_crn_shape(self, client):
        payload = client.compile("minimum")
        assert payload["spec"] == "minimum"
        assert payload["dimension"] == 2
        assert payload["reactions"] >= 1
        assert payload["species"] >= 2
        assert len(payload["fingerprint"]) == 64

    def test_compile_unbuildable_spec_is_422(self, client):
        status, _, body = client.request(
            "POST", "/v1/compile", {"spec": "eq2_counterexample"}
        )
        assert status == 422
        assert "eq2_counterexample" in json.loads(body)["error"]

    def test_simulate_returns_a_correct_deterministic_row(self, client):
        row = client.simulate("minimum", [8, 5], config=FAST_CONFIG)
        assert row["expected"] == 5
        assert row["output_mode"] == 5
        assert row["correct"] is True
        assert row["status"] == "ok"
        # deterministic view: no provenance fields in the body
        assert "wall_time" not in row
        assert "cached" not in row

    def test_expected_output_close_to_spec_value(self, client):
        value = client.expected_output("minimum", [6, 9], config=FAST_CONFIG)
        assert value == pytest.approx(6.0, abs=1.5)

    def test_simulate_runs_tau_vec_with_epsilon(self, client):
        # The approximate batch engine is addressable over the wire with its
        # error knob, through the same config plumbing as every engine.
        row = client.simulate(
            "minimum",
            [3000, 4000],
            config={"trials": 3, "seed": 7, "engine": "tau-vec", "epsilon": 0.05},
        )
        assert row["expected"] == 3000
        assert row["output_mode"] == 3000
        assert row["correct"] is True
        assert row["status"] == "ok"

    def test_verify_exhaustive_passes(self, client):
        report = client.verify("double", method="exhaustive", config={"seed": 3})
        assert report["passed"] is True
        assert all(r["passed"] for r in report["results"])
        assert all(r["method"] == "exhaustive" for r in report["results"])


class TestCacheMemo:
    """The headline contract: repeats short-circuit before touching an engine."""

    def test_repeat_simulate_is_byte_identical_and_engine_free(self, client):
        request = {"spec": "minimum", "input": [8, 5], "config": FAST_CONFIG}
        status1, headers1, body1 = client.request("POST", "/v1/simulate", request)
        stats_between = client.stats()
        status2, headers2, body2 = client.request("POST", "/v1/simulate", request)
        stats_after = client.stats()

        assert status1 == status2 == 200
        assert headers1["x-repro-cache"] == "miss"
        assert headers2["x-repro-cache"] == "hit"
        assert body1 == body2  # byte identity, not just JSON equality

        # the second request never invoked an engine …
        executed = lambda stats: stats["engines"]["python"]["executed"]  # noqa: E731
        assert executed(stats_after) == executed(stats_between) == 1
        # … and the hit is counted in /v1/stats
        assert stats_after["cache"]["hits"] == stats_between["cache"]["hits"] + 1
        assert stats_after["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_unseeded_requests_never_cache(self, client):
        config = {k: v for k, v in FAST_CONFIG.items() if k != "seed"}
        request = {"spec": "minimum", "input": [4, 6], "config": config}
        _, headers1, _ = client.request("POST", "/v1/simulate", request)
        _, headers2, _ = client.request("POST", "/v1/simulate", request)
        assert headers1["x-repro-cache"] == headers2["x-repro-cache"] == "miss"

    def test_different_inputs_do_not_collide(self, client):
        row1 = client.simulate("minimum", [8, 5], config=FAST_CONFIG)
        row2 = client.simulate("minimum", [2, 9], config=FAST_CONFIG)
        assert row1["expected"] == 5 and row2["expected"] == 2

    def test_simulate_memo_is_shared_with_campaign_cells(self, server, client, tmp_path):
        """A serve hit can be produced by an in-process campaign and vice versa."""
        from repro.lab.campaign import Campaign, run_campaign

        config = RunConfig(
            trials=FAST_CONFIG["trials"],
            seed=FAST_CONFIG["seed"],
            engine="python",
            max_steps=FAST_CONFIG["max_steps"],
        )
        # master seed None = "the config's own seed is the cell seed", which
        # is exactly what a simulate request denotes
        campaign = Campaign(
            name="local",  # cell identity is campaign-name-independent
            specs=[("minimum", "auto")],
            inputs=[(7, 3)],
            engines=("python",),
            configs=(config,),
            seed=None,
        )
        run_campaign(campaign, str(tmp_path / "runs"), cache_dir=str(tmp_path / "cache"))
        _, headers, body = client.request(
            "POST", "/v1/simulate", {"spec": "minimum", "input": [7, 3], "config": FAST_CONFIG}
        )
        assert headers["x-repro-cache"] == "hit"
        assert json.loads(body)["output_mode"] == 3

    def test_second_server_on_the_root_hits_the_first_servers_miss(
        self, tmp_path, monkeypatch
    ):
        """Two live servers on one cache root see each other's writes, no restart."""
        from repro.lab import store as store_module

        committed = set()
        real_fsync = store_module.JsonlLog._fsync

        def recording_fsync(log, handle):
            real_fsync(log, handle)
            committed.add(log.path)

        monkeypatch.setattr(store_module.JsonlLog, "_fsync", recording_fsync)
        root = tmp_path / "shared"
        request = {"spec": "minimum", "input": [8, 5], "config": FAST_CONFIG}
        with ServerThread(port=0, workers=0, cache_dir=str(root)) as first, ServerThread(
            port=0, workers=0, cache_dir=str(root)
        ) as second:
            one = ServeClient("127.0.0.1", first.port)
            two = ServeClient("127.0.0.1", second.port)
            # the second server indexes the root before the first writes to it
            _, warm, _ = two.request(
                "POST", "/v1/simulate", {"spec": "minimum", "input": [2, 9], "config": FAST_CONFIG}
            )
            assert warm["x-repro-cache"] == "miss"
            _, headers1, body1 = one.request("POST", "/v1/simulate", request)
            _, headers2, body2 = two.request("POST", "/v1/simulate", request)
            assert headers1["x-repro-cache"] == "miss"
            assert headers2["x-repro-cache"] == "hit"
            assert body2 == body1
            assert two.stats()["engines"]["python"]["executed"] == 1  # its warm-up only
            assert not committed  # one put each: the group commit is still pending
        # shutting down closed each server's cache: both segments were committed
        written = {str(path) for path in root.glob("seg-*.jsonl")}
        assert len(written) == 2 and committed == written
        assert len(ResultCache(str(root))) == 2

    def test_expected_output_repeat_hits_cache(self, client):
        first = client.expected_output("minimum", [6, 9], config=FAST_CONFIG)
        before = client.stats()["cache"]["hits"]
        second = client.expected_output("minimum", [6, 9], config=FAST_CONFIG)
        assert second == first
        assert client.stats()["cache"]["hits"] == before + 1


class TestJobs:
    def test_job_round_trip_matches_in_process_campaign(self, tmp_path):
        """The 3-request acceptance: submit, poll, compare against Workbench."""
        inputs = [(3, 7), (9, 2), (5, 5)]
        config = RunConfig(trials=5, seed=None, engine="python", max_steps=200_000)

        with ServerThread(port=0, workers=2, cache_dir=str(tmp_path / "cache")) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            job = client.submit_job(
                name="acceptance",
                specs=["minimum"],
                inputs=[list(x) for x in inputs],
                engines=["python"],
                config={"trials": 5, "engine": "python", "max_steps": 200_000},
                seed=99,
            )
            assert job["state"] == "queued" and job["total"] == 3
            done = client.wait_for_job(job["id"])

        assert done["state"] == "done"
        assert done["progress"] == {
            "total": 3, "done": 3, "from_cache": 0, "executed": 3, "errors": 0,
        }

        run = Workbench(config).campaign(
            "acceptance",
            ["minimum"],
            inputs,
            engines=["python"],
            configs=[config],
            seed=99,
            out_dir=str(tmp_path / "runs"),
            cache_dir=None,
        )
        local = sorted(
            (r.deterministic_dict() for r in run.results), key=lambda r: r["cell_id"]
        )
        over_http = sorted(
            (
                {k: v for k, v in row.items() if k not in PROVENANCE_FIELDS}
                for row in done["results"]
            ),
            key=lambda r: r["cell_id"],
        )
        # Deterministic identity: same cell ids, same derived per-cell seeds,
        # same outputs — a serve job and a local campaign are the same run.
        assert canonical_json(over_http) == canonical_json(local)

    def test_job_repeat_is_served_from_cache(self, client):
        fields = dict(
            name="memo",
            specs=["minimum"],
            inputs=[[1, 4], [6, 2]],
            engines=["python"],
            config=FAST_CONFIG,
            seed=7,
        )
        first = client.wait_for_job(client.submit_job(**fields)["id"])
        second = client.wait_for_job(client.submit_job(**fields)["id"])
        assert first["progress"]["executed"] == 2
        assert second["progress"]["from_cache"] == 2
        assert second["progress"]["executed"] == 0
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in r.items() if k not in PROVENANCE_FIELDS} for r in rows
        ]
        assert strip(second["results"]) == strip(first["results"])

    def test_job_over_a_grid(self, client):
        job = client.submit_job(
            name="grid",
            specs=["minimum"],
            grid="0:3",
            engines=["python"],
            config=FAST_CONFIG,
            seed=5,
        )
        done = client.wait_for_job(job["id"])
        assert done["state"] == "done"
        assert done["progress"]["total"] == 9
        assert all(row["correct"] for row in done["results"])

    def test_job_results_can_be_suppressed_when_polling(self, client):
        import http.client

        job = client.submit_job(
            name="quiet", specs=["minimum"], inputs=[[2, 2]],
            engines=["python"], config=FAST_CONFIG, seed=1,
        )
        client.wait_for_job(job["id"])
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request(
                "GET", f"/v1/jobs/{job['id']}", headers={"X-Repro-Results": "0"}
            )
            response = connection.getresponse()
            assert response.status == 200
            assert "results" not in json.loads(response.read())
        finally:
            connection.close()

    def test_cancel_keeps_partial_results_and_settles_cancelled(self, client):
        job = client.submit_job(
            name="cancelme",
            specs=["minimum"],
            inputs=[[4000 + i, 4000] for i in range(6)],  # ~minutes of work
            engines=["python"],
            config={"trials": 10, "seed": 1, "engine": "python", "max_steps": 100_000_000},
        )
        reply = client.cancel_job(job["id"])
        assert reply["state"] in ("running", "queued", "cancelled")
        final = client.wait_for_job(job["id"])
        assert final["state"] == "cancelled"
        assert final["progress"]["done"] < final["progress"]["total"]
        # cancelling a settled job is a no-op, not an error (that an abandoned
        # in-flight cell records nothing afterwards is
        # TestJobManagerCancellation's exact check)
        assert client.cancel_job(job["id"])["state"] == "cancelled"

    def test_each_cell_is_looked_up_once(self, client):
        fields = dict(
            name="lookups", specs=["minimum"], grid="0:2", engines=["python"],
            config=FAST_CONFIG, seed=3,
        )

        def counters():
            stats = client.stats()
            return (
                stats["cache"]["hits"],
                stats["cache"]["misses"],
                stats["engines"].get("python", {}).get("executed", 0),
            )

        hits0, misses0, executed0 = counters()
        first = client.wait_for_job(client.submit_job(**fields)["id"])
        cells = first["progress"]["total"]
        hits1, misses1, executed1 = counters()
        assert (hits1 - hits0) + (misses1 - misses0) == cells
        assert executed1 - executed0 == cells

        second = client.wait_for_job(client.submit_job(**fields)["id"])
        assert second["progress"]["from_cache"] == cells
        hits2, misses2, executed2 = counters()
        assert (hits2 - hits1, misses2 - misses1) == (cells, 0)
        assert executed2 == executed1

    def test_queue_backpressure_is_429_with_retry_after(self, tmp_path):
        with ServerThread(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"), queue_limit=1
        ) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            slow = client.submit_job(
                name="occupier",
                specs=["minimum"],
                inputs=[[5000, 5000]],
                engines=["python"],
                config={"trials": 10, "seed": 1, "engine": "python", "max_steps": 100_000_000},
            )
            status, headers, body = client.request(
                "POST",
                "/v1/jobs",
                {"name": "rejected", "specs": ["minimum"], "inputs": [[1, 2]],
                 "engines": ["python"], "config": FAST_CONFIG},
            )
            assert status == 429
            assert "retry-after" in headers
            assert "queue is full" in json.loads(body)["error"]
            assert client.stats()["jobs"]["rejected"] == 1
            client.cancel_job(slow["id"])
            client.wait_for_job(slow["id"])

    def test_unknown_job_is_404(self, client):
        for method, path in (
            ("GET", "/v1/jobs/nope"),
            ("DELETE", "/v1/jobs/nope"),
            ("POST", "/v1/jobs/nope/cancel"),
        ):
            status, _, _ = client.request(method, path)
            assert status == 404


class TestJobManagerCancellation:
    """Cancellation at the :class:`~repro.serve.jobs.JobManager` level, with no timing."""

    def test_abandoned_in_flight_cell_records_nothing_after_settling(self):
        import asyncio
        import threading

        from repro.lab.campaign import Campaign
        from repro.lab.executor import run_cell
        from repro.serve.jobs import JobManager

        campaign = Campaign(
            name="abandoned",
            specs=["minimum"],
            inputs=[(1, 2), (3, 4)],
            engines=("python",),
            configs=(RunConfig(**FAST_CONFIG),),
            seed=1,
        )
        release = threading.Event()

        async def scenario():
            manager = JobManager(pool=None, cache=None, metrics=ServerMetrics())
            entered = asyncio.Event()
            stubs = []

            async def blocking_miss(cell):
                # a pool call still running when its job is cancelled
                stubs.append(asyncio.current_task())
                entered.set()
                await asyncio.get_running_loop().run_in_executor(None, release.wait)
                return run_cell(cell)

            manager._execute_miss = blocking_miss
            job = manager.submit(campaign)
            await entered.wait()
            manager.cancel(job.id)
            await asyncio.wait_for(manager._tasks[job.id], 60)
            assert job.state == "cancelled"
            settled = job.to_dict()
            release.set()
            # every stub has run to its end (or its cancellation) before the check
            await asyncio.wait(stubs)
            assert job.to_dict() == settled
            return settled

        try:
            settled = asyncio.run(scenario())
        finally:
            release.set()
        assert settled["progress"]["done"] == 0
        assert settled["results"] == []


class TestJobTableBound:
    """Settled jobs keep at most ``queue_limit`` cells; the oldest go first."""

    def test_oldest_settled_jobs_are_evicted_past_the_cell_bound(self):
        import asyncio

        from repro.lab.campaign import Campaign
        from repro.lab.executor import run_cell
        from repro.serve.jobs import JobManager

        def campaign(inputs):
            return Campaign(
                name="tiny",
                specs=["minimum"],
                inputs=inputs,
                engines=("python",),
                configs=(RunConfig(**FAST_CONFIG),),
                seed=1,
            )

        one_cell, two_cells = campaign([(1, 2)]), campaign([(1, 2), (2, 3)])

        async def scenario():
            manager = JobManager(
                pool=None, cache=None, metrics=ServerMetrics(), queue_limit=3
            )

            async def inline_miss(cell):
                return run_cell(cell)

            manager._execute_miss = inline_miss
            submitted = []
            for job_campaign in (one_cell, one_cell, one_cell, two_cells):
                job = manager.submit(job_campaign)
                submitted.append(job.id)
                await asyncio.wait_for(manager._tasks[job.id], 60)
            return manager, submitted

        manager, submitted = asyncio.run(scenario())
        # three one-cell jobs fill the bound; the two-cell job evicts two
        for evicted in submitted[:2]:
            assert manager.get(evicted) is None
            assert manager.cancel(evicted) is None
        assert list(manager.jobs) == submitted[2:]
        last = manager.get(submitted[-1])
        assert last.state == "done" and all(row.correct for row in last.results())
        assert sum(job.total for job in manager.jobs.values()) <= manager.queue_limit
        assert manager._tasks == {}
        assert manager.pending_cells == 0


class TestJobResultsStreaming:
    """``GET /v1/jobs/{id}/results`` — close-delimited NDJSON, row by row."""

    def submit_and_wait(self, client, **overrides):
        fields = dict(
            name="ndjson",
            specs=["minimum"],
            grid="0:3",
            engines=["python"],
            config=FAST_CONFIG,
            seed=5,
        )
        fields.update(overrides)
        job = client.submit_job(**fields)
        client.wait_for_job(job["id"])
        return job["id"]

    def test_stream_yields_one_row_per_cell(self, client):
        job_id = self.submit_and_wait(client)
        rows = list(client.job_results(job_id))
        assert len(rows) == 9
        assert all(row["correct"] for row in rows)
        # same rows (and order) as the buffered job payload
        assert rows == client.job(job_id)["results"]

    def test_stream_is_framed_without_content_length(self, client):
        import http.client

        job_id = self.submit_and_wait(client)
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/results")
            response = connection.getresponse()
            assert response.status == 200
            headers = {k.lower(): v for k, v in response.getheaders()}
            assert headers["content-type"] == "application/x-ndjson"
            assert headers["connection"] == "close"
            assert "content-length" not in headers  # close-delimited: no buffering
            assert headers["x-repro-job-state"] == "done"
            lines = [line for line in response.read().split(b"\n") if line]
            assert len(lines) == 9
            for line in lines:
                json.loads(line)
        finally:
            connection.close()

    def test_deterministic_stream_matches_local_campaign(self, client, tmp_path):
        from repro.lab.campaign import Campaign, run_campaign

        config = RunConfig(
            trials=FAST_CONFIG["trials"],
            seed=FAST_CONFIG["seed"],
            engine="python",
            max_steps=FAST_CONFIG["max_steps"],
        )
        campaign = Campaign(
            name="ndjson",
            specs=[("minimum", "auto")],
            inputs=[(2, 6), (8, 1)],
            engines=("python",),
            configs=(config,),
            seed=13,
        )
        local = run_campaign(campaign, str(tmp_path / "runs"), cache_dir=None)
        job_id = self.submit_and_wait(
            client, grid=None, inputs=[[2, 6], [8, 1]], seed=13
        )
        streamed = list(client.job_results(job_id, deterministic=True))
        assert [canonical_json(row) for row in streamed] == [
            canonical_json(r.deterministic_dict()) for r in local.results
        ]

    def test_unknown_job_stream_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            list(client.job_results("nope"))
        assert excinfo.value.status == 404


class TestSharedDirJobs:
    """Jobs with ``backend: shared-dir`` fan out to external worker processes."""

    def test_shared_dir_job_completes_via_external_worker(self, tmp_path):
        import threading

        from repro.lab.backends import worker_loop

        queue_dir = str(tmp_path / "queue")
        # workers=0: the server has no pool of its own — every cell must be
        # executed by the external worker serving the queue directory
        with ServerThread(port=0, workers=0, cache_dir=str(tmp_path / "cache")) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            before = client.stats()["cache"]
            job = client.submit_job(
                name="sharded",
                specs=["minimum"],
                grid="0:3",
                engines=["python"],
                config=FAST_CONFIG,
                seed=5,
                backend="shared-dir",
                queue_dir=queue_dir,
            )
            assert job["backend"] == "shared-dir"
            worker = threading.Thread(
                target=worker_loop,
                kwargs=dict(queue_dir=queue_dir, worker_id="ext", max_idle=60.0),
                daemon=True,
            )
            worker.start()
            done = client.wait_for_job(job["id"], timeout=120)
            # worker stats are read per request and published by the worker's
            # first empty claim after its last cell: they become final
            # without waiting for the worker to exit
            deadline = time.monotonic() + 60
            while client.job(job["id"])["backend"]["workers"]["ext"]["executed"] < 9:
                assert time.monotonic() < deadline, "worker stats never caught up"
                time.sleep(0.02)
            worker.join(timeout=120)
            streamed = list(client.job_results(job["id"], deterministic=True))
            after = client.stats()["cache"]

        assert done["state"] == "done"
        assert done["progress"]["executed"] == 9
        # one memo lookup per job cell; the queue's descriptor lookups (the
        # coordinator's enqueue, the in-process worker's claims) are not
        # result-cache traffic
        assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (0, 9)
        assert done["backend"]["queue_dir"] == queue_dir
        assert "ext" in done["backend"]["workers"]  # published at session start
        assert len(streamed) == 9

        # deterministic identity with an in-process run of the same grid
        from repro.lab.campaign import Campaign, SweepGrid, run_campaign

        config = RunConfig(
            trials=FAST_CONFIG["trials"],
            seed=FAST_CONFIG["seed"],
            engine="python",
            max_steps=FAST_CONFIG["max_steps"],
        )
        campaign = Campaign(
            name="sharded",
            specs=[("minimum", "auto")],
            inputs=SweepGrid.parse("0:3", dimension=2),
            engines=("python",),
            configs=(config,),
            seed=5,
        )
        local = run_campaign(campaign, str(tmp_path / "runs"), cache_dir=None)
        assert [canonical_json(row) for row in streamed] == [
            canonical_json(r.deterministic_dict()) for r in local.results
        ]

    def test_cancelled_shared_dir_job_ignores_later_rows(self, tmp_path):
        from repro.lab.backends import worker_loop
        from repro.serve.jobs import SHARED_DIR_POLL

        queue_dir = str(tmp_path / "queue")
        srv = ServerThread(port=0, workers=0, cache_dir=str(tmp_path / "cache"))
        with srv:
            client = ServeClient("127.0.0.1", srv.port)
            job = client.submit_job(
                name="abandoned", specs=["minimum"], grid="0:3",
                engines=["python"], config=FAST_CONFIG, seed=5,
                backend="shared-dir", queue_dir=queue_dir,
            )
            # no worker serves the queue, so only the cancel can settle it
            cancelled_at = time.monotonic()
            client.cancel_job(job["id"])
            final = client.wait_for_job(job["id"], timeout=10)
            assert final["state"] == "cancelled"
            assert time.monotonic() - cancelled_at < 1.0
            assert final["progress"]["done"] == 0

            stats = worker_loop(queue_dir, worker_id="late", poll=0.02, max_idle=5.0)
            assert stats["executed"] == final["progress"]["total"]
            time.sleep(2 * SHARED_DIR_POLL)  # two polls, had the job kept polling
            assert client.job(job["id"])["progress"] == final["progress"]
            exiting_at = time.monotonic()
        assert time.monotonic() - exiting_at < 5.0

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"backend": "shared-dir"}, "queue_dir"),
            ({"backend": "warp", "queue_dir": "/tmp/q"}, "'backend'"),
            ({"backend": "local", "queue_dir": "/tmp/q"}, "queue_dir"),
            ({"queue_dir": ""}, "queue_dir"),
        ],
    )
    def test_backend_rejections_name_the_field(self, client, payload, fragment):
        body_fields = {
            "name": "bad", "specs": ["minimum"], "inputs": [[1, 2]],
            "engines": ["python"], "config": FAST_CONFIG,
        }
        body_fields.update(payload)
        status, _, body = client.request("POST", "/v1/jobs", body_fields)
        assert status == 400, body
        assert fragment in json.loads(body)["error"]


class TestValidation:
    """Every bad request is a 400 whose message names the offending field."""

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"input": [1, 2]}, "'spec'"),
            ({"spec": "nope", "input": [1]}, "unknown spec 'nope'"),
            ({"spec": "minimum"}, "'input'"),
            ({"spec": "minimum", "input": [1]}, "2"),  # wrong arity names the dimension
            ({"spec": "minimum", "input": [1, -2]}, "'input'[1]"),
            ({"spec": "minimum", "input": [1, "x"]}, "'input'[1]"),
            ({"spec": "minimum", "input": [1, 2], "config": {"bogus": 1}}, "'bogus'"),
            ({"spec": "minimum", "input": [1, 2], "config": {"trials": 0}}, "trials"),
            ({"spec": "minimum", "input": [1, 2], "config": {"trials": True}}, "trials"),
            ({"spec": "minimum", "input": [1, 2], "config": {"max_steps": True}}, "max_steps"),
            (
                {"spec": "minimum", "input": [1, 2], "config": {"quiescence_window": True}},
                "quiescence_window",
            ),
            ({"spec": "minimum", "input": [1, 2], "config": {"seed": "x"}}, "seed"),
            ({"spec": "minimum", "input": [1, 2], "strategy": ""}, "'strategy'"),
            ({"spec": "minimum", "input": [1, 2], "config": {"engine": "warp"}}, "warp"),
            ({"spec": {"name": "minimum", "dimension": 3}, "input": [1, 2]}, "'dimension'"),
            ({"spec": {"name": "minimum", "fingerprint": "00"}, "input": [1, 2]}, "'fingerprint'"),
        ],
    )
    def test_simulate_rejections_name_the_field(self, client, payload, fragment):
        status, _, body = client.request("POST", "/v1/simulate", payload)
        assert status == 400, body
        assert fragment in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"specs": ["minimum"], "inputs": [[1, 2]], "grid": "0:2"}, "exactly one"),
            ({"specs": ["minimum"]}, "inputs"),
            ({"specs": [], "inputs": [[1, 2]]}, "'specs'"),
            ({"specs": ["minimum"], "inputs": [[1, 2]], "engines": ["warp"]}, "warp"),
        ],
    )
    def test_job_rejections_name_the_field(self, client, payload, fragment):
        status, _, body = client.request("POST", "/v1/jobs", payload)
        assert status == 400, body
        assert fragment in json.loads(body)["error"]

    def test_body_must_be_json(self, client):
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request(
                "POST", "/v1/simulate", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_unknown_path_is_404_and_wrong_method_405(self, client):
        assert client.request("GET", "/v1/nowhere")[0] == 404
        assert client.request("PATCH", "/v1/stats")[0] == 405
        assert client.request("GET", "/v1/simulate")[0] == 405

    def test_client_raises_typed_errors(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.simulate("nope", [1])
        assert excinfo.value.status == 400


class TestStats:
    def test_stats_shape(self, client):
        client.simulate("minimum", [2, 3], config=FAST_CONFIG)
        stats = client.stats()
        assert set(stats) >= {"uptime_s", "cache", "engines", "requests", "jobs", "server"}
        assert stats["server"]["workers"] == 1
        assert stats["cache"]["enabled"] is True
        simulate = stats["requests"]["POST /v1/simulate"]
        assert simulate["count"] == 1
        assert simulate["by_status"] == {"200": 1}
        assert simulate["latency"]["p50_ms"] > 0

    def test_metrics_snapshot_empty(self):
        snap = ServerMetrics().snapshot()
        assert snap["cache"] == {"hits": 0, "misses": 0, "hit_rate": None}
        assert snap["requests"] == {}

    def test_snapshot_has_uptime_s_and_all_job_events(self):
        from repro.serve.metrics import JOB_EVENTS

        snap = ServerMetrics().snapshot()
        assert snap["uptime_s"] >= 0
        assert set(snap["jobs"]) == set(JOB_EVENTS)
        assert all(count == 0 for count in snap["jobs"].values())

    def test_stats_includes_provenance_manifest(self, client):
        from repro import __version__
        from repro.lab.cache import CODE_SALT

        stats = client.stats()
        provenance = stats["provenance"]
        assert provenance["schema"] == "repro-provenance-v1"
        assert provenance["version"] == __version__
        assert provenance["code_salt"] == CODE_SALT
        assert stats["version"] == __version__

    def test_unknown_paths_cannot_mint_endpoint_labels(self, client):
        from repro.serve.handlers import _FIXED_ROUTES, _JOB_ROUTES

        for i in range(200):
            assert client.request("GET", f"/random/{i}")[0] == 404
            assert client.request("GET", f"/v1/jobs/nope{i}")[0] == 404
        stats = client.stats()
        assert len(stats["requests"]) <= len(_FIXED_ROUTES) + len(_JOB_ROUTES) + 1
        # a handler's own 404 keeps its route template
        assert stats["requests"]["GET /v1/jobs/{id}"]["by_status"] == {"404": 200}
        assert stats["requests"][UNMATCHED]["by_status"] == {"404": 200}
        metrics = client.request("GET", "/v1/metrics")[2].decode("utf-8")
        assert "nope" not in metrics and "/random" not in metrics

    def test_unparseable_requests_are_recorded_as_unmatched(self, server, client):
        # A request line read_request cannot parse gets its 400 before any
        # route exists; it still counts, under the one unmatched label.
        for _ in range(3):
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.sendall(b"GARBAGE\r\n\r\n")
                with sock.makefile("rb") as reply:
                    assert reply.readline().startswith(b"HTTP/1.1 400")
        stats = client.stats()
        assert stats["requests"][UNMATCHED]["by_status"] == {"400": 3}
        metrics = client.request("GET", "/v1/metrics")[2].decode("utf-8")
        assert (
            f'repro_http_requests_total{{endpoint="{UNMATCHED}",status="400"}} 3'
            in metrics.splitlines()
        )

    def test_version_is_reported_once(self, client):
        from repro import __version__

        stats = client.stats()
        assert stats["version"] == __version__
        assert "version" not in stats["server"]

    def test_handler_exceptions_keep_their_route_template(self, client, monkeypatch):
        from repro.serve.jobs import JobManager

        def broken(self, job_id):
            raise RuntimeError("boom")

        monkeypatch.setattr(JobManager, "get", broken)
        status, _, body = client.request("GET", "/v1/jobs/abc123")
        assert status == 500 and "boom" in json.loads(body)["error"]
        assert client.stats()["requests"]["GET /v1/jobs/{id}"]["by_status"] == {"500": 1}


class TestPrometheusEndpoint:
    def test_metrics_text_parses_and_matches_stats(self, client):
        request = {"spec": "minimum", "input": [3, 5], "config": FAST_CONFIG}
        client.request("POST", "/v1/simulate", request)  # miss, populates memo
        client.request("POST", "/v1/simulate", request)  # hit
        status, headers, body = client.request("GET", "/v1/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")

        # every non-comment line must parse as `name{labels} value`
        parsed = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            float(value)  # must be a number (or would raise)
            parsed[name_and_labels] = value
        assert 'repro_result_cache_requests_total{result="hit"}' in parsed
        assert parsed['repro_result_cache_requests_total{result="hit"}'] == "1"
        assert (
            parsed['repro_http_requests_total{endpoint="POST /v1/simulate",status="200"}']
            == "2"
        )
        assert "repro_server_uptime_seconds" in parsed

        # same registry as /v1/stats: the JSON view must agree
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["requests"]["POST /v1/simulate"]["count"] == 2

    def test_stats_latency_quantiles_equal_the_scraped_histogram(self, client):
        import re

        for seed in (1, 2, 1, 2, 1):  # misses, then memo hits
            client.simulate("minimum", [3, 5], config=dict(FAST_CONFIG, seed=seed))
        for _ in range(5):
            client.health()
        client.request("GET", "/v1/engines")
        client.request("GET", "/v1/nowhere")
        client.request("POST", "/v1/simulate", {"spec": "nope", "input": [1]})
        text = client.request("GET", "/v1/metrics")[2].decode("utf-8")
        stats = client.stats()

        buckets, sums = {}, {}
        pattern = r'repro_http_request_seconds_(bucket|sum)\{endpoint="([^"]*)"(?:,le="([^"]*)")?\} (\S+)'
        for kind, endpoint, le, value in re.findall(pattern, text):
            if kind == "bucket":
                buckets.setdefault(endpoint, []).append((float(le), int(value)))
            else:
                sums[endpoint] = float(value)
        # the scrape is rendered before its own request is recorded
        assert set(stats["requests"]) == set(buckets) | {"GET /v1/metrics"}
        assert {"POST /v1/simulate", "GET /v1/health", UNMATCHED} <= set(buckets)

        def histogram_quantile(pairs, q):
            rank = q * pairs[-1][1]
            lower, below = 0.0, 0
            for bound, cumulative in pairs:
                if cumulative >= rank and cumulative > below:
                    break
                lower, below = bound, cumulative
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (rank - below) / (cumulative - below)

        for endpoint, pairs in buckets.items():
            latency = stats["requests"][endpoint]["latency"]
            count = pairs[-1][1]
            assert stats["requests"][endpoint]["count"] == count
            for key, q in (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)):
                assert latency[key] == round(histogram_quantile(pairs, q) * 1000, 3), endpoint
            assert latency["mean_ms"] == round(sums[endpoint] / count * 1000, 3)

    def test_metrics_rejects_other_methods(self, client):
        assert client.request("POST", "/v1/metrics")[0] == 405


class TestServerModes:
    def test_workers_zero_uses_thread_executor(self, tmp_path):
        with ServerThread(port=0, workers=0, cache_dir=str(tmp_path / "cache")) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            row = client.simulate("minimum", [4, 6], config=FAST_CONFIG)
            assert row["output_mode"] == 4
            assert client.stats()["server"]["workers"] == 0

    def test_cache_disabled_still_serves_identical_bodies(self):
        with ServerThread(port=0, workers=0, cache_dir=None) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            request = {"spec": "minimum", "input": [4, 6], "config": FAST_CONFIG}
            _, headers1, body1 = client.request("POST", "/v1/simulate", request)
            _, headers2, body2 = client.request("POST", "/v1/simulate", request)
            # no cache: both are misses, but seeded determinism still yields
            # byte-identical bodies
            assert headers1["x-repro-cache"] == headers2["x-repro-cache"] == "miss"
            assert body1 == body2
            assert client.stats()["cache"]["enabled"] is False

    def test_keep_alive_reuses_one_connection(self, server):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(3):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ReproServer(workers=-1)


class TestSingleCell:
    """A simulate request's cell is the one-cell campaign's cell, by construction."""

    def test_single_cell_equals_the_one_cell_campaign_expansion(self):
        import random

        from repro.lab.campaign import Campaign, resolve_spec, spec_factory_names
        from repro.serve.jobs import single_cell
        from repro.sim.registry import engine_names

        rng = random.Random(2606)
        specs = spec_factory_names()
        engines = ("auto",) + engine_names()
        for _ in range(300):
            name = rng.choice(specs)
            # populations on both sides of the approximate engines' 10^4 floor
            top = rng.choice((30, 40_000))
            x = tuple(rng.randrange(top) for _ in range(resolve_spec(name).dimension))
            config = RunConfig(
                trials=rng.choice((1, 4, 32, 400)),
                seed=rng.choice((None, rng.getrandbits(40))),
                engine=rng.choice(engines),
                allow_approximate=rng.random() < 0.5,
            )
            strategy = rng.choice(("auto", "general"))
            campaign = Campaign(
                name="serve", specs=[(name, strategy)], inputs=[x],
                engines=(config.engine,), configs=(config,), seed=None,
            )
            [expected] = campaign.expand()
            assert single_cell(name, strategy, x, config) == expected

    def test_replacing_a_spec_factory_changes_the_next_requests_cell(self):
        from repro.functions.catalog import maximum_spec, minimum_spec
        from repro.lab import campaign as lab_campaign
        from repro.lab.cache import spec_fingerprint
        from repro.lab.campaign import register_spec_factory

        name = "serve-test-swapped"
        register_spec_factory(name, minimum_spec)
        try:
            # workers=0: the cells run in this process, where the swap happens
            with ServerThread(port=0, workers=0, cache_dir=None) as srv:
                client = ServeClient("127.0.0.1", srv.port)
                before = (
                    client.compile(name)["fingerprint"],
                    client.simulate(name, [3, 5], config=FAST_CONFIG),
                )
                register_spec_factory(name, maximum_spec, replace=True)
                after = (
                    client.compile(name)["fingerprint"],
                    client.simulate(name, [3, 5], config=FAST_CONFIG),
                )
        finally:
            for registry in (
                lab_campaign._SPEC_FACTORIES,
                lab_campaign._SPEC_INSTANCES,
                lab_campaign._SPEC_FINGERPRINTS,
            ):
                registry.pop(name, None)
        assert before[0] == spec_fingerprint(minimum_spec())
        assert after[0] == spec_fingerprint(maximum_spec())
        assert after[1]["cell_id"] != before[1]["cell_id"]
        assert (before[1]["output_mode"], after[1]["output_mode"]) == (3, 5)


class TestWorkerPool:
    """The pipe pool on its own: errors travel back, cancelled calls keep their slot."""

    def test_a_worker_exception_is_raised_in_the_caller(self):
        import asyncio

        from repro.lab.pool import WorkerPool

        async def scenario():
            pool = WorkerPool(1)
            try:
                with pytest.raises(ValueError, match="invalid literal"):
                    await pool.run(int, "seven")
                return await pool.run(int, "7")  # the same worker serves on
            finally:
                await pool.shutdown()

        assert asyncio.run(scenario()) == 7

    def test_a_cancelled_call_holds_its_slot_until_the_stale_reply_lands(self):
        import asyncio

        from repro.lab.pool import WorkerPool

        read_end, write_end = os.pipe()  # the worker blocks reading it until released

        async def scenario():
            pool = WorkerPool(1)
            try:
                blocked = asyncio.ensure_future(pool.run(os.read, read_end, 1))
                await asyncio.sleep(0)  # the call is sent and awaits its reply
                blocked.cancel()
                queued = asyncio.ensure_future(pool.run(os.getpid))
                for _ in range(10):
                    await asyncio.sleep(0)
                assert blocked.cancelled() and not queued.done()
                os.write(write_end, b"x")  # the stale reply lands; the slot frees
                assert await queued == pool.pids[0]
            finally:
                await pool.shutdown()

        try:
            asyncio.run(scenario())
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_a_death_on_a_dropped_call_leaves_the_next_call_both_attempts(self, tmp_path):
        import asyncio

        from repro.lab.pool import WorkerPool

        restarts = []

        async def scenario():
            pool = WorkerPool(1, on_restart=lambda: restarts.append(1))
            try:
                dropped = asyncio.ensure_future(pool.run(os._exit, 3))
                await asyncio.sleep(0)  # the call is sent and awaits its reply
                dropped.cancel()
                # Its worker's death must not count against this call, which kills
                # one fresh worker and answers on the next.
                pid = await pool.run(_exit_unless_marked, str(tmp_path / "marker"))
                assert pool.pids == [pid] and len(restarts) == 2
            finally:
                await pool.shutdown()

        asyncio.run(scenario())

    def test_an_idle_worker_of_an_older_generation_is_replaced_without_a_restart(
        self, monkeypatch
    ):
        import asyncio

        from repro.lab import pool as pool_module
        from repro.lab.pool import WorkerPool

        generation, restarts = [0], []
        monkeypatch.setattr(pool_module, "registration_generations", lambda: generation[0])

        async def scenario():
            pool = WorkerPool(1, on_restart=lambda: restarts.append(1))
            try:
                first = await pool.run(os.getpid)
                assert await pool.run(os.getpid) == first  # same generation: kept
                generation[0] += 1
                second = await pool.run(os.getpid)
                return first, second, pool.pids
            finally:
                await pool.shutdown()

        first, second, pids = asyncio.run(scenario())
        assert first != second and pids == [second]
        assert restarts == []

    def test_shutdown_kills_a_busy_worker_without_waiting_for_it(self):
        import asyncio

        from repro.lab import pool as pool_module

        async def scenario():
            pool = pool_module.WorkerPool(1)
            busy = asyncio.ensure_future(pool.run(time.sleep, 60))
            await asyncio.sleep(0)
            busy.cancel()
            started = time.monotonic()
            await pool.shutdown()
            return time.monotonic() - started

        assert asyncio.run(scenario()) < pool_module._JOIN_S

    def test_a_worker_whose_server_end_closed_mid_call_exits_quietly(self):
        import multiprocessing

        from repro.lab.pool import _worker_main

        context = multiprocessing.get_context("fork")
        parent, child = context.Pipe()
        read_end, write_end = os.pipe()
        worker = context.Process(target=_worker_main, args=(child, [parent]))
        worker.start()
        child.close()
        try:
            parent.send((os.read, (read_end, 1)))
            parent.close()  # the server is gone while the call runs
            os.write(write_end, b"x")  # the call returns; its reply has nowhere to go
            worker.join(30)
            assert worker.exitcode == 0
        finally:
            if worker.exitcode is None:
                worker.kill()
                worker.join()
            worker.close()
            os.close(read_end)
            os.close(write_end)


class TestDeadWorkers:
    """A worker that dies is replaced; no test here waits on process start-up."""

    @staticmethod
    def _restarts(client):
        metrics = client.request("GET", "/v1/metrics")[2].decode("utf-8").splitlines()
        [line] = [line for line in metrics if line.startswith("repro_pool_worker_restarts_total ")]
        assert float(line.split()[1]) == client.stats()["worker_restarts"]
        return client.stats()["worker_restarts"]

    def test_sigkilled_worker_is_replaced_and_the_answer_is_unchanged(self, tmp_path):
        request = {"spec": "minimum", "input": [6, 4], "config": FAST_CONFIG}
        with ServerThread(port=0, workers=1, cache_dir=str(tmp_path / "fresh")) as fresh:
            _, _, expected = ServeClient("127.0.0.1", fresh.port).request(
                "POST", "/v1/simulate", request
            )
        with ServerThread(port=0, workers=1, cache_dir=str(tmp_path / "cache")) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            client.simulate("minimum", [1, 2], config=FAST_CONFIG)  # forks the worker
            pool = srv.server.state.pool
            [pid] = pool.pids
            assert self._restarts(client) == 0
            os.kill(pid, signal.SIGKILL)
            status, headers, body = client.request("POST", "/v1/simulate", request)
            assert (status, headers["x-repro-cache"]) == (200, "miss")
            assert body == expected
            assert client.health()["status"] == "ok"
            assert len(pool.pids) == 1 and pool.pids != [pid]
            assert self._restarts(client) == 1

    def test_worker_killed_by_its_input_fails_that_request_only(self, tmp_path):
        from repro.sim.registry import get_engine, register_engine, unregister_engine

        python = get_engine("python").implementation

        class DiesOnSevens:
            def run_many(self, crn, x, config):
                if tuple(x) == (7, 7):
                    os._exit(3)
                return python.run_many(crn, x, config)

            def estimate_expected_output(self, crn, x, config):
                return python.estimate_expected_output(crn, x, config)

        register_engine("serve-test-dies-on-sevens")(DiesOnSevens)
        config = dict(FAST_CONFIG, engine="serve-test-dies-on-sevens")
        try:
            with ServerThread(port=0, workers=1, cache_dir=str(tmp_path / "cache")) as srv:
                client = ServeClient("127.0.0.1", srv.port)
                status, _, body = client.request(
                    "POST", "/v1/simulate", {"spec": "minimum", "input": [7, 7], "config": config}
                )
                assert status == 500
                error = json.loads(body)["error"]
                assert "WorkerDied" in error and "run_cell" in error
                assert self._restarts(client) == 2  # the worker, then its one retry
                row = client.simulate("minimum", [3, 5], config=config)
                assert row["output_mode"] == 3
                assert self._restarts(client) == 2
        finally:
            unregister_engine("serve-test-dies-on-sevens")


class TestStaleWorkers:
    """A re-registration reaches the pool: idle workers forked before it are replaced."""

    def test_a_reregistered_spec_answers_from_a_fresh_worker(self, tmp_path):
        from repro.functions.catalog import maximum_spec, minimum_spec
        from repro.lab.campaign import register_spec_factory
        from repro.serve.jobs import single_cell

        cache_dir = str(tmp_path / "cache")
        with ServerThread(port=0, workers=1, cache_dir=cache_dir) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            before = client.simulate("minimum", [3, 5], config=FAST_CONFIG)  # forks the worker
            [pid] = srv.server.state.pool.pids
            register_spec_factory("minimum", maximum_spec, replace=True)
            try:
                after = client.simulate("minimum", [3, 5], config=FAST_CONFIG)
                cell = single_cell("minimum", "auto", (3, 5), RunConfig.from_dict(after["config"]))
                published = ResultCache(cache_dir).get(cell.cache_key())  # reads only
            finally:
                register_spec_factory("minimum", minimum_spec, replace=True)
            pids = srv.server.state.pool.pids
            restarts = client.stats()["worker_restarts"]
        assert (before["expected"], before["output_mode"]) == (3, 3)
        assert (after["expected"], after["output_mode"], after["correct"]) == (5, 5, True)
        assert cell.cell_id == after["cell_id"] != before["cell_id"]
        assert published["output_mode"] == 5
        assert len(pids) == 1 and pids != [pid]
        assert restarts == 0  # a replaced stale worker is not a restart


class TestConnectionDrain:
    """A drain's cancel that lands while a connection is closing, with no timing."""

    def test_cancel_during_close_finishes_cleanly(self):
        import asyncio

        class BlockingWriter:
            """Closes at once, but ``wait_closed`` waits until cancelled."""

            def __init__(self):
                self.closed = False
                self.waiting = asyncio.Event()

            def close(self):
                self.closed = True

            async def wait_closed(self):
                self.waiting.set()
                await asyncio.Event().wait()

        server = ReproServer(workers=0, cache_dir=None)

        async def scenario():
            handled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: handled.append(context)
            )
            reader = asyncio.StreamReader()
            reader.feed_eof()  # the client hung up
            writer = BlockingWriter()
            task = asyncio.ensure_future(server._serve_connection(reader, writer))
            # What asyncio.start_server's done callback does with the task.
            task.add_done_callback(lambda done: done.exception())
            await writer.waiting.wait()
            task.cancel()  # what stop() does to every open connection
            await asyncio.wait([task])
            await asyncio.sleep(0)  # the done callbacks run
            return task, writer, handled

        task, writer, handled = asyncio.run(scenario())
        assert writer.closed
        assert not task.cancelled() and task.exception() is None
        assert handled == []
        assert not server._connections


class TestCliServe:
    def test_serve_boots_answers_and_drains_on_sigterm(self, tmp_path):
        import urllib.request

        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
             "--cache-dir", str(tmp_path / "cache")],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            announce = proc.stdout.readline()
            assert "repro.serve listening on http://127.0.0.1:" in announce
            port = int(announce.split("http://127.0.0.1:")[1].split(" ")[0])
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/health", timeout=30
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert "draining" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

    def test_sigterm_after_a_keep_alive_client_closes_drains_cleanly(self, tmp_path):
        # The client's close and the drain's cancel race for the connection's
        # close; whichever wins, the server exits 0 with no traceback.
        import http.client

        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "0",
             "--no-cache"],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            announce = proc.stdout.readline()
            assert "repro.serve listening on http://127.0.0.1:" in announce
            port = int(announce.split("http://127.0.0.1:")[1].split(" ")[0])
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            assert response.getheader("Connection", "keep-alive") != "close"
            assert json.loads(response.read())["status"] == "ok"
            connection.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            output = proc.stdout.read()
            assert "draining" in output
            assert "Traceback" not in output, output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
