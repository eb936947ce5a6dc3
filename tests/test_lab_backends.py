"""Distributed work-queue backends: lease protocol, shard merge, serial identity.

The correctness story under test: cells are deterministic and content
addressed, so *claims* only prevent duplicate work (never duplicate rows) and
the merged view of any number of worker shards — including after a worker is
SIGKILLed mid-run and its cells reclaimed — is canonical-JSON-identical to a
serial run of the same campaign.
"""

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import glob

import pytest

from repro.api.config import RunConfig
from repro.lab import backends
from repro.lab import store as store_module
from repro.lab.backends import (
    DEFAULT_LEASE_TTL,
    SharedDirBackend,
    SharedDirQueue,
    cell_from_dict,
    cell_to_dict,
    worker_loop,
)
from repro.lab.campaign import Campaign, SweepGrid, run_campaign
from repro.lab.cache import ResultCache
from repro.lab.executor import SerialExecutor
from repro.obs.metrics import global_registry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def tiny_campaign(seed=7, grid="0:3", name="backend-test"):
    return Campaign(
        name=name,
        specs=["minimum"],
        inputs=SweepGrid.parse(grid, dimension=2),
        engines=("python",),
        configs=(RunConfig(trials=2),),
        seed=seed,
    )


class FakeClock:
    """Stands in for :func:`repro.lab.backends.now`: time moves only on demand."""

    def __init__(self):
        self.t = time.time()

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(backends, "now", fake)
    return fake


def descriptor_lines(root):
    """Every line of the queue's descriptor segments, parsed."""
    lines = []
    for path in sorted(glob.glob(os.path.join(str(root), "cells", "seg-*.jsonl"))):
        with open(path, "rb") as handle:
            lines.extend(json.loads(line) for line in handle)
    return lines


def run_one(cell):
    (row,) = SerialExecutor().map([cell])
    return row


def canonical(rows):
    return [
        json.dumps(r.deterministic_dict(), sort_keys=True, separators=(",", ":"))
        for r in rows
    ]


class TestCellSerialization:
    def test_round_trip(self):
        for cell in tiny_campaign().expand():
            rebuilt = cell_from_dict(json.loads(json.dumps(cell_to_dict(cell))))
            assert rebuilt == cell
            assert rebuilt.cell_id == cell.cell_id
            assert rebuilt.cache_key() == cell.cache_key()


class TestSharedDirQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign().expand()
        assert queue.enqueue(cells) == len(cells)
        assert queue.enqueue(cells) == 0  # the seal already lists every id
        assert queue.sealed()
        assert set(queue.manifest()["cell_ids"]) == {c.cell_id for c in cells}

    def test_enqueue_twice_writes_each_descriptor_once(self, tmp_path):
        root = tmp_path / "q"
        queue = SharedDirQueue(str(root))
        cells = tiny_campaign().expand()
        assert queue.enqueue(cells) == len(cells)
        sealed = queue.manifest()["cell_ids"]
        # the same producer, and a fresh one with an empty index
        assert queue.enqueue(cells) == 0
        assert SharedDirQueue(str(root)).enqueue(cells) == 0
        assert queue.manifest()["cell_ids"] == sealed
        # the memo is the work list: enqueue creates no per-cell entry
        assert sorted(os.listdir(root)) == [
            "cells", "done", "leases", "queue.json", "results", "stats", "traces"
        ]
        for kind in ("leases", "done"):
            assert os.listdir(root / kind) == []
        keys = [entry["k"] for entry in descriptor_lines(root)]
        assert sorted(keys) == sorted(c.cell_id for c in cells)
        assert [entry["v"] for entry in descriptor_lines(root)] == [
            cell_to_dict(c) for c in cells
        ]
        # descriptors live only in the memo: no per-cell files
        assert not [name for name in os.listdir(root / "cells") if name.endswith(".json")]

    def test_enqueue_refreshes_the_descriptor_index_once(self, tmp_path, monkeypatch):
        # a long-lived queue dir holds one segment per producer; enqueue must
        # not rescan them once per missing descriptor
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:4").expand()
        for start in range(0, 8, 2):
            SharedDirQueue(root).enqueue(cells[start : start + 2])
        refreshes = []
        real_refresh = ResultCache._refresh
        monkeypatch.setattr(
            ResultCache, "_refresh", lambda self: refreshes.append(1) or real_refresh(self)
        )
        assert SharedDirQueue(root).enqueue(cells) == len(cells) - 8
        assert len(refreshes) == 1
        assert len(descriptor_lines(root)) == len(cells)

    def test_overlapping_producers_share_one_queue(self, tmp_path):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:4").expand()
        first, second = SharedDirQueue(root), SharedDirQueue(root)
        first.enqueue(cells[:10])
        second.enqueue(cells[6:])
        # the second producer finds the overlap in the first one's segment
        assert len(descriptor_lines(root)) == len(cells)
        assert set(first.manifest()["cell_ids"]) == {c.cell_id for c in cells}
        worker = SharedDirQueue(root)
        claimed = []
        while True:
            cell = worker.claim("w")
            if cell is None:
                break
            claimed.append(cell.cell_id)
            worker.complete(cell.cell_id, "w", run_one(cell))
        assert sorted(claimed) == sorted(c.cell_id for c in cells)
        merged = worker.merged_rows()
        serial = list(SerialExecutor().map(cells))
        assert canonical(merged[c.cell_id] for c in cells) == canonical(serial)

    def test_concurrent_producers_lose_no_cell(self, tmp_path):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:4").expand()
        halves = [cells[::2], cells[1::2]]
        producers = [SharedDirQueue(root) for _ in halves]
        # both producers read the old seal before either replaces it, so the
        # seal keeps one producer's ids; the memo keeps every descriptor
        both_read = threading.Barrier(len(producers), timeout=30)
        for producer in producers:

            def manifest(_read=producer.manifest):
                seal = _read()
                both_read.wait()
                return seal

            producer.manifest = manifest
        threads = [
            threading.Thread(target=producer.enqueue, args=(half,))
            for producer, half in zip(producers, halves)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(descriptor_lines(root)) == len(cells)
        assert len(SharedDirQueue(root).manifest()["cell_ids"]) < len(cells)
        worker = SharedDirQueue(root)
        assert not worker.all_done()
        claimed = []
        while True:
            cell = worker.claim("w")
            if cell is None:
                break
            claimed.append(cell.cell_id)
            worker.complete(cell.cell_id, "w", run_one(cell))
        assert sorted(claimed) == sorted(c.cell_id for c in cells)
        assert worker.all_done()

    @pytest.mark.parametrize("path", ["claim", "reclaim"])
    def test_failed_lease_write_is_retried_by_the_next_claim(
        self, tmp_path, monkeypatch, clock, path
    ):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        if path == "reclaim":
            assert queue.claim("dying-worker") == cell
            clock.advance(DEFAULT_LEASE_TTL + 1)
        writer = "_create_exclusive" if path == "claim" else "write_json"

        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(backends, writer, disk_full)
            assert queue.claim("w") is None
        # the disk has room again: the same instance claims the cell
        assert queue.claim("w") == cell

    @pytest.mark.parametrize("damage", ["garbage", "torn"])
    def test_unreadable_descriptor_drops_the_lease(self, tmp_path, damage):
        root = tmp_path / "q"
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        SharedDirQueue(str(root)).enqueue([cell])
        (segment,) = glob.glob(str(root / "cells" / "seg-*.jsonl"))
        with open(segment, "rb") as handle:
            line = handle.read()
        with open(segment, "wb") as handle:
            if damage == "garbage":
                handle.write(b'{"k":"%s","v":[}\n' % cell.cell_id.encode())
            else:
                handle.write(line[: len(line) // 2])
        queue = SharedDirQueue(str(root))
        assert queue.claim("w") is None
        for kind in ("leases", "done"):
            assert os.listdir(root / kind) == []
        assert not queue.all_done()
        # a re-enqueue republishes the descriptor (the seal already lists the
        # id), and even the worker that failed to load it can claim it now
        assert SharedDirQueue(str(root)).enqueue([cell]) == 0
        assert queue.claim("w") == cell

    def test_descriptor_traffic_is_not_result_cache_traffic(self, tmp_path):
        requests = global_registry().counter(
            "repro_result_cache_requests_total",
            "ResultCache.get outcomes by result (hit/miss).",
            labels=("result",),
        )

        def counts():
            return tuple(requests.labels(result=r).value for r in ("hit", "miss"))

        before = counts()
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign().expand()
        queue.enqueue(cells)
        queue.enqueue(cells)
        assert queue.claim("w") is not None
        assert counts() == before

    def test_claim_is_exclusive_and_exhaustive(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign().expand()
        queue.enqueue(cells)
        claimed = []
        # two workers alternate claims; every cell must be handed out exactly once
        while True:
            cell = queue.claim("worker-a") or queue.claim("worker-b")
            if cell is None:
                break
            claimed.append(cell.cell_id)
        assert sorted(claimed) == sorted(c.cell_id for c in cells)
        assert len(set(claimed)) == len(claimed)

    def test_expired_lease_is_reclaimable(self, tmp_path, clock):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign(grid="0:1").expand()
        queue.enqueue(cells)
        first = queue.claim("dying-worker")
        assert first is not None
        # the holder "dies": never renews, never completes
        clock.advance(DEFAULT_LEASE_TTL - 1)
        assert queue.claim("other-worker") is None  # lease still live
        clock.advance(2)
        second = queue.claim("other-worker")
        assert second is not None
        assert second.cell_id == first.cell_id

    def test_listings_skip_the_temp_files_a_crashed_replace_leaves(
        self, tmp_path, monkeypatch, clock
    ):
        root = tmp_path / "q"
        queue = SharedDirQueue(str(root))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        queue.write_worker_stats("w", {"claimed": 0})
        # a renew killed mid-write, and a stats publish killed mid-write
        (root / "leases" / ".tmp-x").write_text(
            json.dumps({"worker": "dead", "deadline": clock() - 1})
        )
        (root / "stats" / ".tmp-y.json").write_text(json.dumps({"claimed": 7}))
        looked_up = []
        real_get = queue.descriptors.get
        monkeypatch.setattr(
            queue.descriptors, "get", lambda key: looked_up.append(key) or real_get(key)
        )
        assert queue.claim("w") == cell
        clock.advance(DEFAULT_LEASE_TTL + 1)
        assert queue.claim("w2") == cell  # the reclaim walks leases/
        assert ".tmp-x" not in looked_up and looked_up == [cell.cell_id] * 2
        assert sorted(queue.worker_stats()) == ["w"]

    def test_renew_extends_only_the_holders_lease(self, tmp_path, clock):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        assert queue.claim("holder") is not None
        assert queue.renew(cell.cell_id, "holder", ttl=3 * DEFAULT_LEASE_TTL) is True
        assert queue.renew(cell.cell_id, "impostor") is False
        clock.advance(2 * DEFAULT_LEASE_TTL)
        # renewed past the ttl, so nobody else can steal it
        assert queue.claim("impostor") is None
        clock.advance(2 * DEFAULT_LEASE_TTL)
        assert queue.claim("impostor") is not None  # the renewal ran out too

    def test_merged_rows_dedupe_across_shards(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign(grid="0:2").expand()
        queue.enqueue(cells)
        rows = [SerialExecutor().map([c]).__next__() for c in cells]
        # the same cell completed by two different workers (the reclaim race)
        queue.complete(cells[0].cell_id, "worker-a", rows[0])
        queue.complete(cells[0].cell_id, "worker-b", rows[0])
        for cell, row in zip(cells[1:], rows[1:]):
            queue.complete(cell.cell_id, "worker-b", row)
        merged = queue.merged_rows({c.cell_id for c in cells})
        assert set(merged) == {c.cell_id for c in cells}
        assert canonical(merged[c.cell_id] for c in cells) == canonical(rows)
        assert queue.all_done()

    def test_done_marker_always_has_a_row_behind_it(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        assert queue.claim("w") is not None
        (row,) = SerialExecutor().map([cell])
        queue.complete(cell.cell_id, "w", row)
        assert cell.cell_id in queue.done_ids()
        assert cell.cell_id in queue.merged_rows()
        # lease and token are gone: nothing is claimable
        assert queue.claim("other") is None

    def test_row_is_committed_before_the_done_marker_exists(self, tmp_path, monkeypatch):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        assert queue.claim("w") is not None
        (row,) = SerialExecutor().map([cell])
        marker = os.path.join(queue.root, "done", cell.cell_id)
        shard = os.path.join(queue.root, "results", "w.jsonl")
        fsyncs = []
        real_fsync = store_module.JsonlLog._fsync

        def recording_fsync(log, handle):
            real_fsync(log, handle)
            with open(log.path, "rb") as synced:
                fsyncs.append((log.path, synced.read().count(b"\n"), os.path.exists(marker)))

        monkeypatch.setattr(store_module.JsonlLog, "_fsync", recording_fsync)
        queue.complete(cell.cell_id, "w", row)
        # the row was on disk and fsync'd while the marker did not exist yet
        assert fsyncs and fsyncs[-1] == (shard, 1, False)
        assert os.path.exists(marker)


    def test_second_complete_keeps_one_marker(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        assert queue.claim("a") is not None
        row = run_one(cell)
        queue.complete(cell.cell_id, "a", row)
        queue.complete(cell.cell_id, "b", row)  # the reclaim race, lost by "b"
        assert os.listdir(os.path.join(queue.root, "done")) == [cell.cell_id]
        with open(os.path.join(queue.root, "done", cell.cell_id)) as handle:
            assert json.load(handle)["worker"] == "a"
        assert canonical(queue.merged_rows().values()) == canonical([row])

    def test_failed_shard_fsync_leaves_no_done_marker(self, tmp_path, monkeypatch):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        assert queue.claim("w") is not None
        row = run_one(cell)

        def failing_fsync(log, handle):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.JsonlLog, "_fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            queue.complete(cell.cell_id, "w", row)
        assert not os.path.exists(os.path.join(queue.root, "done", cell.cell_id))
        assert queue.done_ids() == set()


def count_listings(monkeypatch):
    """Count ``os.listdir`` / ``os.scandir`` calls; returns the call log."""
    calls = []
    for name in ("listdir", "scandir"):
        real = getattr(os, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(os, name, counting)
    return calls


def sealed_queue(root, size):
    """A ``size``-cell queue written directly: one descriptor segment, one seal.

    Every descriptor is the first tiny cell's under a synthetic id, so a
    100k-cell queue costs one file write instead of a campaign expansion.
    """
    (template,) = tiny_campaign(grid="0:1").expand()[:1]
    base = cell_to_dict(template)
    ids = [f"{i:064x}" for i in range(size)]
    os.makedirs(os.path.join(root, "cells"))
    with open(os.path.join(root, "cells", "seg-0-0-test.jsonl"), "w") as handle:
        for cell_id in ids:
            line = {"k": cell_id, "v": dict(base, cell_id=cell_id)}
            handle.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    with open(os.path.join(root, backends.QUEUE_MANIFEST_NAME), "w") as handle:
        json.dump({"schema": backends.QUEUE_SCHEMA, "cell_ids": ids, "total": size}, handle)
    return template


class TestProtocolCost:
    """Counts, not timings: queue work per cell must not grow with the queue."""

    def test_claims_list_the_same_directories_at_1k_and_100k_cells(
        self, tmp_path, monkeypatch
    ):
        calls = count_listings(monkeypatch)
        listings = {}
        row = None
        for size in (1_000, 100_000):
            root = str(tmp_path / f"q{size}")
            template = sealed_queue(root, size)
            row = row or run_one(template)
            queue = SharedDirQueue(root)
            del calls[:]
            for _ in range(200):
                cell = queue.claim("w")
                queue.complete(cell.cell_id, "w", dataclasses.replace(row, cell_id=cell.cell_id))
            listings[size] = len(calls)
            assert len(os.listdir(os.path.join(root, "done"))) == 200
        # at either size: the walk's first read of the memo, and the
        # descriptor index's first build
        assert listings[1_000] == listings[100_000] <= 2

    def test_follow_reads_each_shard_byte_once(self, tmp_path, monkeypatch):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign().expand()
        queue.enqueue(cells)
        results = os.path.join(queue.root, "results")
        scanned = []
        real_lines = store_module.JsonlLog.lines

        def counting_lines(log, start=0):
            for offset, line in real_lines(log, start):
                if os.path.dirname(log.path) == results:
                    scanned.append(len(line))
                yield offset, line

        monkeypatch.setattr(store_module.JsonlLog, "lines", counting_lines)
        follow = SharedDirQueue(queue.root).follow(c.cell_id for c in cells)
        followed = {}
        for i, cell in enumerate(cells):
            assert next(follow) == {}  # an idle poll: nothing new
            queue.complete(cell.cell_id, f"w{i % 2}", run_one(cell))  # two shards
            fresh = next(follow)
            assert list(fresh) == [cell.cell_id]
            followed.update(fresh)
        assert next(follow, None) is None  # every wanted cell is done
        shard_bytes = sum(os.path.getsize(os.path.join(results, n)) for n in os.listdir(results))
        assert sum(scanned) == shard_bytes
        serial = list(SerialExecutor().map(cells))
        assert canonical(followed[c.cell_id] for c in cells) == canonical(serial)


def record_stats_writes(queue):
    """Wrap ``queue.write_worker_stats``; returns the list of published ``executed``."""
    writes = []
    real_write = queue.write_worker_stats

    def recording_write(worker_id, stats):
        writes.append(stats["executed"])
        real_write(worker_id, stats)

    queue.write_worker_stats = recording_write
    return writes


class TestWorkerStatsCadence:
    def test_stats_published_at_start_by_group_commit_and_at_finish(self, tmp_path, clock):
        queue = SharedDirQueue(str(tmp_path / "q"))
        queue.enqueue(tiny_campaign(grid="0:2").expand())
        session = backends._WorkerSession(queue, "w")
        assert queue.worker_stats()["w"]["claimed"] == 0  # before any cell runs
        writes = record_stats_writes(queue)
        assert session.serve_one() and session.serve_one()
        # within one commit window: not rewritten per cell
        assert writes == []
        assert queue.worker_stats()["w"]["claimed"] == 0
        clock.advance(store_module.COMMIT_SECONDS)
        assert session.serve_one() and session.serve_one()
        assert writes == [3]
        assert queue.worker_stats()["w"]["executed"] == 3
        final = session.finish()
        assert writes == [3, 4]
        assert final["executed"] == final["claimed"] == 4
        assert queue.worker_stats()["w"] == final

    def test_first_empty_claim_publishes_the_unpublished_counts(self, tmp_path, clock):
        # a live, idle worker's stats are final within one poll of its last
        # cell, not only when it exits
        queue = SharedDirQueue(str(tmp_path / "q"))
        queue.enqueue(tiny_campaign(grid="0:2").expand())
        session = backends._WorkerSession(queue, "w")
        writes = record_stats_writes(queue)
        for _ in range(4):
            assert session.serve_one()
        assert writes == []  # all four cells inside one commit window
        assert not session.serve_one()  # drained
        assert writes == [4]
        assert queue.worker_stats()["w"]["executed"] == 4
        assert not session.serve_one()
        assert writes == [4]  # an idle poll with nothing new writes nothing
        assert session.finish()["executed"] == 4
        assert queue.worker_stats()["w"]["executed"] == 4


class TestSharedDirBackendIdentity:
    def test_participating_run_identical_to_serial(self, tmp_path):
        campaign = tiny_campaign()
        serial = run_campaign(campaign, str(tmp_path / "serial"), cache_dir=None)
        backend = SharedDirBackend(queue_dir=str(tmp_path / "queue"))
        sharded = run_campaign(
            campaign, str(tmp_path / "sharded"), cache_dir=None, executor=backend
        )
        assert canonical(sharded.results) == canonical(serial.results)
        assert sharded.summary.correct_rate == serial.summary.correct_rate

    def test_worker_stats_folded_into_provenance(self, tmp_path):
        backend = SharedDirBackend(queue_dir=str(tmp_path / "queue"))
        run_campaign(tiny_campaign(), str(tmp_path / "out"), cache_dir=None, executor=backend)
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert "workers" in provenance
        (stats,) = provenance["workers"].values()
        assert stats["executed"] == 9
        assert stats["errors"] == 0
        assert stats["wall_s"] > 0

    def test_trace_shards_merged_by_cell_id(self, tmp_path):
        from repro.obs.trace import read_trace

        campaign = tiny_campaign(grid="0:2")
        backend = SharedDirBackend(queue_dir=str(tmp_path / "queue"), trace=True)
        run_campaign(
            campaign, str(tmp_path / "out"), cache_dir=None, executor=backend, trace=True
        )
        records = read_trace(str(tmp_path / "out" / "trace.jsonl"))
        spans = [r for r in records if r.get("name") == "lab.cell"]
        cell_ids = [span["attrs"]["cell"] for span in spans]
        assert sorted(cell_ids) == sorted(c.cell_id for c in campaign.expand())
        assert len(set(cell_ids)) == len(cell_ids)  # merged, not concatenated

    def test_nonparticipating_backend_raises_on_stall(self, tmp_path):
        backend = SharedDirBackend(
            queue_dir=str(tmp_path / "queue"),
            participate=False,
            poll=0.05,
            stall_timeout=0.5,
        )
        with pytest.raises(RuntimeError, match="stalled"):
            list(backend.map(tiny_campaign(grid="0:1").expand()))

    def test_participating_stall_still_finishes_the_session(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        cells = tiny_campaign().expand()[:2]
        queue = SharedDirQueue(queue_dir)
        queue.enqueue(cells)
        held = queue.claim("foreign")  # a live lease no one will complete
        backend = SharedDirBackend(
            queue_dir=queue_dir,
            poll=0.01,
            stall_timeout=0.2,
            worker_id="coordinator",
            trace=True,
        )
        with pytest.raises(RuntimeError, match="stalled"):
            list(backend.map(cells))

        assert queue.done_ids() == {c.cell_id for c in cells} - {held.cell_id}
        assert queue.worker_stats()["coordinator"]["executed"] == 1
        traces = os.path.realpath(os.path.join(queue_dir, "traces"))
        open_paths = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                open_paths.append(os.readlink(os.path.join("/proc/self/fd", fd)))
            except OSError:
                continue  # the listing's own descriptor, already closed
        assert not [path for path in open_paths if path.startswith(traces)]


class TestWorkerLoop:
    def test_drains_a_sealed_queue_and_exits(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign().expand()
        queue.enqueue(cells)
        stats = worker_loop(str(tmp_path / "q"), worker_id="solo", max_idle=10.0)
        assert stats["executed"] == len(cells)
        assert stats["errors"] == 0
        assert queue.all_done()
        assert queue.worker_stats()["solo"]["executed"] == len(cells)

    def test_worker_that_gets_no_work_still_reports_its_stats(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        queue.enqueue(tiny_campaign(grid="0:2").expand())
        worker_loop(str(tmp_path / "q"), worker_id="busy", max_idle=10.0)
        stats = worker_loop(str(tmp_path / "q"), worker_id="starved", max_idle=10.0)
        assert stats["claimed"] == stats["executed"] == 0
        reported = queue.worker_stats()
        assert set(reported) == {"busy", "starved"}
        assert reported["starved"]["claimed"] == 0

    def test_reclaims_a_dead_workers_cells(self, tmp_path, clock):
        # a worker claims two cells' worth of leases and dies without completing
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign(grid="0:2").expand()
        queue.enqueue(cells)
        assert queue.claim("dead-worker") is not None
        assert queue.claim("dead-worker") is not None
        clock.advance(DEFAULT_LEASE_TTL + 1)
        worker_loop(str(tmp_path / "q"), worker_id="survivor", max_idle=10.0)
        merged = queue.merged_rows()
        assert set(merged) == {c.cell_id for c in cells}
        serial = list(SerialExecutor().map(cells))
        assert canonical(merged[c.cell_id] for c in cells) == canonical(serial)


def spawn_worker(queue_dir, worker_id, lease_ttl="1.0", extra=()):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--queue-dir", str(queue_dir),
            "--worker-id", worker_id,
            "--lease-ttl", lease_ttl,
            "--poll", "0.05",
            "--max-idle", "30",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_stats(queue_dir, worker_ids, procs, timeout=60.0):
    """Block until every worker in ``worker_ids`` has published its stats file."""
    queue = SharedDirQueue(str(queue_dir))
    deadline = time.monotonic() + timeout
    while not worker_ids <= set(queue.worker_stats()):
        exited = [proc.args for proc in procs if proc.poll() is not None]
        assert not exited, f"worker exited before joining: {exited}"
        assert time.monotonic() < deadline, "workers never published their stats"
        time.sleep(0.02)


class TestWorkerSubprocesses:
    def test_two_workers_merge_identical_to_serial(self, tmp_path):
        campaign = tiny_campaign(grid="0:4", name="two-worker")
        serial = run_campaign(campaign, str(tmp_path / "serial"), cache_dir=None)

        queue_dir = tmp_path / "queue"
        workers = [spawn_worker(queue_dir, f"w{i}") for i in range(2)]
        try:
            # Both workers have joined before any cell is enqueued, so the
            # test never depends on which process starts faster; a worker the
            # other one starves still reports (claimed: 0).
            wait_for_stats(queue_dir, {"w0", "w1"}, workers)
            backend = SharedDirBackend(
                queue_dir=str(queue_dir), participate=False, poll=0.05
            )
            sharded = run_campaign(
                campaign, str(tmp_path / "sharded"), cache_dir=None, executor=backend
            )
        finally:
            for proc in workers:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert canonical(sharded.results) == canonical(serial.results)
        provenance = json.loads((tmp_path / "sharded" / "provenance.json").read_text())
        assert set(provenance["workers"]) >= {"w0", "w1"}

    def test_sigkilled_worker_resumes_without_duplicates(self, tmp_path):
        campaign = tiny_campaign(grid="0:4", name="kill-resume")
        cells = campaign.expand()
        serial = list(SerialExecutor().map(cells))

        queue_dir = tmp_path / "queue"
        queue = SharedDirQueue(str(queue_dir), lease_ttl=1.0)
        queue.enqueue(cells)

        victim = spawn_worker(queue_dir, "victim")
        try:
            deadline = time.monotonic() + 60
            while len(queue.done_ids()) < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert queue.done_ids(), "victim worker never completed a cell"
        finally:
            victim.send_signal(signal.SIGKILL)
            victim.wait()

        # the survivor must reclaim whatever the victim held and finish the queue
        worker_loop(
            str(queue_dir), worker_id="survivor", lease_ttl=1.0, poll=0.05,
            max_idle=30.0,
        )
        assert queue.all_done()
        merged = queue.merged_rows({c.cell_id for c in cells})
        assert canonical(merged[c.cell_id] for c in cells) == canonical(serial)

        # resuming the campaign over the same queue folds the rows with no
        # duplicates and no re-execution
        backend = SharedDirBackend(
            queue_dir=str(queue_dir), participate=False, poll=0.05
        )
        resumed = run_campaign(
            campaign, str(tmp_path / "out"), cache_dir=None, executor=backend
        )
        assert resumed.total_cells == len(cells)
        assert canonical(resumed.results) == canonical(serial)
        row_ids = [r.cell_id for r in resumed.results]
        assert len(set(row_ids)) == len(row_ids)
