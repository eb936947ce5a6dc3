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
import itertools

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


def run_batch(queue, batch):
    """Run a claimed batch serially and complete it; returns its cell ids."""
    queue.complete(batch, [run_one(cell) for cell in batch.cells])
    return [cell.cell_id for cell in batch.cells]


def drain(queue, worker_id):
    """Claim and complete batches until nothing is claimable; the cell ids run."""
    ran = []
    while True:
        batch = queue.claim(worker_id)
        if batch is None:
            return ran
        ran += run_batch(queue, batch)


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
        claimed = drain(worker, "w")
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
        claimed = drain(worker, "w")
        assert sorted(claimed) == sorted(c.cell_id for c in cells)
        assert worker.all_done()

    @pytest.mark.parametrize(
        "path, writer",
        [
            ("claim", "_create_exclusive"),  # the batch file
            ("claim", "_link_exclusive"),  # the cell's lease
            ("reclaim", "_create_exclusive"),
            ("reclaim", "write_json"),  # the lease, replaced whole
        ],
    )
    def test_failed_lease_write_is_retried_by_the_next_claim(
        self, tmp_path, monkeypatch, clock, path, writer
    ):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        if path == "reclaim":
            assert queue.claim("dying-worker").cells == [cell]
            clock.advance(DEFAULT_LEASE_TTL + 1)

        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(backends, writer, disk_full)
            assert queue.claim("w") is None
        # the disk has room again: the same instance claims the cell, and the
        # failed attempt left no batch file of its own behind
        batch = queue.claim("w")
        assert batch.cells == [cell]
        assert [n for n in os.listdir(os.path.join(queue.root, "leases")) if n[0] == "."] == [
            os.path.basename(batch.path)
        ]

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
        assert queue.claim("w").cells == [cell]

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
        root = str(tmp_path / "q")
        cells = tiny_campaign().expand()
        SharedDirQueue(root).enqueue(cells)
        workers = [SharedDirQueue(root), SharedDirQueue(root)]
        claimed = []
        # two workers, each walking the queue on its own, alternate claims;
        # every cell must be handed out exactly once
        while True:
            batch = workers[0].claim("worker-a") or workers[1].claim("worker-b")
            if batch is None:
                break
            claimed += [cell.cell_id for cell in batch.cells]
        assert sorted(claimed) == sorted(c.cell_id for c in cells)
        assert len(set(claimed)) == len(claimed)

    def test_racing_workers_claim_each_cell_once(self, tmp_path):
        # more workers than cores, each walking the queue on its own instance
        root = str(tmp_path / "q")
        template = sealed_queue(root, 300)
        row = run_one(template)
        claimed = {f"w{i}": [] for i in range(6)}

        def serve(worker_id):
            queue = SharedDirQueue(root)
            queue.write_worker_stats(worker_id, {"claimed": 0})
            while True:
                batch = queue.claim(worker_id)
                if batch is None:
                    return
                claimed[worker_id] += [c.cell_id for c in batch.cells]
                queue.complete(
                    batch, [dataclasses.replace(row, cell_id=c.cell_id) for c in batch.cells]
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(w,)) for w in claimed]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [cell_id for ran in claimed.values() for cell_id in ran]
        assert len(ids) == len(set(ids)) == 300
        assert len(os.listdir(os.path.join(root, "done"))) == 300
        assert os.listdir(os.path.join(root, "leases")) == []

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
        assert second.cells == first.cells

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
        assert queue.claim("w").cells == [cell]
        clock.advance(DEFAULT_LEASE_TTL + 1)
        assert queue.claim("w2").cells == [cell]  # the reclaim walks leases/
        assert ".tmp-x" not in looked_up and looked_up == [cell.cell_id] * 2
        assert sorted(queue.worker_stats()) == ["w"]

    def test_renew_rewrites_the_batch_file_in_place(self, tmp_path, clock):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:2").expand()
        queue, rival = SharedDirQueue(root), SharedDirQueue(root)
        queue.enqueue(cells)
        batch = queue.claim("holder")
        assert len(batch.cells) == 2
        assert len(drain(rival, "rival")) == 2  # the cells the batch left
        leases = os.path.join(root, "leases")
        before = sorted(os.listdir(leases))
        clock.advance(DEFAULT_LEASE_TTL - 1)
        assert queue.renew(batch, timeout=DEFAULT_LEASE_TTL) is True
        # nothing created: both leases still link to the rewritten batch file
        assert sorted(os.listdir(leases)) == before
        inode = os.stat(batch.path).st_ino
        assert {os.stat(os.path.join(leases, c.cell_id)).st_ino for c in batch.cells} == {
            inode
        }
        clock.advance(2 * DEFAULT_LEASE_TTL - 1)
        assert rival.claim("rival") is None  # renewed for twice the timeout
        clock.advance(2)
        taken = rival.claim("rival")
        assert taken is not None and taken.cells[0] in batch.cells
        # the reclaim took the holder for dead and removed its batch file
        assert queue.renew(batch) is False
        assert rival.claim("rival").cells[0] in batch.cells

    def test_merged_rows_dedupe_across_shards(self, tmp_path, clock):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:2").expand()
        queue, other = SharedDirQueue(root), SharedDirQueue(root)
        queue.enqueue(cells)
        rows = [SerialExecutor().map([c]).__next__() for c in cells]
        # the reclaim race: worker-a stalls past its lease, worker-b reclaims
        # and completes its cells, then worker-a completes them as well
        stalled = queue.claim("worker-a")
        clock.advance(DEFAULT_LEASE_TTL + 1)
        assert sorted(drain(other, "worker-b")) == sorted(c.cell_id for c in cells)
        assert run_batch(queue, stalled)
        executions = [
            row.cell_id
            for shard in ("worker-a", "worker-b")
            for row in queue.worker_store(shard).iter_rows(dedupe=False)
        ]
        assert len(executions) == len(cells) + len(stalled.cells)
        merged = queue.merged_rows({c.cell_id for c in cells})
        assert set(merged) == {c.cell_id for c in cells}
        assert canonical(merged[c.cell_id] for c in cells) == canonical(rows)
        assert queue.all_done()

    def test_done_marker_always_has_a_row_behind_it(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        batch = queue.claim("w")
        (row,) = SerialExecutor().map([cell])
        queue.complete(batch, [row])
        assert cell.cell_id in queue.done_ids()
        assert cell.cell_id in queue.merged_rows()
        # lease and token are gone: nothing is claimable
        assert queue.claim("other") is None

    def test_row_is_committed_before_the_done_marker_exists(self, tmp_path, monkeypatch):
        queue = SharedDirQueue(str(tmp_path / "q"))
        queue.enqueue(tiny_campaign(grid="0:2").expand())
        batch = queue.claim("w")
        assert len(batch.cells) > 1
        rows = list(SerialExecutor().map(batch.cells))
        markers = [os.path.join(queue.root, "done", c.cell_id) for c in batch.cells]
        shard = os.path.join(queue.root, "results", "w.jsonl")
        fsyncs = []
        real_fsync = store_module.JsonlLog._fsync

        def recording_fsync(log, handle):
            real_fsync(log, handle)
            with open(log.path, "rb") as synced:
                fsyncs.append(
                    (log.path, synced.read().count(b"\n"), any(map(os.path.exists, markers)))
                )

        monkeypatch.setattr(store_module.JsonlLog, "_fsync", recording_fsync)
        queue.complete(batch, rows)
        # every row was on disk and fsync'd while no marker of the batch existed
        assert fsyncs and fsyncs[-1] == (shard, len(rows), False)
        assert all(map(os.path.exists, markers))

    def test_second_complete_keeps_one_marker(self, tmp_path, clock):
        queue = SharedDirQueue(str(tmp_path / "q"))
        (cell,) = tiny_campaign(grid="0:1").expand()[:1]
        queue.enqueue([cell])
        held = queue.claim("a")
        clock.advance(DEFAULT_LEASE_TTL + 1)
        reclaimed = SharedDirQueue(queue.root).claim("b")
        row = run_one(cell)
        queue.complete(held, [row])
        queue.complete(reclaimed, [row])  # the reclaim race, lost by "b"
        assert os.listdir(os.path.join(queue.root, "done")) == [cell.cell_id]
        assert os.listdir(os.path.join(queue.root, "leases")) == []
        with open(os.path.join(queue.root, "done", cell.cell_id)) as handle:
            assert json.load(handle)["worker"] == "a"
        assert canonical(queue.merged_rows().values()) == canonical([row])

    def test_failed_shard_fsync_leaves_no_done_marker(self, tmp_path, monkeypatch):
        queue = SharedDirQueue(str(tmp_path / "q"))
        queue.enqueue(tiny_campaign(grid="0:2").expand())
        batch = queue.claim("w")
        assert len(batch.cells) > 1
        rows = [run_one(cell) for cell in batch.cells]

        def failing_fsync(log, handle):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.JsonlLog, "_fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            queue.complete(batch, rows)
        assert os.listdir(os.path.join(queue.root, "done")) == []
        assert queue.done_ids() == set()
        # the leases stay, for a reclaim once they expire
        for cell in batch.cells:
            assert os.path.exists(os.path.join(queue.root, "leases", cell.cell_id))

    def test_stop_between_commit_and_markers_reruns_only_that_batch(
        self, tmp_path, monkeypatch, clock
    ):
        root = str(tmp_path / "q")
        cells = tiny_campaign().expand()
        queue = SharedDirQueue(root)
        queue.enqueue(cells)
        batch = queue.claim("stopped")
        assert 1 < len(batch.cells) < len(cells)
        stopped = {cell.cell_id for cell in batch.cells}
        real_link = backends._link_exclusive

        class Stop(BaseException):
            pass

        def stop_at_markers(source, path):
            if os.path.dirname(path) == os.path.join(root, "done"):
                raise Stop()
            return real_link(source, path)

        with monkeypatch.context() as patched:
            patched.setattr(backends, "_link_exclusive", stop_at_markers)
            with pytest.raises(Stop):
                run_batch(queue, batch)
        assert len(list(queue.worker_store("stopped").iter_rows())) == len(stopped)
        assert queue.done_ids() == set()

        survivor = SharedDirQueue(root)
        fresh = drain(survivor, "survivor")  # the stopped batch's leases are live
        assert set(fresh) == {c.cell_id for c in cells} - stopped
        clock.advance(DEFAULT_LEASE_TTL + 1)
        rerun = drain(survivor, "survivor")
        assert sorted(rerun) == sorted(stopped)
        assert survivor.all_done()
        # the first reclaim removed the stopped batch's file; completes removed the rest
        assert os.listdir(os.path.join(root, "leases")) == []
        merged = survivor.merged_rows()
        serial = list(SerialExecutor().map(cells))
        assert canonical(merged[c.cell_id] for c in cells) == canonical(serial)


    @pytest.mark.parametrize(
        "window, swept",
        [
            # no lease was linked: only the sweep finds the batch file
            ("claim: after the batch file", True),
            # the reclaim that takes over the second lease removes it
            ("complete: after the first marker", False),
            # the done cell's expired lease leads the reclaim pass to it
            ("complete: after the last marker", False),
            # no lease is left: only the sweep finds the batch file
            ("complete: after the leases", True),
        ],
    )
    def test_a_killed_workers_batch_file_does_not_outlive_it(
        self, tmp_path, monkeypatch, clock, window, swept
    ):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:2").expand()
        queue = SharedDirQueue(root)
        queue.enqueue(cells)

        class Killed(BaseException):
            pass

        def dies_at(real, doomed):
            def patched(*args):
                if doomed(*args):
                    raise Killed()
                return real(*args)

            return patched

        with monkeypatch.context() as patched:
            if window.startswith("claim"):
                patched.setattr(
                    backends, "_link_exclusive", dies_at(backends._link_exclusive, lambda *a: True)
                )
                with pytest.raises(Killed):
                    queue.claim("killed")
            else:
                batch = queue.claim("killed")
                assert len(batch.cells) == 2
                doomed = {
                    "first marker": lambda path: True,
                    "last marker": lambda path: path.endswith(batch.cells[-1].cell_id),
                    "leases": lambda path: os.path.basename(path).startswith(".batch-"),
                }[window.split("after the ")[1]]
                rows = [run_one(cell) for cell in batch.cells]
                patched.setattr(backends, "_unlink", dies_at(backends._unlink, doomed))
                with pytest.raises(Killed):
                    queue.complete(batch, rows)
        leases = os.path.join(root, "leases")

        def batch_files():
            return [name for name in os.listdir(leases) if name.startswith(".batch-")]

        assert len(batch_files()) == 1
        clock.advance(DEFAULT_LEASE_TTL + 1)  # the killed worker's leases expire
        survivor = SharedDirQueue(root)
        drain(survivor, "survivor")
        assert survivor.all_done()
        assert len(batch_files()) == int(swept)
        # a lease_ttl past its deadline, the next reclaim pass sweeps it
        clock.advance(DEFAULT_LEASE_TTL)
        assert survivor.claim("survivor") is None
        assert os.listdir(leases) == []
        merged = survivor.merged_rows()
        serial = list(SerialExecutor().map(cells))
        assert canonical(merged[c.cell_id] for c in cells) == canonical(serial)

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
            completed = 0
            while completed < 200:
                batch = queue.claim("w", max_cells=200 - completed)
                queue.complete(
                    batch, [dataclasses.replace(row, cell_id=c.cell_id) for c in batch.cells]
                )
                completed += len(batch.cells)
            listings[size] = len(calls)
            assert len(os.listdir(os.path.join(root, "done"))) == 200
        # at either size: the walk's first read of the memo, and the
        # descriptor index's first build
        assert listings[1_000] == listings[100_000] <= 2

    def test_a_drain_creates_files_per_batch_not_per_cell(
        self, tmp_path, monkeypatch, clock
    ):
        root = str(tmp_path / "q")
        sealed_queue(root, 200)
        queue = SharedDirQueue(root)
        # with a cell timeout, so the lease must outlive every cell's budget
        session = backends._WorkerSession(queue, "w", timeout=30.0)
        created, rewritten = [], []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                created.append(os.path.dirname(path))
            elif flags & os.O_WRONLY:
                rewritten.append(os.path.dirname(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        batches = 0
        while session.serve_one():
            batches += 1
        session.finish()
        assert session.stats["executed"] == 200
        assert len(os.listdir(os.path.join(root, "done"))) == 200
        # one batch file per claim, and the stats of the last batch and the
        # finish (the clock stands still, so no commit window passes)
        leases = os.path.join(root, "leases")
        assert created.count(leases) == batches <= 200 // 10
        assert len(created) <= batches + 2
        # every cell after a batch's first renews the batch file in place
        assert rewritten == [leases] * (200 - batches)

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
        shards = itertools.cycle(["w0", "w1"])
        while len(followed) < len(cells):
            assert next(follow) == {}  # an idle poll: nothing new
            batch = queue.claim(next(shards))  # two shards
            run_batch(queue, batch)
            fresh = next(follow)
            assert sorted(fresh) == sorted(c.cell_id for c in batch.cells)
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
        # one worker has joined: batches of 2, 1 and 1 of the four cells
        assert session.serve_one()
        assert session.stats["executed"] == 2
        # within one commit window: not rewritten per batch
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
        while session.stats["executed"] < 4:
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
        (held,) = queue.claim("foreign").cells  # a live lease no one will complete
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

    def test_executes_exactly_max_cells(self, tmp_path):
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign(grid="0:4").expand()
        queue.enqueue(cells)
        # the first batch would be 8 of the 16 cells; 3 caps it
        stats = worker_loop(str(tmp_path / "q"), worker_id="a", max_cells=3, max_idle=10.0)
        assert stats["claimed"] == stats["executed"] == 3
        # two workers have joined now: batches of 4, 3, 2, 1 and the 1 still wanted
        stats = worker_loop(str(tmp_path / "q"), worker_id="b", max_cells=11, max_idle=10.0)
        assert stats["claimed"] == stats["executed"] == 11
        assert len(queue.done_ids()) == 14
        assert os.listdir(os.path.join(queue.root, "leases")) == []

    def test_reclaims_a_dead_workers_cells(self, tmp_path, clock):
        # a worker claims two batches of leases and dies without completing
        queue = SharedDirQueue(str(tmp_path / "q"))
        cells = tiny_campaign(grid="0:2").expand()
        queue.enqueue(cells)
        assert queue.claim("dead-worker") is not None
        assert queue.claim("dead-worker") is not None
        leases = os.path.join(queue.root, "leases")
        assert len([name for name in os.listdir(leases) if name.startswith(".")]) == 2
        clock.advance(DEFAULT_LEASE_TTL + 1)
        worker_loop(str(tmp_path / "q"), worker_id="survivor", max_idle=10.0)
        merged = queue.merged_rows()
        assert set(merged) == {c.cell_id for c in cells}
        serial = list(SerialExecutor().map(cells))
        assert canonical(merged[c.cell_id] for c in cells) == canonical(serial)
        # the reclaims that took the dead worker's leases removed its batch files
        assert os.listdir(leases) == []

    @staticmethod
    def serve_long_cells(root, clock, monkeypatch, timeout, cell_s):
        """One session serves a batch whose every cell runs ``cell_s`` on the
        fake clock; a rival drains the queue after each cell.  Returns the
        cell ids the session ran and those the rival took."""
        queue, rival = SharedDirQueue(root), SharedDirQueue(root)
        session = backends._WorkerSession(queue, "w", timeout=timeout)
        ran, stolen = [], []

        def long_run(cell, cell_timeout):
            assert cell_timeout == timeout
            clock.advance(cell_s)
            ran.append(cell.cell_id)
            stolen.extend(drain(rival, "rival"))  # claims, then tries to reclaim
            return run_one(cell)

        monkeypatch.setattr(backends, "run_cell_with_timeout", long_run)
        assert session.serve_one()
        return ran, stolen

    def test_a_batch_lease_outlives_its_cells_timeouts(self, tmp_path, clock, monkeypatch):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:4").expand()
        SharedDirQueue(root).enqueue(cells)
        # each cell runs its whole budget: the batch's cells run 8 * timeout
        # together, far past the claim's lease of 2 * timeout
        ran, stolen = self.serve_long_cells(
            root, clock, monkeypatch, timeout=DEFAULT_LEASE_TTL, cell_s=DEFAULT_LEASE_TTL
        )
        assert len(ran) == 8
        assert sorted(ran + stolen) == sorted(c.cell_id for c in cells)
        assert SharedDirQueue(root).all_done()

    def test_long_cells_without_a_timeout_keep_their_batch_leased(
        self, tmp_path, clock, monkeypatch
    ):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:4").expand()
        SharedDirQueue(root).enqueue(cells)
        ran, stolen = self.serve_long_cells(
            root, clock, monkeypatch, timeout=None, cell_s=0.75 * DEFAULT_LEASE_TTL
        )
        assert len(ran) == 8
        assert sorted(ran + stolen) == sorted(c.cell_id for c in cells)

    def test_a_killed_holders_cells_are_reclaimable_after_twice_the_timeout(
        self, tmp_path, clock, monkeypatch
    ):
        root = str(tmp_path / "q")
        cells = tiny_campaign(grid="0:4").expand()
        queue, rival = SharedDirQueue(root), SharedDirQueue(root)
        queue.enqueue(cells)
        timeout = DEFAULT_LEASE_TTL
        session = backends._WorkerSession(queue, "w", timeout=timeout)

        class Killed(BaseException):
            pass

        def killed(cell, cell_timeout):
            raise Killed()

        monkeypatch.setattr(backends, "run_cell_with_timeout", killed)
        with pytest.raises(Killed):
            session.serve_one()  # killed during the first cell of its batch
        leases = os.path.join(root, "leases")
        held = {name for name in os.listdir(leases) if not name.startswith(".")}
        assert len(held) == 8
        assert set(drain(rival, "rival")) == {c.cell_id for c in cells} - held
        clock.advance(2 * timeout - 1)
        assert rival.claim("rival") is None
        clock.advance(2)
        assert sorted(drain(rival, "rival")) == sorted(held)
        assert rival.all_done()
        assert os.listdir(leases) == []

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
