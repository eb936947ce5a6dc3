"""Cache keys, the content-addressed cache, the JSONL store, and resume."""

import dataclasses
import errno
import json
import os
from contextlib import closing

import pytest

from repro.api.config import RunConfig
from repro.core.specs import FunctionSpec
from repro.lab import aggregate as aggregate_module
from repro.lab import cache as cache_module
from repro.lab import campaign as campaign_module
from repro.lab import cli
from repro.lab import store as store_module
from repro.lab.aggregate import make_bench_record, write_bench_json
from repro.lab.cache import ResultCache, cell_cache_key, spec_fingerprint
from repro.lab.campaign import Campaign, SweepGrid, resume_campaign, run_campaign
from repro.lab.store import CellResult, ResultStore


class TestRunConfigCacheKey:
    def test_equal_configs_hash_equal(self):
        assert RunConfig(trials=3, seed=7).cache_key() == RunConfig(trials=3, seed=7).cache_key()

    def test_any_field_change_changes_the_key(self):
        base = RunConfig(trials=3, seed=7)
        for change in (
            {"trials": 4},
            {"max_steps": 99},
            {"quiescence_window": 5},
            {"seed": 8},
            {"seed": None},
            {"engine": "vectorized"},
        ):
            assert base.replace(**change).cache_key() != base.cache_key()

    def test_key_is_stable_across_processes(self):
        # regression pin: the key must never depend on hash randomization
        assert RunConfig().cache_key() == (
            RunConfig.from_dict(RunConfig().to_dict()).cache_key()
        )

    def test_to_dict_from_dict_round_trip(self):
        config = RunConfig(trials=2, max_steps=50, quiescence_window=9, seed=4, engine="vectorized")
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_to_dict_equals_asdict_and_is_a_fresh_dict(self):
        config = RunConfig(trials=2, quiescence_window=9, seed=4, allow_approximate=True)
        data = config.to_dict()
        assert data == dataclasses.asdict(config)
        data["trials"] = 99
        assert config.to_dict()["trials"] == 2

    def test_from_dict_ignores_unknown_keys(self):
        data = RunConfig(trials=2).to_dict()
        data["future_field"] = "whatever"
        assert RunConfig.from_dict(data) == RunConfig(trials=2)

    def test_from_dict_still_validates(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"trials": 0})


class TestSpecFingerprint:
    def test_same_function_same_fingerprint(self):
        a = FunctionSpec(name="f", dimension=1, func=lambda x: x[0])
        b = FunctionSpec(name="f", dimension=1, func=lambda x: x[0] * 1)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_same_name_different_behaviour_differs(self):
        a = FunctionSpec(name="f", dimension=1, func=lambda x: x[0])
        b = FunctionSpec(name="f", dimension=1, func=lambda x: 2 * x[0])
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_cell_key_sensitive_to_every_component(self):
        base = dict(
            spec_fingerprint_hex="ab",
            strategy="auto",
            input_value=(1, 2),
            engine="python",
            config_key=RunConfig(seed=1).cache_key(),
        )
        key = cell_cache_key(**base)
        for change in (
            {"spec_fingerprint_hex": "cd"},
            {"strategy": "known"},
            {"input_value": (2, 1)},
            {"engine": "vectorized"},
            {"config_key": RunConfig(seed=2).cache_key()},
        ):
            assert cell_cache_key(**{**base, **change}) != key
        assert cell_cache_key(**base, salt="other-code-version") != key


class TestCellKeyPins:
    """One seeded cell per built-in engine, its ``cell_id`` and
    ``cache_key()`` pinned to literals recorded before the built-ins became
    registry data.  While these hold, a cache warmed by that code replays
    with zero executions."""

    @pytest.mark.parametrize(
        "engine,cell_id,cache_key",
        [
            (
                "python",
                "6a98e6648c8f5ffb",
                "48a05483a1ec2ce7294e669171ecad6c778baae8828f1f50c91b2bb44fd20b28",
            ),
            (
                "vectorized",
                "62b68504f294a53f",
                "4ed03d65060812df327b3af34093d65e11fdf96513b1543d75c7d6e8413ffeb8",
            ),
            (
                "tau",
                "5b12a92acc132e4a",
                "72c042ec920b3730707b50de91266979c36a15fce766bb71aa80e427669a0bb2",
            ),
            (
                "tau-vec",
                "5891a8562bac6118",
                "130a897c551cbe3c4e90e99d8eb659a5182ec3591b604ddce9d77f61123ac30b",
            ),
        ],
        ids=["python", "vectorized", "tau", "tau-vec"],
    )
    def test_cell_id_and_cache_key_are_unchanged(self, engine, cell_id, cache_key):
        (cell,) = Campaign(
            "pin",
            specs=["minimum"],
            inputs=[(3, 4)],
            engines=[engine],
            configs=[RunConfig(trials=4)],
            seed=7,
        ).expand()
        assert cell.cell_id == cell_id
        assert cell.cache_key() == cache_key


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        with closing(ResultCache(str(tmp_path / "cache"))) as cache:
            assert cache.get("a" * 64) is None
            cache.put("a" * 64, {"cell_id": "x", "status": "ok"})
            assert cache.get("a" * 64) == {"cell_id": "x", "status": "ok"}
            assert ("a" * 64) in cache
            assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        """A garbage line in a segment reads as a miss, never as a payload."""
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        cache.put("b" * 64, {"status": "ok"})
        cache.close()
        (segment,) = segments(root)
        garbage = [
            '{"k":"' + "b" * 64 + '","v":{not json}',  # passes the fast key scan
            '{"k":"' + "b" * 64 + '","v":{"status":"o',  # cut short, newline kept
            "\x00\x00\x00\x00",
        ]
        for line in garbage:
            segment.write_text(line + "\n")
            assert ResultCache(str(root)).get("b" * 64) is None

    def test_reader_finds_a_key_republished_after_a_garbage_line(self, tmp_path):
        """An indexed line that does not parse refreshes the index once."""
        root = tmp_path / "cache"
        key = "c" * 64
        writer = ResultCache(str(root))
        writer.put(key, {"status": "ok"})
        writer.close()
        (segment,) = segments(root)
        segment.write_text('{"k":"' + key + '","v":{not json}\n')  # passes the fast scan
        reader = ResultCache(str(root))
        assert reader.get(key) is None  # the index now points at the garbage line
        with closing(ResultCache(str(root))) as other:  # another writer
            other.put(key, {"status": "republished"})
        assert reader.get(key) == {"status": "republished"}

    def test_last_write_wins_within_and_across_segments(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "f" * 64
        with closing(ResultCache(root)) as first, closing(ResultCache(root)) as second:
            first.put(key, {"v": 1})
            first.put(key, {"v": 2})
            assert ResultCache(root).get(key) == {"v": 2}
            second.put(key, {"v": 3})  # a later writer's segment
            assert ResultCache(root).get(key) == {"v": 3}
            assert len(segments(tmp_path / "cache")) == 2

    def test_a_line_still_being_written_is_picked_up_once_complete(self, tmp_path):
        root = tmp_path / "cache"
        reader = ResultCache(str(root))
        assert reader.get("a" * 64) is None  # the index exists before the write
        root.mkdir()
        segment = root / (cache_module.SEGMENT_PREFIX + "0-1-writer.jsonl")
        line = json.dumps({"k": "a" * 64, "v": {"status": "ok"}}) + "\n"
        segment.write_text(line[:20])  # another process, mid-write
        assert reader.get("a" * 64) is None
        with open(segment, "a") as handle:
            handle.write(line[20:])
        assert reader.get("a" * 64) == {"status": "ok"}

    def test_hash_collision_costs_a_miss_never_a_foreign_payload(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "hash", lambda key: 0, raising=False)
        with closing(ResultCache(str(tmp_path / "cache"))) as cache:
            cache.put("a" * 64, {"cell_id": "a"})
            cache.put("b" * 64, {"cell_id": "b"})  # same index slot
            assert cache.get("a" * 64) is None
            assert cache.get("b" * 64) == {"cell_id": "b"}

    def test_threads_sharing_one_instance_never_lose_or_mix_entries(self, tmp_path):
        import sys
        import threading

        cache = ResultCache(str(tmp_path / "cache"))
        errors = []

        def work(worker):
            for k in range(50):
                key = format(worker * 1000 + k, "x").rjust(64, "0")
                cache.put(key, {"worker": worker, "k": k})
                if cache.get(key) != {"worker": worker, "k": k}:
                    errors.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        cache.close()
        assert len(ResultCache(str(tmp_path / "cache"))) == 200

    def test_old_per_key_file_layout_is_ignored(self, tmp_path):
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        (root / "ab" / ("ab" * 32 + ".json")).write_text('{"status": "ok"}')
        cache = ResultCache(str(root))
        assert cache.get("ab" * 32) is None and len(cache) == 0


class TestCacheReadPath:
    """A hit reads its line with ``pread`` on a descriptor it closes at once."""

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * store_module._LINE_CHUNK + 17])
    def test_a_line_around_or_past_one_read_chunk_reads_whole(self, tmp_path, extra):
        path = tmp_path / "log.jsonl"
        first = b"{}\n"
        body = b'{"k":"' + b"x" * (store_module._LINE_CHUNK + extra - 9) + b'"}\n'
        assert len(body) == store_module._LINE_CHUNK + extra
        path.write_bytes(first + body + b'{"k":"next"}\n')
        log = store_module.JsonlLog(str(path), "k")
        assert log.read_line(0) == first
        assert log.read_line(len(first)) == body

    def test_a_payload_longer_than_a_read_chunk_is_a_hit(self, tmp_path):
        root = str(tmp_path / "cache")
        payload = {"cell_id": "long", "error": "e" * (3 * store_module._LINE_CHUNK)}
        with closing(ResultCache(root)) as writer:
            writer.put("a" * 64, payload)
        assert ResultCache(root).get("a" * 64) == payload

    def test_a_torn_final_line_reads_as_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        with closing(ResultCache(str(root))) as writer:
            writer.put("a" * 64, {"status": "ok"})
            writer.put("b" * 64, {"status": "ok"})
        (segment,) = segments(root)
        reader = ResultCache(str(root))
        assert reader.get("b" * 64) == {"status": "ok"}  # indexed while whole
        data = segment.read_bytes()
        segment.write_bytes(data[:-9])  # the final line loses its tail
        log = store_module.JsonlLog(str(segment), "k")
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        assert log.read_line(start) == data[start:-9]  # as far as it goes
        assert reader.get("b" * 64) is None
        assert ResultCache(str(root)).get("b" * 64) is None
        assert reader.get("a" * 64) == {"status": "ok"}

    def test_hits_and_misses_leave_no_descriptor_open(self, tmp_path):
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd")
        root = str(tmp_path / "cache")
        keys = [format(k, "x").rjust(64, "0") for k in range(50)]
        with closing(ResultCache(root)) as writer:
            for k, key in enumerate(keys):
                writer.put(key, {"k": k})
        reader = ResultCache(root)
        assert reader.get(keys[0]) == {"k": 0}  # builds the index
        before = len(os.listdir(fd_dir))
        for k in range(500):
            assert reader.get(keys[k % 50]) == {"k": k % 50}
            assert reader.get("f" * 64) is None
        assert len(os.listdir(fd_dir)) == before


def segments(root):
    """The cache's segment files under ``root``, in creation order."""
    return sorted(root.glob(cache_module.SEGMENT_PREFIX + "*.jsonl"))


def fail_nth_write(monkeypatch, n, path_suffix=".jsonl"):
    """Make the ``n``-th line written to a matching log land half, then ENOSPC."""
    real_open = open
    writes = {"n": 0}

    def faulty_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if mode != "a+b" or not str(path).endswith(path_suffix):
            return handle
        return _CountingWriteFile(handle, writes, n)

    monkeypatch.setattr(store_module, "open", faulty_open, raising=False)
    return writes


class TestResultCacheCrashSafety:
    """A torn append can never publish a torn entry or hide the old one."""

    def test_interrupted_write_leaves_the_old_entry_intact(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        key = "c" * 64
        cache.put(key, {"cell_id": "old", "status": "ok"})
        cache.close()  # the next put re-opens the segment

        fail_nth_write(monkeypatch, 1)
        with pytest.raises(OSError):
            cache.put(key, {"cell_id": "new", "status": "ok"})
        monkeypatch.undo()

        (segment,) = segments(root)
        assert not segment.read_bytes().endswith(b"\n")  # a torn line is on disk
        # the old entry still answers, in the writer and in a fresh reader
        assert cache.get(key) == {"cell_id": "old", "status": "ok"}
        assert ResultCache(str(root)).get(key) == {"cell_id": "old", "status": "ok"}
        assert [p.name for p in root.iterdir()] == [segment.name]  # no stray file
        # the next put repairs the torn tail before it appends
        cache.put(key, {"cell_id": "new", "status": "ok"})
        cache.close()
        lines = segment.read_text().splitlines()
        assert [json.loads(line)["v"]["cell_id"] for line in lines] == ["old", "new"]
        assert ResultCache(str(root)).get(key) == {"cell_id": "new", "status": "ok"}

    def test_interrupted_first_write_reads_as_miss(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        key = "d" * 64
        fail_nth_write(monkeypatch, 1)
        with pytest.raises(OSError):
            cache.put(key, {"cell_id": "x", "status": "ok"})
        monkeypatch.undo()

        assert cache.get(key) is None
        assert key not in cache
        assert ResultCache(str(root)).get(key) is None
        assert len(segments(root)) == 1 and len(list(root.iterdir())) == 1


class TestResultCacheConcurrency:
    """Two processes sharing one cache root: interleaved get/put must never
    raise or surface a corrupt payload (the serve server and a local campaign
    share the memo exactly this way)."""

    WORKER = r"""
import json, os, sys
sys.path.insert(0, {src!r})
from repro.lab.cache import ResultCache

root, worker_id, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = ResultCache(root)
keys = [format(k, "x").rjust(64, "0") for k in range(8)]
payloads = {{key: {{"cell_id": key[:8], "status": "ok", "outputs": list(range(50))}}
            for key in keys}}
errors = 0
for round_no in range(rounds):
    for key in keys:
        cache.put(key, payloads[key])
        value = cache.get(key)
        if value is not None and value != payloads[key]:
            errors += 1  # a torn or foreign payload — the failure we test for
print(json.dumps({{"worker": worker_id, "errors": errors}}))
"""

    def test_two_processes_interleave_without_corruption(self, tmp_path):
        import os
        import subprocess
        import sys
        import textwrap

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        script = textwrap.dedent(self.WORKER).format(src=src)
        root = str(tmp_path / "cache")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, root, str(worker_id), "40"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker_id in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            report = json.loads(out)
            assert report["errors"] == 0
        cache = ResultCache(root)
        assert len(cache) == 8
        for k in range(8):
            key = format(k, "x").rjust(64, "0")
            value = cache.get(key)
            assert value is not None and value["cell_id"] == key[:8]


class TestResultStore:
    def row(self, cell_id="c1", **overrides):
        kwargs = dict(
            cell_id=cell_id,
            spec="minimum",
            strategy="auto",
            input=(1, 2),
            engine="python",
            config=RunConfig(seed=3).to_dict(),
            status="ok",
            expected=1,
            outputs=(1, 1),
            output_mode=1,
            output_unanimous=True,
            converged=True,
            correct=True,
            mean_steps=2.0,
            total_steps=4,
            wall_time=0.5,
        )
        kwargs.update(overrides)
        return CellResult(**kwargs)

    @pytest.fixture()
    def store(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        try:
            yield store
        finally:
            store.close()

    def test_append_and_load_round_trip(self, store):
        store.append(self.row("c1"))
        store.append(self.row("c2", status="error", error="Boom: x", outputs=()))
        rows = store.load()
        assert [r.cell_id for r in rows] == ["c1", "c2"]
        assert rows[0] == self.row("c1")
        assert store.completed_ids() == {"c1", "c2"}

    def test_torn_final_line_is_ignored(self, store):
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            handle.write('{"cell_id": "c2", "trunc')  # kill -9 mid-write
        assert store.completed_ids() == {"c1"}

    def test_duplicate_cell_id_last_write_wins(self, store):
        store.append(self.row("c1", output_mode=1))
        store.append(self.row("c2"))
        store.append(self.row("c1", output_mode=7))  # re-executed after a reclaim
        rows = store.load()
        assert [r.cell_id for r in rows] == ["c2", "c1"]  # file order of the winners
        assert rows[1].output_mode == 7
        assert store.completed_ids() == {"c1", "c2"}
        assert len(store) == 2
        assert store.last_scan.duplicates == 1
        assert store.last_scan.corrupt_total == 0

    def test_dedupe_false_restores_the_raw_view(self, store):
        store.append(self.row("c1", output_mode=1))
        store.append(self.row("c1", output_mode=7))
        raw = list(store.iter_rows(dedupe=False))
        assert [r.output_mode for r in raw] == [1, 7]

    def test_interior_corrupt_line_warns_and_is_counted(self, store):
        store.append(self.row("c1"))
        store.append(self.row("c2"))
        with open(store.path) as handle:
            lines = handle.readlines()
        lines[0] = '{"cell_id": "c1", "trunc\n'  # torn line buried mid-file
        with open(store.path, "w") as handle:
            handle.writelines(lines)
        with pytest.warns(UserWarning, match="corrupt"):
            rows = store.load()
        assert [r.cell_id for r in rows] == ["c2"]
        assert store.last_scan.corrupt_interior == 1
        assert store.last_scan.corrupt_tail == 0
        # c1 is no longer completed, so a resume re-runs it instead of
        # silently dropping it
        with pytest.warns(UserWarning):
            assert store.completed_ids() == {"c2"}

    def test_torn_tail_stays_silent(self, store):
        # an interrupted append is the *expected* crash artifact, not damage
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            handle.write('{"cell_id": "c2", "trunc')
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.completed_ids() == {"c1"}
        assert store.last_scan.corrupt_tail == 1
        assert store.last_scan.corrupt_interior == 0

    def test_fast_scan_plausible_but_unparseable_line_is_skipped(self, store):
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            # matches the cell_id fast-scan regex and ends in "}", but is not
            # JSON — iter_rows must skip and count it, not crash mid-stream
            handle.write('{"cell_id":"zz",garbage}\n')
        store.append(self.row("c2"))
        rows = store.load()
        assert {r.cell_id for r in rows} == {"c1", "c2"}
        assert store.last_scan.corrupt_interior == 1

    def asdict_view(self, row):
        expected = dataclasses.asdict(row)
        expected["input"] = list(row.input)
        expected["outputs"] = list(row.outputs)
        return expected

    def test_to_dict_equals_asdict_for_ok_error_and_cached_rows(self):
        rows = [
            self.row("c1", cpu_time=0.25, worker=123),
            self.row("c2", status="error", error="Boom: x", outputs=(), output_mode=None),
            CellResult.from_dict(dict(self.row("c3").deterministic_dict(), cached=True)),
        ]
        for row in rows:
            assert row.to_dict() == self.asdict_view(row)

    def test_mutating_to_dict_leaves_the_row_unchanged(self):
        row = self.row("c1")
        before = row.to_dict()
        data = row.to_dict()
        data["config"]["trials"] = 99
        data["outputs"].append(7)
        data["input"][0] = 42
        assert row.to_dict() == before
        assert row.config == RunConfig(seed=3).to_dict()

    def test_append_returns_the_row_it_wrote(self, store):
        row = self.row("c1")
        assert store.append(row) == row.to_dict()
        with open(store.path) as handle:
            assert json.loads(handle.read()) == row.to_dict()

    def test_append_after_torn_tail_starts_a_fresh_line(self, store):
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            handle.write('{"cached":false,"cell_id":"c2","con')  # kill -9 mid-write
        assert store.completed_ids() == {"c1"}
        store.append(self.row("c2"))
        assert [r.cell_id for r in store.load()] == ["c1", "c2"]
        assert store.last_scan.corrupt_total == 0
        assert store.completed_ids() == {"c1", "c2"}

    def test_append_keeps_a_complete_row_that_lost_its_newline(self, store):
        store.append(self.row("c1"))
        store.append(self.row("c2"))
        with open(store.path, "rb+") as handle:
            handle.truncate(handle.seek(0, 2) - 1)  # drop only the final newline
        assert store.completed_ids() == {"c1", "c2"}
        store.append(self.row("c3"))
        assert [r.cell_id for r in store.load()] == ["c1", "c2", "c3"]
        assert store.last_scan.corrupt_total == 0

    def test_deterministic_dict_drops_provenance_only(self):
        row = self.row(cached=True)
        deterministic = row.deterministic_dict()
        assert "wall_time" not in deterministic and "cached" not in deterministic
        assert deterministic["outputs"] == [1, 1]
        rebuilt = CellResult.from_dict(deterministic)
        assert rebuilt.wall_time == 0.0 and rebuilt.cached is False
        assert rebuilt.deterministic_dict() == deterministic


def tiny_campaign(seed=9):
    return Campaign(
        name="cache-test",
        specs=["minimum"],
        inputs=SweepGrid.parse("0:3", dimension=2),
        engines=("python",),
        configs=(RunConfig(trials=2),),
        seed=seed,
    )


def canonical_rows(rows):
    return [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for r in rows]


class TestCampaignCacheAndResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_campaign(tiny_campaign(), str(tmp_path / "out1"), cache_dir=cache_dir)
        assert first.executed == first.total_cells == 9
        second = run_campaign(tiny_campaign(), str(tmp_path / "out2"), cache_dir=cache_dir)
        assert second.executed == 0
        assert second.from_cache == second.total_cells
        assert second.summary.cache_hits == second.total_cells
        assert [r.deterministic_dict() for r in first.results] == [
            r.deterministic_dict() for r in second.results
        ]

    def test_results_equal_the_rows_on_disk(self, tmp_path):
        # results are collected in memory, not re-read: they must still be
        # exactly what the store holds, for executed and replayed rows alike
        cache_dir = str(tmp_path / "cache")
        for out in ("cold", "replay"):
            run = run_campaign(tiny_campaign(), str(tmp_path / out), cache_dir=cache_dir)
            on_disk = ResultStore(str(tmp_path / out / "results.jsonl")).load()
            assert canonical_rows(run.results) == canonical_rows(on_disk)
        cold = ResultStore(str(tmp_path / "cold" / "results.jsonl")).load()
        replay = ResultStore(str(tmp_path / "replay" / "results.jsonl")).load()
        assert all(row.cached for row in replay)
        assert [r.deterministic_dict() for r in cold] == [
            r.deterministic_dict() for r in replay
        ]

    def test_a_cold_campaign_refreshes_a_shared_cache_once(self, tmp_path, monkeypatch):
        # Over a root shared with S other writers, a refresh per missed cell
        # would cost cells x (S + 1) listdir/stat calls; one refresh per
        # campaign costs O(S + cells).
        shared = tmp_path / "shared"
        shared.mkdir()
        foreign = 200
        for n in range(foreign):
            line = json.dumps({"k": format(n, "x").rjust(64, "f"), "v": {"cell_id": f"other-{n}"}})
            name = f"{cache_module.SEGMENT_PREFIX}{n:016x}-1-{n:08x}.jsonl"
            (shared / name).write_text(line + "\n")
        calls = {"listdir": 0, "stat": 0}
        real_listdir, real_stat = os.listdir, os.stat

        def counting(name, real):
            def call(path, *args, **kwargs):
                if str(path).startswith(str(shared)):
                    calls[name] += 1
                return real(path, *args, **kwargs)

            return call

        monkeypatch.setattr(os, "listdir", counting("listdir", real_listdir))
        monkeypatch.setattr(os, "stat", counting("stat", real_stat))
        campaign = dataclasses.replace(tiny_campaign(), inputs=SweepGrid.parse("0:5,0:10"))
        run = run_campaign(campaign, str(tmp_path / "out"), cache_dir=str(shared))
        monkeypatch.undo()
        cells = run.total_cells
        assert cells == run.executed == 50
        assert calls["listdir"] + calls["stat"] <= 2 * (foreign + cells)
        alone = run_campaign(campaign, str(tmp_path / "alone"), cache_dir=str(tmp_path / "own"))
        assert [r.deterministic_dict() for r in run.results] == [
            r.deterministic_dict() for r in alone.results
        ]

    def test_cache_replay_never_walks_the_cache(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        run_campaign(tiny_campaign(), str(tmp_path / "cold"), cache_dir=cache_dir)

        def walk(self):
            raise AssertionError("ResultCache.__len__ walked the cache directory")

        monkeypatch.setattr(ResultCache, "__len__", walk)
        assert ResultCache(str(tmp_path / "empty"))  # truthy even when empty
        replay = run_campaign(tiny_campaign(), str(tmp_path / "replay"), cache_dir=cache_dir)
        assert replay.from_cache == replay.total_cells
        assert "empty" in repr(ResultCache(str(tmp_path / "empty")))

    def test_cold_run_serializes_each_row_once_and_scans_once(self, tmp_path, monkeypatch):
        calls = {"to_dict": 0, "iter_rows": 0}
        to_dict, iter_rows = CellResult.to_dict, ResultStore.iter_rows

        def counting_to_dict(self):
            calls["to_dict"] += 1
            return to_dict(self)

        def counting_iter_rows(self, *args, **kwargs):
            calls["iter_rows"] += 1
            return iter_rows(self, *args, **kwargs)

        monkeypatch.setattr(CellResult, "to_dict", counting_to_dict)
        monkeypatch.setattr(ResultStore, "iter_rows", counting_iter_rows)
        run = run_campaign(tiny_campaign(), str(tmp_path / "out"), cache_dir=str(tmp_path / "c"))
        assert run.executed == 9
        assert calls == {"to_dict": 9, "iter_rows": 1}
        assert len(ResultCache(str(tmp_path / "c"))) == 9

    def test_resume_after_torn_final_row_completes_exactly_once(self, tmp_path):
        campaign = Campaign(
            name="torn",
            specs=["minimum"],
            inputs=SweepGrid.parse("0:3,0:2"),
            engines=("python",),
            configs=(RunConfig(trials=2),),
            seed=5,
        )
        out = str(tmp_path / "out")
        full = run_campaign(campaign, out, cache_dir=None)
        assert full.total_cells == 6
        store_path = tmp_path / "out" / "results.jsonl"
        text = store_path.read_text()
        store_path.write_text(text[:-25])  # kill -9 mid-append of the last row

        first = run_campaign(campaign, out, cache_dir=None)
        assert first.executed == 1
        assert len(first.results) == 6
        second = run_campaign(campaign, out, cache_dir=None)
        assert second.executed == 0 and second.already_done == 6
        assert [r.deterministic_dict() for r in second.results] == [
            r.deterministic_dict() for r in full.results
        ]

    def test_rerun_into_same_dir_skips_done_cells(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(tiny_campaign(), out, cache_dir=None)
        events = []
        again = run_campaign(
            tiny_campaign(),
            out,
            cache_dir=None,
            progress=lambda result, source: events.append(source),
        )
        assert again.already_done == again.total_cells
        assert again.executed == 0 and again.from_cache == 0
        # already-recorded cells are reported too, so progress reaches 100%
        assert events == ["done"] * again.total_cells

    def test_resume_after_interrupt_runs_only_the_remainder(self, tmp_path):
        out = str(tmp_path / "out")
        full = run_campaign(tiny_campaign(), out, cache_dir=None)
        before = [r.deterministic_dict() for r in full.results]
        # simulate a kill mid-run: keep only the first 4 completed rows
        store_path = str(tmp_path / "out" / "results.jsonl")
        with open(store_path) as handle:
            lines = handle.readlines()
        with open(store_path, "w") as handle:
            handle.writelines(lines[:4])
        resumed = run_campaign(tiny_campaign(), out, cache_dir=None)
        assert resumed.already_done == 4
        assert resumed.executed == resumed.total_cells - 4
        assert [r.deterministic_dict() for r in resumed.results] == before

    def test_resume_after_interior_corruption_reruns_only_damaged_cells(self, tmp_path):
        out = str(tmp_path / "out")
        full = run_campaign(tiny_campaign(), out, cache_dir=None)
        before = [r.deterministic_dict() for r in full.results]
        store_path = tmp_path / "out" / "results.jsonl"
        lines = store_path.read_text().splitlines(keepends=True)
        lines[2] = '{"cell_id": "mangled-by-a-disk-fault\n'  # interior damage
        store_path.write_text("".join(lines))

        with pytest.warns(UserWarning, match="corrupt"):
            resumed = run_campaign(tiny_campaign(), out, cache_dir=None)
        # only the damaged cell re-ran, and the merged view has no duplicates
        assert resumed.already_done == 8
        assert resumed.executed == 1
        assert [r.deterministic_dict() for r in resumed.results] == before
        row_ids = [r.cell_id for r in resumed.results]
        assert len(set(row_ids)) == len(row_ids)
        # the skip is surfaced, not silent: summary counter + report line
        assert resumed.summary.corrupt_lines_skipped == 1
        from repro.lab.aggregate import format_report

        assert "corrupt" in format_report(resumed.summary)

    def test_unseeded_cells_never_touch_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        campaign = tiny_campaign(seed=None)
        first = run_campaign(campaign, str(tmp_path / "o1"), cache_dir=cache_dir)
        second = run_campaign(campaign, str(tmp_path / "o2"), cache_dir=cache_dir)
        assert first.executed == second.executed == first.total_cells
        assert second.from_cache == 0
        assert len(ResultCache(cache_dir)) == 0

    def test_error_rows_count_as_done_by_default(self, tmp_path):
        campaign = Campaign(
            name="err",
            specs=[("minimum", "no-such-strategy")],
            inputs=[(1, 1), (2, 2)],
            engines=("python",),
            seed=3,
        )
        out = str(tmp_path / "out")
        first = run_campaign(campaign, out, cache_dir=None)
        assert first.summary.errors == 2
        again = run_campaign(campaign, out, cache_dir=None)
        assert again.already_done == 2 and again.executed == 0

    def test_retry_errors_reexecutes_error_rows_only(self, tmp_path):
        bad = Campaign(
            name="mixed",
            specs=[("minimum", "no-such-strategy"), ("minimum", "known")],
            inputs=[(1, 1)],
            engines=("python",),
            seed=3,
        )
        out = str(tmp_path / "out")
        first = run_campaign(bad, out, cache_dir=None)
        assert first.summary.errors == 1 and first.summary.ok == 1
        retried = run_campaign(bad, out, cache_dir=None, retry_errors=True)
        assert retried.already_done == 1  # the ok row stays done
        assert retried.executed == 1      # only the error row re-ran
        # the retried row supersedes the old one in the collected results
        assert len(retried.results) == 2

    def test_timeout_race_alarm_after_return_still_yields_error_row(self):
        # direct check of the race guard: CellTimeoutError escaping run_cell
        # must be folded into an error row by run_cell_with_timeout
        from repro.lab import executor as executor_module
        from repro.lab.executor import run_cell_with_timeout

        cells = tiny_campaign().expand()

        def explode(cell):
            raise executor_module.CellTimeoutError("late alarm")

        original = executor_module.run_cell
        executor_module.run_cell = explode
        try:
            result = run_cell_with_timeout(cells[0], timeout=5.0)
        finally:
            executor_module.run_cell = original
        assert result.status == "error"
        assert "CellTimeoutError" in result.error

    def test_different_campaign_in_same_dir_rejected(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(tiny_campaign(seed=9), out, cache_dir=None)
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(tiny_campaign(seed=10), out, cache_dir=None)

    def test_summary_written_next_to_store(self, tmp_path):
        out = tmp_path / "out"
        run = run_campaign(tiny_campaign(), str(out), cache_dir=None)
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk == run.summary.to_dict()
        assert on_disk["correct_rate"] == 1.0


def disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device (injected)")


class _CountingWriteFile:
    """A log handle whose ``n``-th write (counted across handles) lands half
    its bytes, then fails with ENOSPC."""

    def __init__(self, handle, writes, n):
        self._handle = handle
        self._writes = writes
        self._n = n

    def write(self, data):
        self._writes["n"] += 1
        if self._writes["n"] != self._n:
            return self._handle.write(data)
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        disk_full()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class _FullDiskFile(_CountingWriteFile):
    """A whole-file handle whose first write lands half its bytes, then
    fails with ENOSPC."""

    def __init__(self, handle):
        super().__init__(handle, {"n": 0}, 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def fail_whole_file_writes(monkeypatch):
    """Make every file opened for writing fail at its first write (ENOSPC).

    ``open`` is patched in the store and in the modules that produce the
    campaign and bench files, so the fault lands on the write wherever it is
    made.  Returns the count of faulted opens.
    """
    real_open = open
    opened = {"n": 0}

    def faulty_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return handle
        opened["n"] += 1
        return _FullDiskFile(handle)

    for module in (store_module, campaign_module, aggregate_module):
        monkeypatch.setattr(module, "open", faulty_open, raising=False)
    return opened


def fail_fsync(monkeypatch, n, path_suffix=".jsonl"):
    """Make the ``n``-th commit of a matching log fail with ENOSPC."""
    real = store_module.JsonlLog._fsync
    calls = {"n": 0}

    def faulty(log, handle):
        if log.path.endswith(path_suffix):
            calls["n"] += 1
            if calls["n"] == n:
                disk_full()
        real(log, handle)

    monkeypatch.setattr(store_module.JsonlLog, "_fsync", faulty)
    return calls


def deterministic_rows(rows):
    return [
        json.dumps(r.deterministic_dict(), sort_keys=True, separators=(",", ":"))
        for r in rows
    ]


class TestWholeFiles:
    """``replace_file`` / ``write_json`` / ``read_json``: the store's whole-file I/O."""

    def test_write_json_renders_sorted_indented_with_a_newline(self, tmp_path):
        path = str(tmp_path / "f.json")
        store_module.write_json(path, {"b": [1, 2], "a": None})
        with open(path, "rb") as handle:
            assert handle.read() == b'{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'
        assert store_module.read_json(path) == {"a": None, "b": [1, 2]}

    @pytest.mark.parametrize("content", [None, b"", b'{"a": ', b"[1, 2]\n"])
    def test_read_json_is_none_unless_the_file_holds_an_object(self, tmp_path, content):
        path = tmp_path / "f.json"
        if content is not None:
            path.write_bytes(content)
        assert store_module.read_json(str(path)) is None

    def test_a_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "f.json"
        path.write_bytes(b"old")
        monkeypatch.setattr(store_module.os, "fsync", disk_full)
        with pytest.raises(OSError):
            store_module.replace_file(str(path), b"new")
        assert path.read_bytes() == b"old" and os.listdir(tmp_path) == ["f.json"]

    def test_replacing_with_the_same_bytes_writes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "f.json"
        store_module.replace_file(str(path), b"same")
        inode = os.stat(path).st_ino
        monkeypatch.setattr(store_module.os, "fsync", disk_full)
        store_module.replace_file(str(path), b"same")
        assert os.stat(path).st_ino == inode
        with pytest.raises(OSError):  # a longer file is a change
            store_module.replace_file(str(path), b"same+")


class TestDiskFullFaults:
    """ENOSPC in the durable writes must never leave a wrong row or cache hit."""

    @pytest.mark.parametrize("point", ["write", "fsync"])
    def test_cache_put_leaves_no_temp_file_and_no_hit(
        self, tmp_path, monkeypatch, point
    ):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        key = "e" * 64
        if point == "write":
            fail_nth_write(monkeypatch, 1)
        else:
            monkeypatch.setattr(store_module, "COMMIT_ROWS", 1)
            fail_fsync(monkeypatch, 1)
        with pytest.raises(OSError) as excinfo:
            cache.put(key, {"cell_id": "x", "status": "ok"})
        monkeypatch.undo()

        assert excinfo.value.errno == errno.ENOSPC
        assert [p.name for p in root.iterdir()] == [segments(root)[0].name]
        assert cache.get(key) is None and key not in cache  # the put failed
        # another reader sees a miss (torn write) or the complete line whose
        # fsync failed — never a torn payload
        fresh = ResultCache(str(root)).get(key)
        assert fresh == ({"cell_id": "x", "status": "ok"} if point == "fsync" else None)
        # the failure dropped the handle: the next put re-opens and repairs
        cache.put(key, {"cell_id": "x", "status": "ok"})
        cache.close()
        assert ResultCache(str(root)).get(key) == {"cell_id": "x", "status": "ok"}
        for line in segments(root)[0].read_text().splitlines():
            assert json.loads(line)["v"] == {"cell_id": "x", "status": "ok"}

    @pytest.mark.parametrize("point", ["write", "fsync", "close"])
    def test_store_append_fault_mid_campaign_resumes_to_the_clean_rows(
        self, tmp_path, monkeypatch, point
    ):
        """ENOSPC at the 5th row write, at a group-commit fsync, or at the
        final close fsync: resume yields the clean rows, then nothing runs."""
        clean = run_campaign(tiny_campaign(), str(tmp_path / "clean"), cache_dir=None)
        out, cache_dir = str(tmp_path / "out"), str(tmp_path / "cache")
        monkeypatch.setattr(store_module, "COMMIT_SECONDS", float("inf"))
        if point == "write":
            fault = fail_nth_write(monkeypatch, 5, path_suffix="results.jsonl")
        elif point == "fsync":
            monkeypatch.setattr(store_module, "COMMIT_ROWS", 3)
            fault = fail_fsync(monkeypatch, 2, path_suffix="results.jsonl")
        else:
            fault = fail_fsync(monkeypatch, 1, path_suffix="results.jsonl")
        with pytest.raises(OSError) as excinfo:
            run_campaign(tiny_campaign(), out, cache_dir=cache_dir)
        monkeypatch.undo()  # the disk has room again
        assert excinfo.value.errno == errno.ENOSPC
        assert fault["n"] == {"write": 5, "fsync": 2, "close": 1}[point]
        with open(os.path.join(out, "results.jsonl")) as handle:
            text = handle.read()
        # a torn half row, or complete rows whose fsync failed
        assert text.endswith("\n") == (point != "write")
        rows_on_disk = {"write": 4, "fsync": 6, "close": 9}[point]
        assert text.count("\n") == rows_on_disk

        resumed = run_campaign(tiny_campaign(), out, cache_dir=cache_dir)
        assert resumed.already_done == rows_on_disk
        assert deterministic_rows(resumed.results) == deterministic_rows(clean.results)
        store = ResultStore(os.path.join(out, "results.jsonl"))
        assert deterministic_rows(store.load()) == deterministic_rows(clean.results)
        assert store.last_scan.corrupt_total == 0
        again = run_campaign(tiny_campaign(), out, cache_dir=cache_dir)
        assert again.executed == 0 and again.from_cache == 0

    @pytest.mark.parametrize("point", ["write", "fsync"])
    def test_failed_append_drops_the_handle_and_the_next_one_repairs(
        self, tmp_path, monkeypatch, point
    ):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        row = TestResultStore().row
        store.append(row("c1"))
        opens = {"n": 0}
        real_open = open

        def counting_open(path, mode="r", *args, **kwargs):
            if mode == "a+b":
                opens["n"] += 1
            return real_open(path, mode, *args, **kwargs)

        if point == "write":
            fail_nth_write(monkeypatch, 1)
            store.close()
            with pytest.raises(OSError):
                store.append(row("c2"))
        else:
            fail_fsync(monkeypatch, 1)
            store.append(row("c2"))
            with pytest.raises(OSError):
                store.close()
        monkeypatch.undo()
        monkeypatch.setattr(store_module, "open", counting_open, raising=False)
        store.append(row("c3"))
        store.close()
        assert opens["n"] == 1  # the failure dropped the handle
        expected = ["c1", "c3"] if point == "write" else ["c1", "c2", "c3"]
        assert [r.cell_id for r in store.load()] == expected
        assert store.last_scan.corrupt_total == 0

    def test_manifest_write_fault_leaves_a_runnable_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        """ENOSPC in the first ``manifest.json`` write leaves no torn
        manifest: the directory reruns, resumes and reports the clean rows."""
        clean = run_campaign(tiny_campaign(), str(tmp_path / "clean"), cache_dir=None)
        out = str(tmp_path / "out")
        with monkeypatch.context() as patch:
            faults = fail_whole_file_writes(patch)
            with pytest.raises(OSError) as excinfo:
                run_campaign(tiny_campaign(), out, cache_dir=None)
        assert excinfo.value.errno == errno.ENOSPC and faults["n"] == 1
        assert os.listdir(out) == []  # no torn manifest, no temp file

        rerun = run_campaign(tiny_campaign(), out, cache_dir=None)
        assert rerun.executed == rerun.total_cells
        resumed = resume_campaign(out, cache_dir=None)
        assert resumed.already_done == resumed.total_cells
        assert cli.main(["report", out]) == 0
        assert f"(ok {clean.total_cells}, errors 0" in capsys.readouterr().out
        assert deterministic_rows(resumed.results) == deterministic_rows(clean.results)

    def test_bench_merge_fault_keeps_the_previous_file(self, tmp_path, monkeypatch):
        """ENOSPC in a ``write_bench_json(merge=True)`` leaves the previous
        file byte-identical, and the next merge keeps every earlier record."""
        path = str(tmp_path / "BENCH_results.json")
        earlier = [make_bench_record(f"campaign/{k}", 10, 0.5, 100) for k in range(3)]
        write_bench_json(path, earlier, source="test", merge=True)
        with open(path, "rb") as handle:
            before = handle.read()
        with monkeypatch.context() as patch:
            faults = fail_whole_file_writes(patch)
            with pytest.raises(OSError) as excinfo:
                write_bench_json(
                    path, [make_bench_record("campaign/0", 10, 0.25, 100)],
                    source="test", merge=True,
                )
        assert excinfo.value.errno == errno.ENOSPC and faults["n"] == 1
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["BENCH_results.json"]  # no temp file

        write_bench_json(
            path, [make_bench_record("kernel/x", 10, 0.5, 100)], source="test", merge=True
        )
        with open(path, encoding="utf-8") as handle:
            names = [record["name"] for record in json.load(handle)["results"]]
        assert names == ["campaign/0", "campaign/1", "campaign/2", "kernel/x"]


class _Crash(BaseException):
    """A simulated power cut: stops the writer wherever it is."""


class CrashPoints:
    """Crash-point injection over :class:`~repro.lab.store.JsonlLog` commits
    and :func:`~repro.lab.store.replace_file` calls.

    Every fsync records the committed length of its file.  With ``crash_at=k``
    the ``k``-th crash point (counted from 0) raises :class:`_Crash` instead
    of syncing, and so does every later one: the writer stops there.  A
    whole-file replace stops before its rename: the old file stays, next to
    the half-written temp file a crash can leave.  :meth:`power_cut` then
    truncates every log to its last committed length — or, ``torn``, keeps
    half of the first uncommitted line as well, the mid-line state a crash
    can leave behind.  Commits happen every 2 lines and on close, so a small
    campaign crosses several commit boundaries.
    """

    def __init__(self, monkeypatch, crash_at=None):
        self.committed = {}
        self.replaced = []
        self.calls = 0
        self.crash_at = crash_at
        real_fsync = store_module.JsonlLog._fsync
        real_replace = store_module.replace_file

        def crash_point():
            if self.crash_at is not None and self.calls >= self.crash_at:
                raise _Crash()
            self.calls += 1

        def fsync(log, handle):
            crash_point()
            real_fsync(log, handle)
            self.committed[log.path] = os.fstat(handle.fileno()).st_size

        def replace_file(path, data):
            try:
                crash_point()
            except _Crash:
                directory, name = os.path.split(path)
                with open(os.path.join(directory, ".tmp-" + name + "-crash"), "wb") as temp:
                    temp.write(data[: len(data) // 2])
                raise
            real_replace(path, data)
            self.replaced.append(os.path.basename(path))

        monkeypatch.setattr(store_module.JsonlLog, "_fsync", fsync)
        monkeypatch.setattr(store_module, "replace_file", replace_file)
        monkeypatch.setattr(store_module, "COMMIT_ROWS", 2)
        monkeypatch.setattr(store_module, "COMMIT_SECONDS", float("inf"))

    def power_cut(self, root, torn):
        for path in root.rglob("*.jsonl"):
            data = path.read_bytes()
            keep = self.committed.get(str(path), 0)
            if torn and keep < len(data):
                newline = data.find(b"\n", keep)
                line_end = newline + 1 if newline >= 0 else len(data)
                keep += max(1, (line_end - keep) // 2)
            path.write_bytes(data[:keep])


def cache_payloads(cells, rows):
    return {
        cell.cache_key(): row.deterministic_dict()
        for cell, row in zip(cells, rows)
        if cell.cacheable and row.ok
    }


def assert_cache_never_wrong(cache_dir, payloads):
    reader = ResultCache(cache_dir)
    for key, payload in payloads.items():
        assert reader.get(key) in (None, payload)


def dry_run(monkeypatch, workload):
    """Run ``workload`` once without crashing; the :class:`CrashPoints` it crossed."""
    with monkeypatch.context() as patch:
        points = CrashPoints(patch)
        workload()
    return points


class TestCrashPoints:
    """Simulated crashes at every commit boundary, mid-line and before every
    whole-file rename (ALICE-style): resume always converges on the clean
    rows, and the cache never answers with a torn or foreign payload."""

    @pytest.mark.parametrize("torn", [False, True], ids=["boundary", "mid-line"])
    def test_cold_campaign(self, tmp_path, monkeypatch, torn):
        campaign = tiny_campaign()
        cells = campaign.expand()
        clean = run_campaign(campaign, str(tmp_path / "clean"), cache_dir=None)
        payloads = cache_payloads(cells, clean.results)
        dry = dry_run(
            monkeypatch,
            lambda: run_campaign(
                campaign, str(tmp_path / "dry"), cache_dir=str(tmp_path / "dry-c")
            ),
        )
        # provenance.json is published at the start and at the end
        assert dry.replaced == [
            "manifest.json", "provenance.json", "summary.json", "provenance.json"
        ]
        total = dry.calls
        assert total >= 8 + 3  # store and cache each commit every 2 rows and on close
        for k in range(total):
            root = tmp_path / f"crash-{k}"
            out, cache_dir = str(root / "out"), str(root / "cache")
            with monkeypatch.context() as patch:
                points = CrashPoints(patch, crash_at=k)
                with pytest.raises(_Crash):
                    run_campaign(campaign, out, cache_dir=cache_dir)
            points.power_cut(root, torn)
            assert_cache_never_wrong(cache_dir, payloads)

            resumed = run_campaign(campaign, out, cache_dir=cache_dir)
            assert deterministic_rows(resumed.results) == deterministic_rows(clean.results)
            raw = list(ResultStore(os.path.join(out, "results.jsonl")).iter_rows(dedupe=False))
            assert sorted(r.cell_id for r in raw) == sorted(c.cell_id for c in cells)
            assert_cache_never_wrong(cache_dir, payloads)
            assert Campaign.load(os.path.join(out, "manifest.json")) == campaign
            for name in ("provenance.json", "summary.json"):
                assert store_module.read_json(os.path.join(out, name)) is not None

    @pytest.mark.parametrize("torn", [False, True], ids=["boundary", "mid-line"])
    def test_cache_replay(self, tmp_path, monkeypatch, torn):
        campaign = tiny_campaign()
        cache_dir = str(tmp_path / "cache")
        warm = run_campaign(campaign, str(tmp_path / "warm"), cache_dir=cache_dir)
        payloads = cache_payloads(campaign.expand(), warm.results)
        total = dry_run(
            monkeypatch,
            lambda: run_campaign(campaign, str(tmp_path / "dry"), cache_dir=cache_dir),
        ).calls
        assert total >= 4  # the replayed store commits every 2 rows and on close
        for k in range(total):
            out = tmp_path / f"replay-{k}"
            with monkeypatch.context() as patch:
                points = CrashPoints(patch, crash_at=k)
                with pytest.raises(_Crash):
                    run_campaign(campaign, str(out), cache_dir=cache_dir)
            points.power_cut(out, torn)

            resumed = run_campaign(campaign, str(out), cache_dir=cache_dir)
            assert resumed.executed == 0
            assert deterministic_rows(resumed.results) == deterministic_rows(warm.results)
            raw = list(ResultStore(str(out / "results.jsonl")).iter_rows(dedupe=False))
            assert len({r.cell_id for r in raw}) == len(raw) == warm.total_cells
        assert_cache_never_wrong(cache_dir, payloads)

    @pytest.mark.parametrize("torn", [False, True], ids=["boundary", "mid-line"])
    def test_interleaved_serve_puts_and_gets(self, tmp_path, monkeypatch, torn):
        """Two servers sharing one root: miss -> put on one, hit on the other."""
        keys = [format(k, "x").rjust(64, "0") for k in range(10)]
        payloads = {key: {"cell_id": key[-4:], "outputs": list(range(k))}
                    for k, key in enumerate(keys)}

        def serve(root):
            # a crash still releases both handles, without a commit
            with closing(ResultCache(root)) as first, closing(ResultCache(root)) as second:
                servers = [first, second]
                for k, key in enumerate(keys):
                    mine, other = servers[k % 2], servers[1 - k % 2]
                    if mine.get(key) is None:
                        mine.put(key, payloads[key])
                    assert other.get(key) == payloads[key]  # live cross-process view

        total = dry_run(monkeypatch, lambda: serve(str(tmp_path / "dry"))).calls
        assert total >= 6
        for k in range(total):
            root = tmp_path / f"serve-{k}"
            with monkeypatch.context() as patch:
                points = CrashPoints(patch, crash_at=k)
                with pytest.raises(_Crash):
                    serve(str(root))
            points.power_cut(root, torn)
            assert_cache_never_wrong(str(root), payloads)
            serve(str(root))  # restart: misses recompute, hits replay
            reader = ResultCache(str(root))
            assert {key: reader.get(key) for key in keys} == payloads
