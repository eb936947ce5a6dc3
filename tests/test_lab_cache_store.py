"""Cache keys, the content-addressed cache, the JSONL store, and resume."""

import dataclasses
import errno
import json
import os

import pytest

from repro.api.config import RunConfig
from repro.core.specs import FunctionSpec
from repro.lab import cache as cache_module
from repro.lab import store as store_module
from repro.lab.cache import ResultCache, cell_cache_key, spec_fingerprint
from repro.lab.campaign import Campaign, SweepGrid, run_campaign
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


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, {"cell_id": "x", "status": "ok"})
        assert cache.get("a" * 64) == {"cell_id": "x", "status": "ok"}
        assert ("a" * 64) in cache
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("b" * 64, {"status": "ok"})
        with open(cache._path("b" * 64), "w") as handle:
            handle.write("{not json")
        assert cache.get("b" * 64) is None


class TestResultCacheCrashSafety:
    """put() is temp-file + os.replace: a crash can never publish a torn entry."""

    def test_interrupted_write_leaves_the_old_entry_intact(self, tmp_path, monkeypatch):
        """A writer killed mid-write (before the rename) must change nothing."""
        import json as json_module

        cache = ResultCache(str(tmp_path / "cache"))
        key = "c" * 64
        cache.put(key, {"cell_id": "old", "status": "ok"})

        original_dump = json_module.dump
        written = {"bytes": 0}

        def partial_dump(payload, handle, **kwargs):
            # simulate the process dying after half the payload is on disk
            text = json_module.dumps(payload, **kwargs)
            handle.write(text[: len(text) // 2])
            written["bytes"] = len(text) // 2
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(json_module, "dump", partial_dump)
        with pytest.raises(OSError, match="simulated crash"):
            cache.put(key, {"cell_id": "new", "status": "ok"})
        monkeypatch.setattr(json_module, "dump", original_dump)

        assert written["bytes"] > 0  # the injection really wrote a partial payload
        # the published entry is the complete old payload, not the torn new one
        assert cache.get(key) == {"cell_id": "old", "status": "ok"}
        # and the aborted temp file was cleaned up
        shard = tmp_path / "cache" / key[:2]
        assert [p.name for p in shard.iterdir()] == [key + ".json"]

    def test_interrupted_first_write_reads_as_miss(self, tmp_path, monkeypatch):
        import json as json_module

        cache = ResultCache(str(tmp_path / "cache"))
        key = "d" * 64

        def exploding_dump(payload, handle, **kwargs):
            handle.write('{"cell_id": "tor')  # a torn prefix
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(json_module, "dump", exploding_dump)
        with pytest.raises(OSError):
            cache.put(key, {"cell_id": "x", "status": "ok"})
        monkeypatch.setattr(json_module, "dump", json_module.dump)

        assert cache.get(key) is None
        assert key not in cache


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

    def test_append_and_load_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self.row("c1"))
        store.append(self.row("c2", status="error", error="Boom: x", outputs=()))
        rows = store.load()
        assert [r.cell_id for r in rows] == ["c1", "c2"]
        assert rows[0] == self.row("c1")
        assert store.completed_ids() == {"c1", "c2"}

    def test_torn_final_line_is_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            handle.write('{"cell_id": "c2", "trunc')  # kill -9 mid-write
        assert store.completed_ids() == {"c1"}

    def test_duplicate_cell_id_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
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

    def test_dedupe_false_restores_the_raw_view(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self.row("c1", output_mode=1))
        store.append(self.row("c1", output_mode=7))
        raw = list(store.iter_rows(dedupe=False))
        assert [r.output_mode for r in raw] == [1, 7]

    def test_interior_corrupt_line_warns_and_is_counted(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self.row("c1"))
        store.append(self.row("c2"))
        lines = open(store.path).readlines()
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

    def test_torn_tail_stays_silent(self, tmp_path):
        # an interrupted append is the *expected* crash artifact, not damage
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            handle.write('{"cell_id": "c2", "trunc')
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.completed_ids() == {"c1"}
        assert store.last_scan.corrupt_tail == 1
        assert store.last_scan.corrupt_interior == 0

    def test_fast_scan_plausible_but_unparseable_line_is_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
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

    def test_append_returns_the_row_it_wrote(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        row = self.row("c1")
        assert store.append(row) == row.to_dict()
        with open(store.path) as handle:
            assert json.loads(handle.read()) == row.to_dict()

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self.row("c1"))
        with open(store.path, "a") as handle:
            handle.write('{"cached":false,"cell_id":"c2","con')  # kill -9 mid-write
        assert store.completed_ids() == {"c1"}
        store.append(self.row("c2"))
        assert [r.cell_id for r in store.load()] == ["c1", "c2"]
        assert store.last_scan.corrupt_total == 0
        assert store.completed_ids() == {"c1", "c2"}

    def test_append_keeps_a_complete_row_that_lost_its_newline(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
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


class _OsWithFaultyFsync:
    """The ``os`` module as one module sees it, with ``fsync`` replaced."""

    def __init__(self, fsync):
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(os, name)


class _TornWriteFile:
    """A file whose ``write`` lands half its bytes, then fails with ENOSPC."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        disk_full()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestDiskFullFaults:
    """ENOSPC in the durable writes must never leave a wrong row or cache hit."""

    @pytest.mark.parametrize("point", ["write", "fsync"])
    def test_cache_put_leaves_no_temp_file_and_no_hit(
        self, tmp_path, monkeypatch, point
    ):
        def torn_dump(payload, handle, **kwargs):
            text = json.dumps(payload, **kwargs)
            handle.write(text[: len(text) // 2])
            disk_full()

        cache = ResultCache(str(tmp_path / "cache"))
        key = "e" * 64
        if point == "write":
            monkeypatch.setattr(json, "dump", torn_dump)
        else:
            monkeypatch.setattr(cache_module, "os", _OsWithFaultyFsync(disk_full))
        with pytest.raises(OSError) as excinfo:
            cache.put(key, {"cell_id": "x", "status": "ok"})
        monkeypatch.undo()

        assert excinfo.value.errno == errno.ENOSPC
        shard = tmp_path / "cache" / key[:2]
        assert [p.name for p in shard.iterdir()] == []  # no .tmp- leftover
        assert cache.get(key) is None and key not in cache

    @pytest.mark.parametrize("point", ["write", "fsync"])
    def test_store_append_fault_mid_campaign_resumes_to_the_clean_rows(
        self, tmp_path, monkeypatch, point
    ):
        clean = run_campaign(tiny_campaign(), str(tmp_path / "clean"), cache_dir=None)
        out, cache_dir = str(tmp_path / "out"), str(tmp_path / "cache")
        appends = {"n": 0}
        real_open, real_fsync = open, os.fsync

        def faulty_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            if mode != "a+b":
                return handle
            appends["n"] += 1
            return _TornWriteFile(handle) if appends["n"] == 5 else handle

        def faulty_fsync(fd):
            appends["n"] += 1
            if appends["n"] == 5:
                disk_full()
            real_fsync(fd)

        if point == "write":
            monkeypatch.setattr(store_module, "open", faulty_open, raising=False)
        else:
            monkeypatch.setattr(store_module, "os", _OsWithFaultyFsync(faulty_fsync))
        with pytest.raises(OSError) as excinfo:
            run_campaign(tiny_campaign(), out, cache_dir=cache_dir)
        monkeypatch.undo()  # the disk has room again
        assert excinfo.value.errno == errno.ENOSPC
        assert appends["n"] == 5
        with open(os.path.join(out, "results.jsonl")) as handle:
            tail_complete = handle.read().endswith("\n")
        # a torn half row, or a complete row whose fsync failed
        assert tail_complete == (point == "fsync")

        def canonical(rows):
            return [
                json.dumps(r.deterministic_dict(), sort_keys=True, separators=(",", ":"))
                for r in rows
            ]

        resumed = run_campaign(tiny_campaign(), out, cache_dir=cache_dir)
        assert canonical(resumed.results) == canonical(clean.results)
        on_disk = ResultStore(os.path.join(out, "results.jsonl")).load()
        assert canonical(on_disk) == canonical(clean.results)
        again = run_campaign(tiny_campaign(), out, cache_dir=cache_dir)
        assert again.executed == 0 and again.from_cache == 0
