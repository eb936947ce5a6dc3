"""Executor contract: parallel == serial bit for bit, failure capture, timeouts."""

import time

import pytest

from repro.api.config import RunConfig
from repro.lab.campaign import Campaign, SweepGrid, register_spec_factory
from repro.lab.executor import (
    PoolExecutor,
    SerialExecutor,
    memo_lookup,
    memo_publish,
    run_cell,
    run_cell_with_timeout,
)
from repro.core.specs import FunctionSpec


def seeded_cells(specs=("minimum",), engines=("python",), seed=11, grid="0:3"):
    campaign = Campaign(
        name="exec-test",
        specs=list(specs),
        inputs=SweepGrid.parse(grid, dimension=2),
        engines=engines,
        configs=(RunConfig(trials=3),),
        seed=seed,
    )
    return campaign.expand()


class TestRunCell:
    def test_ok_row_fields(self):
        cells = seeded_cells()
        result = run_cell(cells[4])  # input (1, 1), minimum -> 1
        assert result.ok
        assert result.cell_id == cells[4].cell_id
        assert result.expected == min(cells[4].input)
        assert result.output_mode == result.expected
        assert result.correct is True
        assert result.converged is True
        assert len(result.outputs) == 3
        assert result.wall_time > 0

    def test_run_cell_is_deterministic_for_seeded_cells(self):
        cell = seeded_cells()[5]
        assert run_cell(cell).deterministic_dict() == run_cell(cell).deterministic_dict()

    def test_exception_becomes_error_row(self):
        # an unknown construction strategy fails inside build_crn_for
        campaign = Campaign(
            name="err",
            specs=[("minimum", "no-such-strategy")],
            inputs=[(1, 1)],
            engines=("python",),
            seed=1,
        )
        (result,) = SerialExecutor().map(campaign.expand())
        assert result.status == "error"
        assert "no-such-strategy" in result.error
        assert result.outputs == ()

    def test_a_cell_built_for_another_spec_is_an_unpublished_error_row(self):
        from repro.functions.catalog import maximum_spec, minimum_spec
        from repro.lab import campaign as lab_campaign
        from repro.lab.campaign import registered_fingerprint

        name = "executor-test-swapped"
        register_spec_factory(name, minimum_spec)
        try:
            (cell,) = seeded_cells(specs=(name,), grid="3:4")
            register_spec_factory(name, maximum_spec, replace=True)
            row = run_cell(cell)
            now = registered_fingerprint(name)
        finally:
            for registry in (
                lab_campaign._SPEC_FACTORIES,
                lab_campaign._SPEC_INSTANCES,
                lab_campaign._SPEC_FINGERPRINTS,
            ):
                registry.pop(name, None)
        assert row.status == "error" and row.error.startswith("StaleSpecError")
        assert cell.spec_fingerprint in row.error and now in row.error
        cache = FakeCache()
        memo_publish(cache, cell, row)
        assert cache.puts == []

    def test_error_cell_does_not_kill_the_batch(self):
        good = seeded_cells()[:2]
        bad = Campaign(
            name="err",
            specs=[("minimum", "no-such-strategy")],
            inputs=[(1, 1)],
            engines=("python",),
            seed=1,
        ).expand()
        results = list(SerialExecutor().map(bad + good))
        assert [r.status for r in results] == ["error", "ok", "ok"]


class TestParallelSerialEquivalence:
    def test_pool_rows_bit_identical_to_serial_python_engine(self):
        cells = seeded_cells(specs=("minimum", "add"), grid="0:4")
        serial = [r.deterministic_dict() for r in SerialExecutor().map(cells)]
        pool = [r.deterministic_dict() for r in PoolExecutor(workers=4).map(cells)]
        assert serial == pool

    def test_pool_rows_bit_identical_for_vectorized_engine(self):
        cells = seeded_cells(engines=("vectorized",), grid="0:3")
        serial = [r.deterministic_dict() for r in SerialExecutor().map(cells)]
        pool = [r.deterministic_dict() for r in PoolExecutor(workers=2).map(cells)]
        assert serial == pool

    def test_pool_preserves_cell_order(self):
        cells = seeded_cells(grid="0:4")
        results = list(PoolExecutor(workers=4, chunksize=1).map(cells))
        assert [r.cell_id for r in results] == [c.cell_id for c in cells]

    def test_single_cell_falls_back_to_serial(self):
        cells = seeded_cells()[:1]
        (result,) = PoolExecutor(workers=4).map(cells)
        assert result.ok

    def test_empty_batch(self):
        assert list(PoolExecutor(workers=2).map([])) == []

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            PoolExecutor(workers=0)


class TestTimeout:
    def test_slow_cell_becomes_timeout_error_row(self):
        def slow_spec():
            def slow(x):
                # fast on the fingerprint grid [0, 5); the campaign input
                # (7,) is the one that hangs
                if x[0] >= 5:
                    time.sleep(10)
                return 0

            return FunctionSpec(name="lab-test-slow", dimension=1, func=slow)

        register_spec_factory("lab-test-slow", slow_spec, replace=True)
        campaign = Campaign(
            name="slow", specs=["lab-test-slow"], inputs=[(7,)], engines=("python",), seed=1
        )
        (cell,) = campaign.expand()
        start = time.perf_counter()
        result = run_cell_with_timeout(cell, timeout=0.3)
        elapsed = time.perf_counter() - start
        assert elapsed < 5
        assert result.status == "error"
        assert "CellTimeoutError" in result.error

    def test_no_timeout_leaves_fast_cells_untouched(self):
        cell = seeded_cells()[0]
        assert run_cell_with_timeout(cell, timeout=None).ok
        assert run_cell_with_timeout(cell, timeout=30).ok

    def test_preexisting_itimer_is_restored_not_clobbered(self):
        # a host process (e.g. a worker loop with its own watchdog) may have
        # an ITIMER_REAL armed; running a cell under a timeout must put the
        # caller's timer back, shortened by the elapsed time, not zero it
        import signal as signal_module

        fired = []
        previous_handler = signal_module.signal(
            signal_module.SIGALRM, lambda signum, frame: fired.append(signum)
        )
        try:
            signal_module.setitimer(signal_module.ITIMER_REAL, 60.0)
            cell = seeded_cells()[0]
            assert run_cell_with_timeout(cell, timeout=5.0).ok
            remaining, _interval = signal_module.setitimer(
                signal_module.ITIMER_REAL, 0.0
            )
            assert 0.0 < remaining <= 60.0
            # the cell's own handler is gone too: ours is back in place
            assert signal_module.getsignal(signal_module.SIGALRM) is not previous_handler
            assert fired == []
        finally:
            signal_module.setitimer(signal_module.ITIMER_REAL, 0.0)
            signal_module.signal(signal_module.SIGALRM, previous_handler)

    def test_no_preexisting_itimer_stays_disarmed(self):
        import signal as signal_module

        signal_module.setitimer(signal_module.ITIMER_REAL, 0.0)
        cell = seeded_cells()[0]
        assert run_cell_with_timeout(cell, timeout=5.0).ok
        remaining, interval = signal_module.setitimer(signal_module.ITIMER_REAL, 0.0)
        assert remaining == 0.0 and interval == 0.0


class FakeCache:
    """A dict behind ``get``/``put`` that remembers every call."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})
        self.gets = []
        self.puts = []

    def get(self, key):
        self.gets.append(key)
        return self.entries.get(key)

    def put(self, key, payload):
        self.puts.append(key)
        self.entries[key] = payload


class TestMemoRule:
    def test_hit_is_marked_cached_with_zero_wall_time(self):
        cell = seeded_cells(grid="0:1")[0]
        cache = FakeCache()
        row = run_cell(cell)
        memo_publish(cache, cell, row)
        outcomes = []
        hit = memo_lookup(cache, cell, outcomes.append)
        assert hit.cached is True and hit.wall_time == 0.0
        assert hit.deterministic_dict() == row.deterministic_dict()
        assert outcomes == [True]

    def test_foreign_cell_id_is_a_miss(self):
        cell = seeded_cells(grid="0:1")[0]
        payload = run_cell(cell).deterministic_dict()
        payload["cell_id"] = "someone-else"
        cache = FakeCache({cell.cache_key(): payload})
        outcomes = []
        assert memo_lookup(cache, cell, outcomes.append) is None
        assert outcomes == [False]

    def test_unseeded_cell_never_consults_the_cache(self):
        (cell,) = Campaign(
            name="unseeded",
            specs=["minimum"],
            inputs=[(1, 2)],
            engines=("python",),
            configs=(RunConfig(trials=2),),
            seed=None,
        ).expand()
        assert not cell.cacheable
        cache = FakeCache()
        outcomes = []
        assert memo_lookup(cache, cell, outcomes.append) is None
        memo_publish(cache, cell, run_cell(cell))
        assert cache.gets == [] and cache.puts == [] and outcomes == []

    def test_error_rows_are_never_published(self):
        (cell,) = Campaign(
            name="err",
            specs=[("minimum", "no-such-strategy")],
            inputs=[(1, 1)],
            engines=("python",),
            seed=1,
        ).expand()
        row = run_cell(cell)
        assert cell.cacheable and row.status == "error"
        cache = FakeCache()
        memo_publish(cache, cell, row)
        memo_publish(cache, cell, row, row.to_dict())
        assert cache.puts == []
