"""Benchmark suite configuration.

Makes the package importable from a bare checkout, skips every test in this
directory unless ``--benchmark`` was passed (see the root ``conftest.py``) so
the tier-1 test run stays fast, and collects machine-readable per-benchmark
records into ``BENCH_results.json`` (schema shared with ``python -m repro
bench`` — see :func:`repro.lab.aggregate.write_bench_json`) so the perf
trajectory is tracked across PRs.
"""

import os
import sys
import time

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH_JSON = os.path.join(os.path.dirname(_HERE), "BENCH_results.json")

_RECORDS = []


def pytest_collection_modifyitems(config, items):
    if config.getoption("benchmark", default=False):
        return
    skip = pytest.mark.skip(reason="benchmark suite; pass --benchmark to run")
    for item in items:
        if str(item.fspath).startswith(_HERE):
            item.add_marker(skip)


@pytest.fixture(scope="session")
def bench_record():
    """Append one machine-readable benchmark record.

    ``bench_record(name, population, wall_time_s, steps)`` — steps/sec is
    derived.  Records from the whole session land in ``BENCH_results.json``
    at the repository root.
    """

    def record(name, population, wall_time_s, steps, **extra):
        from repro.lab.aggregate import make_bench_record

        _RECORDS.append(make_bench_record(name, population, wall_time_s, steps, **extra))

    return record


def events_over(min_seconds, run_seeded, events_of):
    """Run ``run_seeded(seed)`` on seeds 1, 2, ... until ``min_seconds`` have passed.

    Returns ``(events, seconds, runs, seed-1 result)``: the summed events and
    wall time of every run, so a rate taken from them rests on a sample long
    enough that timer resolution and scheduling noise cannot decide it.
    """
    events, seconds, runs, first = 0, 0.0, 0, None
    while seconds < min_seconds:
        start = time.perf_counter()
        result = run_seeded(runs + 1)
        seconds += time.perf_counter() - start
        events += events_of(result)
        runs += 1
        first = result if first is None else first
    return events, seconds, runs, first


def pytest_sessionfinish(session, exitstatus):
    if not _RECORDS:
        return
    from repro.lab.aggregate import write_bench_json

    # merge=True: a partial run (-k one family) updates its own records and
    # leaves the rest of the perf trajectory in place.
    write_bench_json(_BENCH_JSON, list(_RECORDS), source="pytest benchmarks", merge=True)
    print(f"\n[bench] wrote {_BENCH_JSON} ({len(_RECORDS)} records)")
