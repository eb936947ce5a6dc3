"""The ``python -m repro`` command-line front end.

Subcommands::

    run            expand and execute a campaign (spec x grid x engines) into --out
                   (--trace writes a schema-versioned trace.jsonl next to the rows;
                   --backend shared-dir shards the cells over a work-queue
                   directory any number of `worker` processes can serve)
    resume         finish an interrupted campaign from its manifest
    worker         serve a shared-dir work queue (`--queue-dir`) until it drains;
                   start any number of these, locally or on hosts sharing the
                   filesystem, against one `run --backend shared-dir` campaign
    report         re-aggregate and print a finished (or partial) campaign
                   (--profile adds executed-cell wall/CPU totals and the slowest cells)
    trace          validate and pretty-print a trace.jsonl: span tree + top
                   self-time table (nonzero exit when the file violates the schema)
    bench          run the benchmark family through the executor -> BENCH_results.json
    bench-compare  diff two BENCH_results.json files; fail on throughput
                   regression (--markdown emits a trend table for CI summaries)
    specs          list the registered function specs
    engines        list the registered simulation engines (--json for the
                   EngineInfo serialization shared with GET /v1/engines)
    serve          HTTP simulation-as-a-service front end (repro.serve)

``python -m repro --version`` prints the package version (kept in sync with
``setup.py``; a tier-1 test enforces it).

Every command is plumbing over :mod:`repro.lab` — anything the CLI does is
one function call away in Python, and the CLI never talks to the simulators
directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.lab.aggregate import (
    compare_bench_results,
    default_bench_path,
    format_markdown_trend,
    format_profile,
    format_report,
    make_bench_record,
    summarize,
    write_bench_json,
)
from repro.lab.cache import DEFAULT_CACHE_DIR
from repro.lab.campaign import (
    MANIFEST_NAME,
    RESULTS_NAME,
    Campaign,
    CampaignRun,
    SweepGrid,
    resolve_spec,
    run_campaign,
    spec_factory_names,
)
from repro.lab.store import ResultStore, read_json, scratch_dir
from repro.sim.registry import registered_engines


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Campaign runner for the CRN reproduction (repro.lab).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand and execute a campaign")
    run.add_argument(
        "--spec",
        action="append",
        required=True,
        metavar="NAME",
        help="spec to sweep (repeatable; see `specs` for the catalog)",
    )
    run.add_argument(
        "--strategy",
        default="auto",
        help="construction strategy for every spec (default: auto)",
    )
    group = run.add_mutually_exclusive_group()
    group.add_argument(
        "--grid",
        metavar="AXES",
        help='input grid, e.g. "0:5" (square), "0:5,0:3", or "1;2;7" values',
    )
    group.add_argument(
        "--input",
        action="append",
        metavar="X",
        help='explicit input tuple, e.g. "3,4" (repeatable)',
    )
    run.add_argument(
        "--engine",
        action="append",
        metavar="NAME",
        help="engine selector (repeatable; 'auto' picks per cell; default: auto)",
    )
    run.add_argument("--trials", type=int, default=5)
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.add_argument("--quiescence-window", type=int, default=None)
    run.add_argument("--seed", type=int, default=None, help="campaign master seed")
    run.add_argument("--name", default=None, help="campaign name (default: from specs)")
    run.add_argument("--out", default=None, help="output directory (default: runs/<name>)")
    _add_execution_arguments(run)

    resume = sub.add_parser("resume", help="finish an interrupted campaign")
    resume.add_argument("out_dir", help="directory holding manifest.json")
    _add_execution_arguments(resume)

    worker = sub.add_parser(
        "worker", help="serve a shared-dir campaign work queue until it drains"
    )
    worker.add_argument(
        "--queue-dir",
        required=True,
        help="the queue directory a `run --backend shared-dir` campaign populates",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: <host>-<pid>)",
    )
    worker.add_argument(
        "--timeout", type=float, default=None, help="per-cell wall-clock budget (s)"
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="seconds a claimed batch of cells stays exclusive without renewal (default: 60)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between claim attempts when the queue is empty (default: 0.2)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=60.0,
        help="exit after this many seconds without claiming a cell (default: 60)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="exit after completing this many cells (default: unlimited)",
    )
    worker.add_argument(
        "--trace",
        action="store_true",
        help="write a per-worker trace shard into <queue-dir>/traces/",
    )

    report = sub.add_parser("report", help="print the aggregate for a campaign dir")
    report.add_argument("out_dir")
    report.add_argument("--json", action="store_true", help="print summary as JSON")
    report.add_argument(
        "--profile",
        action="store_true",
        help="also print executed-cell wall/CPU totals and the slowest cells",
    )
    report.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the --profile slowest-cells table (default: 10)",
    )

    trace = sub.add_parser(
        "trace", help="validate + pretty-print a trace.jsonl (span tree, self-time)"
    )
    trace.add_argument("trace_file", help="path to a trace.jsonl (see run --trace)")
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the self-time table (default: 10)",
    )
    trace.add_argument(
        "--no-tree", action="store_true", help="skip the span tree, print only totals"
    )

    bench = sub.add_parser(
        "bench", help="benchmark family through the campaign executor"
    )
    bench.add_argument(
        "--out",
        default=None,
        help="output file (default: BENCH_results.json at the repository root)",
    )
    bench.add_argument("--workers", type=int, default=2)
    bench.add_argument(
        "--populations",
        default="100,500",
        help="comma-separated per-species input counts (default: 100,500)",
    )
    bench.add_argument("--trials", type=int, default=3)

    compare = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_results.json files; nonzero exit on regression",
    )
    compare.add_argument("previous", help="baseline BENCH_results.json")
    compare.add_argument("current", help="candidate BENCH_results.json")
    compare.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="fail when a record's steps/sec drops by more than this fraction "
        "(default: 0.30)",
    )
    compare.add_argument(
        "--filter",
        default="",
        metavar="SUBSTRING",
        help="only compare records whose name contains this substring "
        '(e.g. "scalar" for the scalar-simulator family)',
    )
    compare.add_argument(
        "--markdown",
        action="store_true",
        help="emit a GitHub-flavoured markdown trend table (for CI job "
        "summaries) instead of the plain per-record lines",
    )

    sub.add_parser("specs", help="list registered function specs")

    engines = sub.add_parser("engines", help="list registered simulation engines")
    engines.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (the same EngineInfo serialization as "
        "the serve API's GET /v1/engines)",
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP simulation service over the workbench (repro.serve)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8421, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="simulation worker processes (0 = in-process thread fallback)",
    )
    serve.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="shared ResultCache root (the server-side memo)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result-cache memo"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=10_000,
        help="max unfinished job cells before POST /v1/jobs answers 429",
    )
    serve.add_argument("--trials", type=int, default=10, help="default config: trials")
    serve.add_argument(
        "--max-steps", type=int, default=1_000_000, help="default config: max_steps"
    )
    serve.add_argument(
        "--engine", default="python", help="default config: engine (default: python)"
    )
    return parser


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-cell wall-clock budget (s)"
    )
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--retry-errors",
        action="store_true",
        help="re-execute cells whose recorded row is an error",
    )
    parser.add_argument("--json", action="store_true", help="print summary as JSON")
    parser.add_argument("--quiet", action="store_true", help="no per-cell progress")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span/event trace to <out>/trace.jsonl "
        "(inspect with `python -m repro trace`)",
    )
    parser.add_argument(
        "--backend",
        choices=("local", "shared-dir"),
        default="local",
        help="execution backend: 'local' (in-process pool, the default) or "
        "'shared-dir' (a work-queue directory served by `repro worker` "
        "processes)",
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        help="shared-dir backend: the queue directory (default: <out>/queue)",
    )
    parser.add_argument(
        "--no-participate",
        action="store_true",
        help="shared-dir backend: only coordinate; leave every cell to "
        "external workers",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="shared-dir backend: seconds a claimed batch of cells stays "
        "exclusive without renewal (default: 60)",
    )


def _progress_printer(total: int, quiet: bool):
    state = {"count": 0}

    def on_result(result, source: str) -> None:
        state["count"] += 1
        if quiet:
            return
        tag = {"cache": "cached", "run": result.status, "done": "done"}[source]
        print(
            f"[{state['count']}/{total}] {tag:>6} {result.spec}{list(result.input)} "
            f"engine={result.engine}",
            file=sys.stderr,
        )

    return on_result


def _finish(run: CampaignRun, as_json: bool) -> int:
    if as_json:
        payload = run.summary.to_dict()
        payload["provenance"] = {
            "total_cells": run.total_cells,
            "already_done": run.already_done,
            "from_cache": run.from_cache,
            "executed": run.executed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(run.summary))
        print(
            f"provenance    : {run.already_done} already done, "
            f"{run.from_cache} from cache, {run.executed} executed"
        )
        print(f"artifacts     : {run.out_dir}")
    return 0 if run.summary.errors == 0 else 3


def _execution_kwargs(args, out_dir: str) -> dict:
    kwargs = {
        "workers": args.workers,
        "timeout": args.timeout,
        "cache_dir": None if args.no_cache else args.cache_dir,
        "retry_errors": args.retry_errors,
        "trace": args.trace,
    }
    if getattr(args, "backend", "local") == "shared-dir":
        from repro.lab.backends import SharedDirBackend

        kwargs["executor"] = SharedDirBackend(
            queue_dir=args.queue_dir or os.path.join(out_dir, "queue"),
            participate=not args.no_participate,
            lease_ttl=args.lease_ttl,
            timeout=args.timeout,
            trace=args.trace,
        )
    return kwargs


def _command_run(args) -> int:
    specs: List[Tuple[str, str]] = [(name, args.strategy) for name in args.spec]
    dimensions = {name: resolve_spec(name).dimension for name, _ in specs}
    if args.input:
        inputs = [tuple(int(v) for v in text.split(",")) for text in args.input]
    else:
        distinct = set(dimensions.values())
        if len(distinct) > 1:
            raise SystemExit(
                f"specs have different dimensions ({dimensions}); use explicit "
                f"--input tuples or run one campaign per dimension"
            )
        dimension = distinct.pop()
        inputs = list(SweepGrid.parse(args.grid or "0:4", dimension=dimension).points())

    name = args.name or "-".join(args.spec)
    campaign = Campaign(
        name=name,
        specs=specs,
        inputs=inputs,
        engines=tuple(args.engine) if args.engine else ("auto",),
        configs=(
            RunConfig(
                trials=args.trials,
                max_steps=args.max_steps,
                quiescence_window=args.quiescence_window,
            ),
        ),
        seed=args.seed,
    )
    out_dir = args.out or os.path.join("runs", name)
    cells = campaign.expand()
    run = run_campaign(
        campaign,
        out_dir,
        cells=cells,
        progress=_progress_printer(len(cells), args.quiet),
        **_execution_kwargs(args, out_dir),
    )
    return _finish(run, args.json)


def _command_resume(args) -> int:
    manifest = os.path.join(args.out_dir, MANIFEST_NAME)
    if not os.path.exists(manifest):
        print(f"error: no {MANIFEST_NAME} in {args.out_dir!r}", file=sys.stderr)
        return 2
    campaign = Campaign.load(manifest)
    cells = campaign.expand()
    run = run_campaign(
        campaign,
        args.out_dir,
        cells=cells,
        progress=_progress_printer(len(cells), args.quiet),
        **_execution_kwargs(args, args.out_dir),
    )
    return _finish(run, args.json)


def _command_worker(args) -> int:
    from repro.lab.backends import worker_loop

    stats = worker_loop(
        args.queue_dir,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        timeout=args.timeout,
        poll=args.poll,
        max_idle=args.max_idle,
        max_cells=args.max_cells,
        trace=args.trace,
    )
    print(
        f"worker {stats['worker']}: {stats['executed']} cells "
        f"({stats['errors']} errors), {stats['wall_s']:.3f}s sim wall time",
        file=sys.stderr,
    )
    return 0


def _command_report(args) -> int:
    manifest = os.path.join(args.out_dir, MANIFEST_NAME)
    store = ResultStore(os.path.join(args.out_dir, RESULTS_NAME))
    if not store.exists():
        print(f"error: no {RESULTS_NAME} in {args.out_dir!r}", file=sys.stderr)
        return 2
    name = Campaign.load(manifest).name if os.path.exists(manifest) else ""
    # Stream: summarize/format_profile each fold store.iter_rows() in one
    # pass with O(engines)/O(top) state — the row list is never materialized,
    # so a million-row store reports in constant memory.
    summary = summarize(store.iter_rows(), campaign=name)
    summary.corrupt_lines_skipped = store.last_scan.corrupt_interior
    if args.json:
        payload = summary.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(summary))
        if args.profile:
            print()
            print(format_profile(store.iter_rows(), top=args.top))
    return 0


def _command_trace(args) -> int:
    from repro.obs.report import format_self_time_table, format_span_tree
    from repro.obs.trace import read_trace, validate_trace

    try:
        records = list(read_trace(args.trace_file))
    except OSError as exc:
        print(f"error: cannot read {args.trace_file!r}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.trace_file!r} is not a trace: {exc}", file=sys.stderr)
        return 2
    problems = validate_trace(records)
    if problems:
        print(f"error: {args.trace_file!r} violates the trace schema:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    if not args.no_tree:
        print(format_span_tree(records))
        print()
    print(format_self_time_table(records, top=args.top))
    return 0


def _command_bench(args) -> int:
    out = args.out if args.out is not None else default_bench_path()
    populations = [int(v) for v in str(args.populations).split(",") if v.strip()]
    campaign = Campaign(
        name="bench-minimum",
        specs=[("minimum", "known")],
        inputs=[(p, p) for p in populations],
        engines=("python", "vectorized", "tau"),
        configs=(RunConfig(trials=args.trials, max_steps=10_000_000),),
        seed=1,
    )
    with scratch_dir(prefix="repro-bench-") as out_dir:
        # cache off: a benchmark that replays cached results measures nothing
        run = run_campaign(
            campaign, out_dir, workers=args.workers, cache_dir=None
        )
    records = []
    for row in run.results:
        if not row.ok:
            continue
        population = sum(row.input)
        records.append(
            make_bench_record(
                f"campaign/{row.spec}/{row.engine}/pop{population}",
                population,
                row.wall_time,
                row.total_steps,
            )
        )
    # merge=True: refresh the campaign records, keep every other family's
    # entry so the root BENCH_results.json stays a cumulative trajectory.
    write_bench_json(out, records, source="repro.lab.cli bench", merge=True)
    print(format_report(run.summary))
    print(f"wrote {out} ({len(records)} records)")
    return 0 if run.summary.errors == 0 else 3


def _command_bench_compare(args) -> int:
    current = read_json(args.current)
    if current is None:
        print(f"error: cannot read current results {args.current!r}", file=sys.stderr)
        return 2
    previous = read_json(args.previous)
    if previous is None:
        # First run (or lost artifact): nothing to compare against is not a
        # regression — report and succeed so CI bootstraps cleanly.
        print(
            f"no baseline at {args.previous!r}; skipping comparison "
            f"({len(current.get('results', []))} current records accepted)"
        )
        return 0
    regressions, lines = compare_bench_results(
        previous,
        current,
        max_regression=args.max_regression,
        name_filter=args.filter,
    )
    if args.markdown:
        print(
            format_markdown_trend(
                previous,
                current,
                max_regression=args.max_regression,
                name_filter=args.filter,
            )
        )
    else:
        for line in lines:
            print(line)
        if not lines:
            print(
                f"no overlapping records"
                + (f" matching {args.filter!r}" if args.filter else "")
                + "; nothing to compare"
            )
    if regressions:
        print(
            f"\n{len(regressions)} throughput regression(s) beyond "
            f"{args.max_regression:.0%}:",
            file=sys.stderr,
        )
        for failure in regressions:
            print(f"  {failure}", file=sys.stderr)
        return 4
    return 0


def _command_specs(args) -> int:
    for name in spec_factory_names():
        spec = resolve_spec(name)
        print(f"{name:<24} d={spec.dimension}  {spec!r}")
    return 0


def _command_engines(args) -> int:
    if args.json:
        print(
            json.dumps(
                {"engines": [info.to_dict() for info in registered_engines()]},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for info in registered_engines():
        kind = "approximate" if info.approximate else "exact"
        shape = "batch" if info.batch_capable else "scalar"
        floor = info.min_recommended_population
        floor = f">= {floor}" if floor else "any"
        if info.trial_step_cost is None:
            cost = "uncalibrated"
        else:
            step, trial_step = info.step_cost * 1e6, info.trial_step_cost * 1e6
            cost = f"{step:.3g} + T*{trial_step:.3g} us/step"
        print(
            f"{info.name:<12} {kind:<12} {shape:<7} pop {floor:<8} "
            f"cost {cost:<27} {info.description}"
        )
    return 0


def _command_serve(args) -> int:
    # Imported lazily: the serve subsystem is optional at runtime and must
    # not tax `python -m repro specs` et al. with its asyncio machinery.
    from repro.serve.server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        config=RunConfig(
            trials=args.trials, max_steps=args.max_steps, engine=args.engine
        ),
        queue_limit=args.queue_limit,
    )
    return server.run()


_COMMANDS = {
    "run": _command_run,
    "resume": _command_resume,
    "worker": _command_worker,
    "report": _command_report,
    "trace": _command_trace,
    "bench": _command_bench,
    "bench-compare": _command_bench_compare,
    "specs": _command_specs,
    "engines": _command_engines,
    "serve": _command_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print(
            "\ninterrupted — rerun `python -m repro resume <out-dir>` to finish",
            file=sys.stderr,
        )
        return 130
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (e.g. `... | head`).  Point stdout at devnull
        # so the interpreter's exit-time flush doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, matching shell convention
