"""The repository benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` repeats the workload with the layer
wrappers installed and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  Every output is checked; the last line
of standard output is the result object.  A human-readable report (and, for
traced runs, the trace file's location) goes to standard error.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("campaign-cold", "campaign-replay", "serve-simulate", "shared-dir-drain")


def _run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name in ("campaign-cold", "campaign-replay"):
        import campaigns

        return campaigns.run(seed, seconds, trace, replay=name == "campaign-replay")
    if name == "serve-simulate":
        import serving

        return serving.run(seed, seconds, trace)
    import drain

    return drain.run(seed, seconds, trace)


def _write_trace(name: str, records, manifest) -> str:
    from repro.obs.trace import TRACE_SCHEMA

    path = os.path.join(common.WORK, f"trace-{name}.jsonl")
    header = {"type": "meta", "schema": TRACE_SCHEMA, "pid": os.getpid(),
              "created_unix": time.time(), "manifest": manifest}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in sorted(records, key=lambda record: record["t0"]):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(common.ROOT, "BENCHMARK.json")
    if not common.have_program() or not os.path.isfile(spec_path):
        print(f"error: no program to benchmark under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(common.WORK, exist_ok=True)

    import harness
    import layers

    if not args.trace:
        layers.assert_unwrapped()
    outcome = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # Before any other subprocess: a child's ru_maxrss includes the pages it
    # shared with this process before exec.
    peak_rss_mb = common.peak_rss_mb(outcome.rss)
    manifest = common.provenance(args.workload, args.seed, int(args.seconds), bool(args.trace))

    report = {"provenance": manifest, "details": outcome.details, "problems": outcome.problems}
    if args.trace:
        from repro.obs.report import format_self_time_table
        from repro.obs.trace import read_trace, validate_trace

        measured = harness.layer_metrics(outcome.layers)
        measured["core.build_crn_s"] = harness.build_crn_seconds(outcome.specs)
        path = _write_trace(args.workload, outcome.layers["records"], manifest)
        records = list(read_trace(path))
        for problem in validate_trace(records):
            outcome.fail(f"trace: {problem}")
        print(f"trace: {os.path.relpath(path, common.ROOT)} "
              f"({len(records) - 1} spans, {outcome.layers['passes']} traced passes)",
              file=sys.stderr)
        print(format_self_time_table(records, top=15), file=sys.stderr)
        report["exact_counts"] = harness.exact_counts(outcome.layers["first"])
    else:
        layers.assert_unwrapped()
        measured = dict(outcome.metrics)
        measured.setdefault("peak_rss_mb", peak_rss_mb)

    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"], 0.0 if args.trace else None)
        if value is None:
            raise RuntimeError(f"workload {args.workload} did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    common.emit(report)
    common.emit({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
