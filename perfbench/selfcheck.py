"""Exact-count self-check: two traced runs of one seed must count the same.

    python3 perfbench/selfcheck.py --workload NAME --seed N [--seconds S]

Runs ``perfbench/run.py --trace 1`` twice with the same seed and compares the
exact counts each run prints (``cache.len``/``get``/``put`` calls,
``store.append`` and ``row.to_dict`` calls, ``engine.events``, and
``campaign.auto_picks.*`` -- all from the first traced pass).  Exits 0 when
both runs pass every output check and the counts agree, so a later change
can cite those counts as counts.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def traced_run(workload: str, seed: int, seconds: int):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["exact_counts"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=6)
    args = parser.parse_args()
    runs = [traced_run(args.workload, args.seed, args.seconds) for _ in range(2)]
    for counts, result in runs:
        print(json.dumps({"correct": result["correct"], "failed": result["failed"],
                          "exact_counts": counts}, sort_keys=True))
    same = runs[0][0] == runs[1][0]
    correct = all(result["correct"] for _counts, result in runs)
    print(f"{args.workload} seed {args.seed}: counts {'identical' if same else 'DIFFER'}, "
          f"outputs {'correct' if correct else 'WRONG'}")
    return 0 if same and correct else 1


if __name__ == "__main__":
    sys.exit(main())
