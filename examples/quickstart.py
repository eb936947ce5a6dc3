#!/usr/bin/env python3
"""Quickstart: build CRNs, simulate them, and check output-obliviousness.

Reproduces the Fig. 1 examples of the paper: ``f(x) = 2x``, ``min(x1, x2)``
and ``max(x1, x2)``, showing that the first two are output-oblivious (and
therefore composable by concatenation) while ``max`` necessarily consumes its
output and transiently overshoots.

Run with::

    python examples/quickstart.py
"""

from repro import CRN, species, verify_stable_computation
from repro.sim import GillespiePolicy, SimulatorCore, run_many
from repro.verify import audit_output_oblivious, find_overproduction


def build_fig1_crns():
    """The three CRNs of Fig. 1."""
    X, X1, X2, Y, Z1, Z2, K = species("X X1 X2 Y Z1 Z2 K")

    double = CRN([X >> 2 * Y], (X,), Y, name="2x")
    minimum = CRN([X1 + X2 >> Y], (X1, X2), Y, name="min")
    maximum = CRN(
        [
            X1 >> Z1 + Y,
            X2 >> Z2 + Y,
            Z1 + Z2 >> K,
            K + Y >> 0,
        ],
        (X1, X2),
        Y,
        name="max",
    )
    return double, minimum, maximum


def main() -> None:
    double, minimum, maximum = build_fig1_crns()

    print("=== Fig. 1 CRNs ===")
    for crn in (double, minimum, maximum):
        print(crn.describe())
        print()

    print("=== Stable computation (exhaustive verification on small inputs) ===")
    print(verify_stable_computation(double, lambda x: 2 * x[0], function_name="2x").describe())
    print(verify_stable_computation(minimum, lambda x: min(x), function_name="min").describe())
    print(verify_stable_computation(maximum, lambda x: max(x), function_name="max").describe())
    print()

    print("=== Output-obliviousness audit (Section 2.3) ===")
    for crn in (double, minimum, maximum):
        print(audit_output_oblivious(crn).describe())
        print()

    print("=== Stochastic (Gillespie) simulation of min on input (30, 50) ===")
    result = SimulatorCore(minimum, GillespiePolicy()).run_on_input((30, 50))
    print(f"final output count: {minimum.output_count(result.final_configuration)} "
          f"after {result.steps} reactions "
          f"(simulated time {result.final_time:.3f})")
    print()

    print("=== max overshoots transiently, min never does ===")
    for crn, func in ((maximum, lambda x: max(x)), (minimum, lambda x: min(x))):
        witness = find_overproduction(crn, func, (10, 10), trials=10)
        if witness is None:
            print(f"{crn.name}: no schedule ever exceeded the target (output-oblivious behaviour)")
        else:
            print(
                f"{crn.name}: output climbed to {witness.max_output_seen} "
                f"(target {witness.target}, overshoot {witness.overshoot}) before settling at "
                f"{witness.final_output}"
            )
    print()

    print("=== Repeated fair-scheduler runs agree on the stable output ===")
    report = run_many(minimum, (7, 11), trials=10, seed=0)
    print(f"min(7, 11): outputs across runs = {sorted(set(report.outputs))}, "
          f"mean reactions = {report.mean_steps:.1f}")


if __name__ == "__main__":
    main()
