#!/usr/bin/env python3
"""Demo of the unified repro.api workbench (sibling of batch_engine_demo.py).

The whole spec → CRN → simulate → verify pipeline through one facade: a
frozen ``RunConfig`` instead of repeated keyword clouds, strategy-selectable
compilation, engine selection through the pluggable registry (including a
custom engine registered on the fly), and per-input seeded sweeps.

Run with::

    PYTHONPATH=src python examples/workbench_demo.py
"""

from repro import RunConfig, Workbench
from repro.functions.catalog import (
    maximum_spec,
    minimum_spec,
    quilt_2d_fig3b_spec,
    threshold_capped_spec,
)
from repro.sim.registry import (
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)


def main() -> None:
    wb = Workbench(RunConfig(trials=8, seed=7))
    print(f"=== {wb!r} ===")
    for info in wb.engines():
        cost = info.cost(wb.config.trials)  # what engine="auto" minimises
        cost = "uncalibrated" if cost is None else f"{cost * 1e6:.3g} us/step"
        print(f"  engine {info.name!r}: {cost} — {info.description}")
    print()

    print("=== compile -> simulate -> verify, one object per function ===")
    for spec, strategy in [
        (minimum_spec(), "auto"),          # hand-written Fig. 1 CRN
        (threshold_capped_spec(), "1d"),   # Theorem 3.1 construction
        (quilt_2d_fig3b_spec(), "quilt"),  # Lemma 6.1 construction
    ]:
        compiled = wb.compile(spec, strategy=strategy)
        x = (4,) * spec.dimension
        report = compiled.simulate(x)
        verification = compiled.verify(inputs=[x, (1,) * spec.dimension])
        print(
            f"  {compiled!r}\n"
            f"    f{x} = {spec(x)}; simulated mode {report.output_mode} "
            f"({'unanimous' if report.output_unanimous else 'split'}), "
            f"verification {'PASS' if verification.passed else 'FAIL'}"
        )
    print()

    print("=== per-call overrides derive configs; the workbench never mutates ===")
    compiled = wb.compile(maximum_spec())
    python = compiled.simulate((25, 60))
    vectorized = compiled.simulate((25, 60), engine="vectorized", trials=100)
    print(f"  python    : {len(python.outputs)} trials, mode {python.output_mode}")
    print(
        f"  vectorized: {len(vectorized.outputs)} trials, mode {vectorized.output_mode}, "
        f"max overshoot {vectorized.max_overshoot}"
    )
    print(f"  workbench config still: {wb.config.describe()}")
    print()

    print("=== sweeps spawn an independent seed per input ===")
    reports = wb.compile(minimum_spec()).sweep([(1, 1), (2, 3), (9, 4)])
    print(f"  min over sweep: {[r.output_mode for r in reports]}")
    print()

    print("=== plugging a custom engine into the registry ===")

    @register_engine(
        "traced-python",
        description="python engine + call tracing",
    )
    class TracedEngine:
        # Delegates to the registered "python" engine, printing each call.
        python = get_engine("python")

        def run_many(self, crn, x, config):
            print(f"  [traced-python] run_many {crn.name} on {tuple(x)}: {config.describe()}")
            return self.python.run_many(crn, x, config)

        def estimate_expected_output(self, crn, x, config):
            return self.python.estimate_expected_output(crn, x, config)

    try:
        report = compiled.simulate((5, 8), engine="traced-python", trials=3)
        print(f"  dispatched without touching any dispatch code -> mode {report.output_mode}")
        print(f"  registry now: {[info.name for info in registered_engines()]}")
    finally:
        unregister_engine("traced-python")


if __name__ == "__main__":
    main()
