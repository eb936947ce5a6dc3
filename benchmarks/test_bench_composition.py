"""Composition benchmark (Sections 1.2 and 2.3): who wins and by how much.

Regenerates the paper's motivating comparison: concatenating a doubling CRN
after ``min`` computes ``2·min`` correctly, while the same concatenation after
``max`` locks in part of the transient overshoot — the locked-in excess grows
roughly like the input (up to ``2(x1 + x2)`` total output).  Also measures a
three-stage pipeline to show composition depth scaling.
"""

import pytest

from repro.crn.composition import concatenate
from repro.crn.species import species
from repro.crn.network import CRN
from repro.functions.catalog import double_spec, maximum_spec, minimum_spec
from repro.sim.fair import output_producing_bias
from repro.sim.kernel import FairPolicy, SimulatorCore
from repro.verify.composition import verify_composition


def test_composition_min_then_double(benchmark):
    def run():
        return verify_composition(
            minimum_spec().known_crn,
            double_spec().known_crn,
            lambda x: min(x),
            lambda w: 2 * w[0],
            inputs=[(1, 2), (2, 2), (3, 1)],
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.passed
    print("\n[composition] 2·min by concatenation: PASS (upstream output-oblivious)")


def test_composition_max_then_double_locks_in_excess(benchmark):
    composed = concatenate(
        maximum_spec().known_crn, double_spec().known_crn, require_output_oblivious=False
    )

    def run():
        rows = {}
        for size in (2, 4, 8):
            core = SimulatorCore(composed, FairPolicy(bias=output_producing_bias(composed)))
            result = core.run_on_input((size, size), quiescence_window=60 * size, max_steps=200_000)
            target = 2 * size
            rows[size] = composed.output_count(result.final_configuration) - target
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[composition] 2·max by naive concatenation — locked-in excess output per input size:")
    for size, excess in rows.items():
        print(f"  input ({size},{size}): final output exceeds 2·max by {excess}")
    # The adversarial schedule locks in a positive excess that grows with the input.
    assert rows[8] >= rows[2]
    assert max(rows.values()) > 0


def test_three_stage_pipeline_depth(benchmark):
    W, Y, Z = species("W Y Z")
    floor_crn = CRN([W >> 3 * Z, 2 * Z >> Y], (W,), Y, name="floor(3w/2)")

    def run():
        stage2 = concatenate(minimum_spec().known_crn, double_spec().known_crn)
        stage3 = concatenate(stage2, floor_crn)
        return stage3

    pipeline = benchmark(run)
    assert pipeline.is_output_oblivious()
    print(f"\n[composition] three-stage pipeline floor(3·(2·min)/2): size {pipeline.size()}")
