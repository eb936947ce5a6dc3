"""Unit tests for scalar Gillespie and fair runs, and the runners."""

import random

import pytest

from repro.crn.network import CRN
from repro.crn.species import species
from repro.functions.catalog import maximum_spec, minimum_spec, double_spec
from repro.sim.fair import output_consuming_bias, output_producing_bias
from repro.sim.kernel import FairPolicy, GillespiePolicy, SimulatorCore
from repro.sim.runner import estimate_expected_output, run_many, sweep_inputs
from repro.sim.trajectory import Trajectory


X, X1, X2, Y = species("X X1 X2 Y")


class TestGillespie:
    def test_double_runs_to_silence(self):
        crn = double_spec().known_crn
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1))
        result = core.run_on_input((5,))
        assert result.silent
        assert crn.output_count(result.final_configuration) == 10
        assert result.steps == 5
        assert result.final_time > 0

    def test_max_steps_bound(self):
        crn = double_spec().known_crn
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1))
        result = core.run_on_input((100,), max_steps=10)
        assert result.steps == 10 and not result.silent

    def test_trajectory_recording(self):
        crn = double_spec().known_crn
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(2))
        result = core.run_on_input((4,), track=[Y])
        assert result.trajectory is not None
        assert result.trajectory.counts_of(Y)[-1] == 8

    def test_stop_when_predicate(self):
        crn = double_spec().known_crn
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(3))
        result = core.run_on_input((10,), stop_when=lambda c: c[Y] >= 4)
        assert crn.output_count(result.final_configuration) >= 4
        assert result.steps < 10


class TestFairPolicy:
    def test_min_converges_to_correct_output(self):
        crn = minimum_spec().known_crn
        core = SimulatorCore(crn, FairPolicy(), rng=random.Random(5))
        result = core.run_on_input((4, 7))
        assert result.silent
        assert crn.output_count(result.final_configuration) == 4

    def test_max_overshoot_with_producing_bias(self):
        crn = maximum_spec().known_crn
        core = SimulatorCore(
            crn, FairPolicy(bias=output_producing_bias(crn)), rng=random.Random(6)
        )
        result = core.run_on_input((4, 4), quiescence_window=500)
        # The adversarial schedule pushes the output above max(4,4)=4 transiently.
        assert result.max_output_seen > 4

    def test_consuming_bias_limits_overshoot(self):
        crn = maximum_spec().known_crn
        producing = SimulatorCore(
            crn, FairPolicy(bias=output_producing_bias(crn)), rng=random.Random(7)
        )
        consuming = SimulatorCore(
            crn, FairPolicy(bias=output_consuming_bias(crn)), rng=random.Random(7)
        )
        high = producing.run_on_input((5, 5), quiescence_window=500).max_output_seen
        low = consuming.run_on_input((5, 5), quiescence_window=500).max_output_seen
        assert high >= low

    def test_quiescence_window_terminates_catalytic_network(self):
        # X + Y -> X + Y + Y would never be quiescent; use a catalytic no-op instead.
        crn = CRN([X1 + X2 >> X1 + X2], (X1, X2), Y)
        core = SimulatorCore(crn, FairPolicy(), rng=random.Random(8))
        result = core.run_on_input((2, 2), quiescence_window=50, max_steps=10_000)
        assert result.converged and not result.silent


class TestRunners:
    def test_run_many_unanimous(self):
        crn = minimum_spec().known_crn
        report = run_many(crn, (2, 5), trials=5, seed=10)
        assert report.output_unanimous
        assert report.output_mode == 2
        assert report.all_silent_or_converged
        assert report.max_overshoot == 0

    def test_estimate_expected_output(self):
        crn = double_spec().known_crn
        assert estimate_expected_output(crn, (6,), trials=5, seed=11) == pytest.approx(12.0)

    def test_sweep_inputs(self):
        crn = minimum_spec().known_crn
        reports = sweep_inputs(crn, [(1, 1), (2, 3)], trials=3, seed=12)
        assert [r.output_mode for r in reports] == [1, 2]


class TestTrajectory:
    def test_record_and_query(self):
        trajectory = Trajectory([Y])
        from repro.crn.configuration import Configuration

        trajectory.record(0.0, 0, Configuration({Y: 0}))
        trajectory.record(1.0, 1, Configuration({Y: 2}))
        assert len(trajectory) == 2
        assert trajectory.counts_of(Y) == [0, 2]
        assert trajectory.max_count_of(Y) == 2
        assert trajectory.final().counts[Y] == 2
        assert trajectory.as_dict()["time"] == [0.0, 1.0]

    def test_untracked_species_rejected(self):
        trajectory = Trajectory([Y])
        with pytest.raises(KeyError):
            trajectory.counts_of(X)


class TestPublicExports:
    @pytest.mark.parametrize(
        "module_name", ["repro.sim", "repro.api", "repro.lab", "repro.serve"]
    )
    def test_every_exported_name_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []
