"""Engine registry: registration, capability metadata, and dynamic dispatch."""

import itertools
import os

import pytest

from repro.api.config import RunConfig
from repro.functions.catalog import minimum_spec
from repro.lab.store import read_json
from repro.lab.campaign import resolve_engine
from repro.sim import registry
from repro.sim.registry import (
    EngineInfo,
    check_engine,
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
    validate_engine_request,
)
from repro.sim.runner import ConvergenceReport, estimate_expected_output, run_many


@pytest.fixture
def dummy_engine():
    """Register a stub engine for the duration of one test."""

    class DummyEngine:
        def __init__(self):
            self.calls = []

        def run_many(self, crn, x, config):
            self.calls.append(("run_many", tuple(x), config))
            return ConvergenceReport(
                input_value=tuple(x),
                outputs=[42] * config.trials,
                max_outputs=[42] * config.trials,
                steps=[1] * config.trials,
                all_silent_or_converged=True,
            )

        def estimate_expected_output(self, crn, x, config):
            self.calls.append(("estimate", tuple(x), config))
            return 42.0

    instance = DummyEngine()
    register_engine(
        "dummy",
        supports_gillespie=False,
        supports_fair=True,
        max_recommended_population=10,
        description="test stub",
    )(instance)
    yield instance
    unregister_engine("dummy")


class TestRegistryBasics:
    def test_builtin_engines_are_registered(self):
        names = engine_names()
        assert "python" in names
        assert "vectorized" in names

    def test_engine_names_is_live_view(self, dummy_engine):
        assert "dummy" in engine_names()
        unregister_engine("dummy")
        assert "dummy" not in engine_names()
        # Re-register so the fixture teardown stays a no-op.
        register_engine("dummy")(dummy_engine)

    def test_capability_metadata(self):
        python = get_engine("python")
        assert isinstance(python, EngineInfo)
        assert python.supports_gillespie and python.supports_fair
        # no built-in publishes a population ceiling: "auto" decides by cost
        assert python.max_recommended_population is None
        vectorized = get_engine("vectorized")
        assert vectorized.max_recommended_population is None
        # the batch engine pays a per-lockstep-step overhead and is cheaper
        # per trial-step; the scalar one is the reverse
        assert vectorized.step_cost > python.step_cost
        assert vectorized.trial_step_cost < python.trial_step_cost
        assert {info.name for info in registered_engines()} >= {"python", "vectorized"}

    def test_builtin_names_are_the_table_keys(self):
        # The registry restores built-ins from the runner's table, so the
        # name set is kept once: in BUILTIN_ENGINES.
        from repro.sim.runner import BUILTIN_ENGINES

        assert list(BUILTIN_ENGINES) == ["python", "vectorized", "tau", "tau-vec"]
        assert set(engine_names()) >= set(BUILTIN_ENGINES)

    @pytest.mark.parametrize("name", ["python", "vectorized", "tau", "tau-vec"])
    def test_builtin_registration_is_the_table_entry(self, name):
        from repro.sim.runner import BUILTIN_ENGINES

        adapter, metadata = BUILTIN_ENGINES[name]
        info = get_engine(name)
        assert info.implementation is adapter
        assert info.supports_gillespie
        for field, value in metadata.items():
            assert getattr(info, field) == value, field

    def test_tau_vec_capability_metadata(self):
        tau_vec = get_engine("tau-vec")
        assert tau_vec.supports_gillespie
        assert not tau_vec.supports_fair  # kinetic scheduling only
        assert tau_vec.approximate  # statistically (not bit-for-bit) equivalent
        assert tau_vec.batch_capable  # advances the whole trial batch per round
        assert tau_vec.min_recommended_population == 10_000

    def test_batch_capable_metadata_partitions_the_builtins(self):
        # batch_capable is published metadata, not a name convention: the
        # dense-batch engines carry it, the scalar ones do not.
        flags = {info.name: info.batch_capable for info in registered_engines()}
        assert flags["vectorized"] and flags["tau-vec"]
        assert not flags["python"] and not flags["tau"]

    def test_batch_capable_in_to_dict(self):
        # to_dict is the single serialization behind both `engines --json`
        # and GET /v1/engines, so the new field must ride through it.
        payload = get_engine("tau-vec").to_dict()
        assert payload["batch_capable"] is True
        assert payload["approximate"] is True
        assert payload["step_cost"] == get_engine("tau-vec").step_cost
        assert payload["trial_step_cost"] == get_engine("tau-vec").trial_step_cost
        default = EngineInfo(name="x", implementation=None)
        assert default.to_dict()["batch_capable"] is False
        assert default.to_dict()["trial_step_cost"] is None  # uncalibrated
        assert default.cost(4) is None

    def test_unknown_engine_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            check_engine("cuda")
        message = str(excinfo.value)
        assert "'cuda'" in message
        assert "'python'" in message and "'vectorized'" in message

    def test_error_listing_includes_runtime_registrations(self, dummy_engine):
        with pytest.raises(ValueError) as excinfo:
            get_engine("no-such-engine")
        assert "'dummy'" in str(excinfo.value)

    def test_duplicate_registration_rejected_unless_replace(self, dummy_engine):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("dummy")(dummy_engine)
        register_engine("dummy", replace=True, description="swapped")(dummy_engine)
        assert get_engine("dummy").description == "swapped"

    def test_registration_requires_the_engine_methods(self):
        class Incomplete:
            def run_many(self, crn, x, config):
                return None

        with pytest.raises(TypeError, match="estimate_expected_output"):
            register_engine("incomplete")(Incomplete)
        assert "incomplete" not in engine_names()


BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_results.json"
)


def auto_cost_points():
    """``{engine: {trials: (population, seconds per step)}}`` from auto-cost/*."""
    payload = read_json(BENCH_JSON)
    points = {}
    for record in payload["results"]:
        if record["name"].startswith("auto-cost/"):
            engine = record["name"].split("/")[1]
            trials = record["trials"]
            per_step = record["wall_time_s"] / (record["steps"] / trials)
            points.setdefault(engine, {})[trials] = (record["population"], per_step)
    return points


def fit_costs(points):
    """Two-point fit of ``per-step wall = step_cost + trials * trial_step_cost``.

    A negative intercept (noise on a scalar engine) is clamped to zero.
    """
    fits = {}
    for engine, by_trials in points.items():
        (t0, (_, w0)), (t1, (_, w1)) = sorted(by_trials.items())
        slope = (w1 - w0) / (t1 - t0)
        fits[engine] = (max(0.0, w0 - t0 * slope), slope)
    return fits


class TestAutoCostCalibration:
    """The built-in cost constants are the fit of the ``auto-cost/*`` records.

    Re-running ``benchmarks/test_bench_auto_cost.py`` on other hardware
    rewrites those records; paste the fitted constants this class reports
    into ``repro.sim.runner.register_builtin_engines``.
    """

    def test_every_auto_eligible_builtin_is_measured_at_two_trial_counts(self):
        points = auto_cost_points()
        assert set(points) == {"python", "vectorized", "tau", "tau-vec"}
        for engine, by_trials in points.items():
            assert sorted(by_trials) == [4, 512], engine

    def test_registry_constants_reproduce_the_fit(self):
        # compared through the predicted cost at each measured trial count,
        # so rounding the constants to three digits stays inside tolerance
        fits = fit_costs(auto_cost_points())
        for engine, (step_cost, trial_step_cost) in fits.items():
            info = get_engine(engine)
            for trials in (4, 512):
                fitted = step_cost + trials * trial_step_cost
                assert info.cost(trials) == pytest.approx(fitted, rel=0.02), (
                    f"{engine}: refit constants step_cost={step_cost:.3g}, "
                    f"trial_step_cost={trial_step_cost:.3g}"
                )

    def test_auto_picks_the_faster_engine_of_every_measured_pair(self):
        # Engines measured at one population belong to one class; wherever
        # one side of a pair is >= 1.5x faster, "auto" must pick it.
        points = auto_cost_points()
        decided = 0
        for a, b in itertools.combinations(sorted(points), 2):
            for trials in set(points[a]) & set(points[b]):
                (pop_a, wall_a), (pop_b, wall_b) = points[a][trials], points[b][trials]
                if pop_a != pop_b or max(wall_a, wall_b) < 1.5 * min(wall_a, wall_b):
                    continue
                faster = a if wall_a < wall_b else b
                config = RunConfig(
                    trials=trials, allow_approximate=get_engine(a).approximate
                )
                resolved = resolve_engine("auto", (pop_a,), config)
                assert resolved == faster, (a, b, trials)
                decided += 1
        assert decided == 4  # both classes, at both trial counts


class TestRegistryDispatch:
    def test_dummy_engine_dispatches_through_run_many(self, dummy_engine):
        crn = minimum_spec().known_crn
        report = run_many(crn, (3, 5), trials=4, engine="dummy")
        assert report.outputs == [42, 42, 42, 42]
        assert dummy_engine.calls[0][0] == "run_many"
        assert dummy_engine.calls[0][2].trials == 4

    def test_dummy_engine_dispatches_through_estimate(self, dummy_engine):
        crn = minimum_spec().known_crn
        assert estimate_expected_output(crn, (3, 5), engine="dummy") == 42.0

    def test_dummy_engine_dispatches_through_runconfig(self, dummy_engine):
        crn = minimum_spec().known_crn
        config = RunConfig(trials=2, engine="dummy")
        report = run_many(crn, (1, 1), config=config)
        assert report.outputs == [42, 42]
        assert dummy_engine.calls[-1][2] is config

    def test_dummy_engine_dispatches_through_verification(self, dummy_engine):
        from repro.verify import verify_stable_computation

        crn = minimum_spec().known_crn
        report = verify_stable_computation(
            crn,
            lambda x: 42,
            inputs=[(5, 9)],
            method="simulation",
            engine="dummy",
            function_name="const42",
        )
        assert report.passed
        assert report.results[0].observed_outputs[0] == 42

    def test_unregistered_engine_fails_at_dispatch(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="registered engines"):
            run_many(crn, (1, 1), engine="gone")

    def test_verification_rejects_kinetic_only_engines(self):
        # supports_fair=False metadata is consulted by the verification
        # harness: the randomized path's evidence assumes fair scheduling,
        # which the approximate tau engine does not implement.
        from repro.verify import verify_stable_computation

        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="supports_fair"):
            verify_stable_computation(
                crn, lambda x: min(x), inputs=[(2, 2)], method="simulation",
                engine="tau",
            )

    def test_verification_rejects_tau_vec(self):
        # The batched kinetic-only engine samples Gillespie kinetics, not the
        # fair scheduler the verification evidence assumes, so it must be
        # routed away from the randomized path with the same clear error as
        # tau.
        from repro.verify import verify_stable_computation

        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="supports_fair"):
            verify_stable_computation(
                crn, lambda x: min(x), inputs=[(2, 2)], method="simulation",
                engine="tau-vec",
            )


class TestValidateEngineRequest:
    """Explicit per-call requests are checked against capability metadata."""

    def test_epsilon_on_exact_engines_rejected(self):
        for engine in ("python", "vectorized"):
            with pytest.raises(ValueError) as excinfo:
                validate_engine_request(engine, epsilon=0.05)
            message = str(excinfo.value)
            assert "exact" in message and "epsilon" in message
            assert "'tau'" in message  # the actionable part: what to use instead

    def test_fair_on_kinetic_only_engines_rejected(self):
        for engine in ("tau", "tau-vec"):
            with pytest.raises(ValueError) as excinfo:
                validate_engine_request(engine, fair=True)
            message = str(excinfo.value)
            assert "supports_fair" in message
            assert "'python'" in message and "'vectorized'" in message

    def test_valid_requests_return_the_engine_info(self):
        assert validate_engine_request("tau", epsilon=0.1).name == "tau"
        assert validate_engine_request("python", fair=True).name == "python"
        assert validate_engine_request("tau-vec").name == "tau-vec"

    def test_unknown_engine_still_reported_first(self):
        with pytest.raises(ValueError, match="registered engines"):
            validate_engine_request("cuda", epsilon=0.1)


class TestBackCompat:
    def test_runner_module_still_exposes_check_engine(self):
        from repro.sim import runner

        runner.check_engine("python")
        with pytest.raises(ValueError):
            runner.check_engine("nope")

    def test_unregistered_builtins_are_restored_on_lookup(self):
        unregister_engine("python")
        try:
            assert get_engine("python").name == "python"
        finally:
            from repro.sim.runner import register_builtin_engines

            register_builtin_engines()

    def test_builtin_registration_is_idempotent(self):
        from repro.sim.runner import register_builtin_engines

        register_builtin_engines()
        register_builtin_engines()
        assert set(engine_names()) >= {"python", "vectorized"}

    def test_builtin_restore_does_not_clobber_an_override(self, dummy_engine):
        # Restoring one missing built-in must not re-register the other,
        # which a caller may have deliberately replaced.
        from repro.sim.runner import register_builtin_engines

        original_vectorized = get_engine("vectorized").implementation
        register_engine("vectorized", replace=True, description="override")(dummy_engine)
        unregister_engine("python")
        try:
            assert get_engine("python").name == "python"  # restored
            assert get_engine("vectorized").implementation is dummy_engine  # untouched
        finally:
            register_builtin_engines()
        assert get_engine("vectorized").implementation is not dummy_engine
        assert type(get_engine("vectorized").implementation) is type(original_vectorized)

    def test_restored_builtin_returns_to_its_slot(self, dummy_engine):
        # Built-ins sit in BUILTIN_ENGINES order ahead of third-party engines,
        # even after a middle one is unregistered and restored; an override
        # of another built-in survives the restore.
        from repro.sim.runner import BUILTIN_ENGINES, register_builtin_engines

        builtins = tuple(BUILTIN_ENGINES)
        middle = builtins[len(builtins) // 2]
        override = builtins[-1]
        register_engine(override, replace=True, description="override")(dummy_engine)
        unregister_engine(middle)
        try:
            assert engine_names() == builtins + ("dummy",)
            assert get_engine(override).implementation is dummy_engine
            assert [info.name for info in registered_engines()] == list(engine_names())
        finally:
            register_builtin_engines()
        assert engine_names() == builtins + ("dummy",)
