"""Cross-engine statistical equivalence gates (two-sample KS, fixed seeds).

The exact engines are locked bit-for-bit elsewhere (``tests/test_kernel.py``,
``tests/test_engine.py``).  This suite guards the property those locks cannot
express: every kinetic sampler — the exact scalar kernel (``python``), the
exact numpy batch engine (``vectorized``), the approximate tau-leaping
policy (``tau``), and the batched tau-leaping engine (``tau-vec``,
approximate *and* on the numpy Generator stream) — samples the *same*
continuous-time Markov chain, so their per-trajectory completion-step and
final-output distributions must agree up to sampling noise.  Each gate is a two-sample Kolmogorov–Smirnov test
(:mod:`repro.verify.statistical`) at ``ALPHA``, run on a fixed seed matrix so
the verdicts are deterministic in CI.

Coverage:

* the five construction strategy families (known / 1d / leaderless / quilt /
  general), python-vs-vectorized-vs-tau-vs-tau-vec;
* a branching CRN whose output is genuinely stochastic
  (``X -> Y`` at rate 1 vs ``X -> Z`` at rate 3, output ~ Binomial(n, 1/4)),
  and a dimerization CRN (``X + X -> Y`` competing with ``X -> Z``) whose
  output and step count hinge on a bimolecular propensity at a population
  where ``tau`` really leaps, so the gates compare non-degenerate
  distributions;
* *power*: deliberately rate-biased Gillespie *and* batched tau-leap
  samplers must be **rejected** by the same gates — a subtly biased
  backend (present or future numba/C) cannot pass by being merely plausible.

Methodology knobs (documented in DESIGN.md section 6): ``ALPHA = 1e-3`` per
gate, ``N_SEEDS = 60`` trajectories per engine per case.  Ties make the
asymptotic KS test conservative on integer data, which errs toward stability;
the biased-policy tests demonstrate the power retained.

Run alone with ``-m statistical`` (the dedicated CI job does); the suite also
runs in the normal tier-1 sweep because it is deterministic and fast.  Set
``REPRO_KS_OUT=<path>`` to archive every gate's KS numbers as JSON (CI
uploads this next to the benchmark artifact).
"""

import copy
import json
import os
import random

import pytest

from repro.core.characterization import build_crn_for
from repro.crn.network import CRN
from repro.crn.species import species
from repro.functions.catalog import (
    double_spec,
    minimum_spec,
    quilt_2d_fig3b_spec,
    threshold_capped_spec,
)
from repro.sim.kernel import GillespiePolicy, TauLeapPolicy, _GillespieStepper
from repro.verify.statistical import (
    DistributionSample,
    assert_distributions_match,
    kolmogorov_pvalue,
    ks_statistic,
    ks_two_sample,
    sample_kinetic_distribution,
)

pytestmark = pytest.mark.statistical

#: Per-gate false-alarm level.  With ~40 deterministic gates per run, 1e-3
#: keeps the fixed-seed matrix stable while the biased-policy tests show the
#: gates retain overwhelming power against real bias.
ALPHA = 1e-3

#: Trajectories per engine per case (the fixed seed matrix is
#: ``BASE_SEED + i`` for the scalar samplers, one ``N_SEEDS``-row batch for
#: the vectorized engine).
N_SEEDS = 60
BASE_SEED = 20_260_730

X, Y, Z = species("X Y Z")


def _branching_crn() -> CRN:
    """Output ~ Binomial(n, 1/4): competing X -> Y (rate 1) / X -> Z (rate 3)."""
    return CRN([(X >> Y), (X >> Z).with_rate(3.0)], (X,), Y, name="branching")


def _dimerization_crn() -> CRN:
    """Competing X + X -> Y (rate 0.005) / X -> Z (rate 3): a stochastic
    output and completion-step count driven by a bimolecular propensity."""
    return CRN(
        [(X + X >> Y).with_rate(0.005), (X >> Z).with_rate(3.0)],
        (X,),
        Y,
        name="dimerization",
    )


def build_family_cases():
    """(label, CRN, input) for every construction strategy plus the two
    rate-sensitive CRNs (unimolecular branching, bimolecular dimerization).

    Inputs are sized so every family falls silent under Gillespie kinetics
    within the step budget (verified by the gates' ``all_completed`` check)
    and the known/min case is large enough for tau-leaping to actually leap
    rather than just fall back to exact stepping.
    """
    return [
        ("known/min", minimum_spec().known_crn, (400, 700)),
        ("1d/threshold", build_crn_for(threshold_capped_spec(), strategy="1d"), (60,)),
        ("leaderless/double", build_crn_for(double_spec(), strategy="leaderless"), (50,)),
        ("quilt/fig3b", build_crn_for(quilt_2d_fig3b_spec(), strategy="quilt"), (12, 9)),
        ("general/min", build_crn_for(minimum_spec(), strategy="general"), (20, 30)),
        ("branching/binomial", _branching_crn(), (400,)),
        ("dimerization/competing", _dimerization_crn(), (2000,)),
    ]


FAMILY_CASES = build_family_cases()
FAMILY_IDS = [label for label, _, _ in FAMILY_CASES]
STOCHASTIC_OUTPUT_FAMILIES = {"branching/binomial", "dimerization/competing"}

#: Gate outcomes archived to $REPRO_KS_OUT (CI artifact); see _write_records.
_GATE_RECORDS = []

#: Per-(family, engine) sample cache so each distribution is simulated once
#: even though several gates consume it.
_SAMPLES = {}


@pytest.fixture
def sample_distribution():
    """``sample_distribution(label, crn, x, engine)`` with per-session caching.

    The reusable sampling fixture of the statistical suite: one call per
    (family, engine) pair simulates ``N_SEEDS`` seeded trajectories through
    :func:`repro.verify.statistical.sample_kinetic_distribution`; repeated
    calls replay the cached :class:`DistributionSample`.
    """

    def sampler(label, crn, x, engine) -> DistributionSample:
        key = (label, engine)
        if key not in _SAMPLES:
            _SAMPLES[key] = sample_kinetic_distribution(
                crn, x, engine=engine, n_seeds=N_SEEDS, base_seed=BASE_SEED
            )
        return _SAMPLES[key]

    return sampler


def _gate(label, reference, candidate):
    """Run the KS gates and archive their numbers for the CI artifact."""
    results = assert_distributions_match(
        reference, candidate, metrics=("steps", "outputs"), alpha=ALPHA
    )
    for metric, ks in results:
        _GATE_RECORDS.append(
            {
                "family": label,
                "reference": reference.engine,
                "candidate": candidate.engine,
                "metric": metric,
                "statistic": round(ks.statistic, 6),
                "pvalue": round(ks.pvalue, 6),
                "n": ks.n,
                "m": ks.m,
                "alpha": ALPHA,
            }
        )
    return results


def _write_records():
    out = os.environ.get("REPRO_KS_OUT")
    if not out or not _GATE_RECORDS:
        return
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "schema": "repro-ks-v1",
                "alpha": ALPHA,
                "n_seeds": N_SEEDS,
                "base_seed": BASE_SEED,
                "gates": _GATE_RECORDS,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


@pytest.fixture(scope="module", autouse=True)
def _archive_gate_records():
    yield
    _write_records()


class TestKSMachinery:
    """The KS toolkit itself, against known answers."""

    def test_identical_samples_never_reject(self):
        sample = [random.Random(1).randint(0, 9) for _ in range(80)]
        result = ks_two_sample(sample, list(sample))
        assert result.statistic == 0.0
        assert result.pvalue == 1.0

    def test_disjoint_samples_maximally_reject(self):
        result = ks_two_sample([0] * 40, [1] * 40)
        assert result.statistic == 1.0
        assert result.pvalue < 1e-6

    def test_statistic_handles_ties_exactly(self):
        # F_a and F_b evaluated after consuming all equal values:
        # a = {0,0,1}, b = {0,1,1} -> sup gap at x=0 is |2/3 - 1/3| = 1/3.
        assert ks_statistic([0, 0, 1], [0, 1, 1]) == pytest.approx(1 / 3)

    def test_statistic_is_symmetric(self):
        rng = random.Random(7)
        a = [rng.randint(0, 30) for _ in range(50)]
        b = [rng.randint(0, 25) for _ in range(70)]
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_pvalue_decreases_with_statistic_and_size(self):
        assert kolmogorov_pvalue(0.5, 40, 40) < kolmogorov_pvalue(0.2, 40, 40)
        assert kolmogorov_pvalue(0.3, 200, 200) < kolmogorov_pvalue(0.3, 20, 20)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1, 2])


#: Each built-in's ``sample_kinetic_distribution`` on the dimerization CRN
#: at ``(2000,)``, 4 seeds from ``BASE_SEED``: ``(steps, outputs)``,
#: recorded while the sampler still dispatched on engine names itself.
SEED_MATRIX_PINS = {
    "python": ([1426, 1434, 1423, 1433], [574, 566, 577, 567]),
    "vectorized": ([1431, 1432, 1460, 1435], [569, 568, 540, 565]),
    "tau": ([1431, 1419, 1424, 1430], [569, 581, 576, 570]),
    "tau-vec": ([1424, 1451, 1436, 1449], [576, 549, 564, 551]),
}


class TestSamplerDispatch:
    """Engine names resolve through the registry's kinetic half."""

    @pytest.mark.parametrize("engine", list(SEED_MATRIX_PINS))
    def test_builtin_seed_matrix_is_pinned(self, engine):
        # Scalar samplers draw trajectory i from BASE_SEED + i, batch ones
        # one batch seeded with BASE_SEED; neither may drift.
        sample = sample_kinetic_distribution(
            _dimerization_crn(), (2000,), engine=engine, n_seeds=4, base_seed=BASE_SEED
        )
        assert (sample.steps, sample.outputs) == SEED_MATRIX_PINS[engine]
        assert sample.all_completed and sample.engine == engine

    def test_unknown_engine_names_the_registered_ones(self):
        with pytest.raises(ValueError, match="registered engines"):
            sample_kinetic_distribution(_branching_crn(), (10,), engine="no-such-engine")

    def test_engine_without_a_kinetic_half_is_rejected(self):
        from repro.sim.registry import register_engine, unregister_engine

        class RunOnly:
            def run_many(self, crn, x, config):
                raise NotImplementedError

            def estimate_expected_output(self, crn, x, config):
                raise NotImplementedError

        register_engine("stat-run-only")(RunOnly)
        try:
            with pytest.raises(ValueError, match="kinetic_policy"):
                sample_kinetic_distribution(
                    _branching_crn(), (10,), engine="stat-run-only"
                )
        finally:
            unregister_engine("stat-run-only")

    def test_a_registered_scalar_adapter_samples_like_the_builtin(self):
        # Registry data, not a name ladder: a third-party engine built from
        # the same adapter and policies draws the very same sample.
        from repro.sim.kernel import FairPolicy
        from repro.sim.registry import register_engine, unregister_engine
        from repro.sim.runner import ScalarEngine

        adapter = ScalarEngine(lambda config: FairPolicy(), lambda config: GillespiePolicy())
        register_engine("stat-scalar")(adapter)
        try:
            custom = sample_kinetic_distribution(
                _branching_crn(), (40,), engine="stat-scalar", n_seeds=8
            )
        finally:
            unregister_engine("stat-scalar")
        builtin = sample_kinetic_distribution(_branching_crn(), (40,), n_seeds=8)
        assert (custom.steps, custom.outputs) == (builtin.steps, builtin.outputs)
        assert custom.engine == "stat-scalar"


class TestCrossEngineGates:
    """python vs vectorized vs tau vs tau-vec across every family, steps + outputs."""

    @pytest.mark.parametrize("label,crn,x", FAMILY_CASES, ids=FAMILY_IDS)
    def test_vectorized_matches_python(self, sample_distribution, label, crn, x):
        reference = sample_distribution(label, crn, x, "python")
        candidate = sample_distribution(label, crn, x, "vectorized")
        assert reference.all_completed and candidate.all_completed
        _gate(label, reference, candidate)

    @pytest.mark.parametrize("label,crn,x", FAMILY_CASES, ids=FAMILY_IDS)
    def test_tau_matches_python(self, sample_distribution, label, crn, x):
        reference = sample_distribution(label, crn, x, "python")
        candidate = sample_distribution(label, crn, x, "tau")
        assert reference.all_completed and candidate.all_completed
        _gate(label, reference, candidate)

    @pytest.mark.parametrize("label,crn,x", FAMILY_CASES, ids=FAMILY_IDS)
    def test_tau_matches_vectorized(self, sample_distribution, label, crn, x):
        reference = sample_distribution(label, crn, x, "vectorized")
        candidate = sample_distribution(label, crn, x, "tau")
        _gate(label, reference, candidate)

    @pytest.mark.parametrize("label,crn,x", FAMILY_CASES, ids=FAMILY_IDS)
    def test_tau_vec_matches_python(self, sample_distribution, label, crn, x):
        # The admission gate for the batched tau-leap engine: approximate
        # sampler on the numpy Generator stream, so distributional identity
        # against the exact scalar reference is the whole contract.
        reference = sample_distribution(label, crn, x, "python")
        candidate = sample_distribution(label, crn, x, "tau-vec")
        assert reference.all_completed and candidate.all_completed
        _gate(label, reference, candidate)

    @pytest.mark.parametrize("label,crn,x", FAMILY_CASES, ids=FAMILY_IDS)
    def test_tau_vec_matches_vectorized(self, sample_distribution, label, crn, x):
        reference = sample_distribution(label, crn, x, "vectorized")
        candidate = sample_distribution(label, crn, x, "tau-vec")
        _gate(label, reference, candidate)

    @pytest.mark.parametrize("label,crn,x", FAMILY_CASES, ids=FAMILY_IDS)
    def test_tau_vec_matches_tau(self, sample_distribution, label, crn, x):
        # Both tau variants approximate the same CTMC with the same CGP
        # bound; agreeing with each other *and* with the exact engines pins
        # the batched port to the scalar semantics.
        reference = sample_distribution(label, crn, x, "tau")
        candidate = sample_distribution(label, crn, x, "tau-vec")
        _gate(label, reference, candidate)

    def test_stable_outputs_equal_across_engines(self, sample_distribution):
        # Beyond distributional agreement: on a stable computation every
        # engine must converge to the same (deterministic) output.
        for label, crn, x in FAMILY_CASES:
            if label in STOCHASTIC_OUTPUT_FAMILIES:
                continue  # genuinely stochastic output by construction
            expected = sample_distribution(label, crn, x, "python").outputs[0]
            for engine in ("python", "vectorized", "tau", "tau-vec"):
                sample = sample_distribution(label, crn, x, engine)
                assert set(sample.outputs) == {expected}, (label, engine)


class _RateBiasedGillespiePolicy(GillespiePolicy):
    """A deliberately broken backend: inflates output-producing propensities.

    Models the failure mode the gates exist to catch — a backend whose
    per-reaction rates are subtly wrong (mis-ported rate constants, a wrong
    binomial term, a biased sampler) while everything else looks healthy.
    """

    def __init__(self, factor: float = 3.0) -> None:
        self.factor = factor

    def bind(self, compiled, rng):
        # Inflate the rate constants of a shallow IR copy: the stepper
        # computes every propensity (at start and in its event loop) from
        # ``rate_list``, so the bias reaches each one.
        biased = copy.copy(compiled)
        biased.rate_list = tuple(
            rate * self.factor
            if any(s == compiled.output_index and delta > 0 for s, delta in terms)
            else rate
            for rate, terms in zip(compiled.rate_list, compiled.net_terms)
        )
        return _GillespieStepper(biased, rng)


class _RateBiasedBatchTauEngine:
    """The same injected rate bias, through the batched tau-leap machinery.

    Wraps :class:`~repro.sim.engine.BatchTauLeapEngine` with a compiled-CRN
    proxy whose ``propensities`` inflate every output-producing reaction, so
    the bias flows through *both* batched sampling paths — the Poisson leap
    intensities and the exact-fallback inverse-CDF selection — exactly as a
    mis-ported rate constant would.
    """

    def __init__(self, crn: CRN, seed: int, factor: float = 3.0) -> None:
        import numpy as np

        from repro.sim.engine import BatchTauLeapEngine

        self._engine = BatchTauLeapEngine(crn, seed=seed)
        compiled = self._engine.compiled
        scale = np.ones(compiled.n_reactions)
        for r, terms in enumerate(compiled.net_terms):
            if any(
                s == compiled.output_index and delta > 0 for s, delta in terms
            ):
                scale[r] = factor

        class _BiasedCompiled:
            def __getattr__(self, name):
                return getattr(compiled, name)

            def propensities(self, counts):
                return compiled.propensities(counts) * scale

        self._engine.compiled = _BiasedCompiled()

    def sample(self, x, n_seeds: int) -> DistributionSample:
        result = self._engine.run_on_input(x, batch=n_seeds)
        sample = DistributionSample(engine="tau-vec[rate-biased]")
        sample.steps = [int(v) for v in result.steps]
        sample.outputs = [int(v) for v in result.output_counts()]
        sample.all_completed = bool(result.silent.all())
        return sample


class TestGatePower:
    """A rate-biased policy must fail the same gates the honest engines pass."""

    def test_biased_policy_rejected_on_outputs(self, sample_distribution):
        label, crn, x = "branching/binomial", _branching_crn(), (400,)
        reference = sample_distribution(label, crn, x, "python")
        biased = sample_kinetic_distribution(
            crn,
            x,
            engine=_RateBiasedGillespiePolicy(factor=3.0),
            n_seeds=N_SEEDS,
            base_seed=BASE_SEED + 10_000,
        )
        # The bias triples the output pathway: Binomial(n, 1/4) becomes
        # Binomial(n, 1/2), a distribution shift the gate must flag.
        with pytest.raises(AssertionError, match="outputs distribution"):
            assert_distributions_match(
                reference, biased, metrics=("outputs",), alpha=ALPHA
            )

    def test_biased_policy_rejected_on_steps(self):
        # A CRN whose completion step count is rate-sensitive: the direct
        # pathway X -> Y finishes in one event, the detour X -> A -> Z takes
        # two, so steps-to-silence is n + Binomial(n, p_detour) and biasing
        # the output-producing pathway shifts p_detour from 1/2 to 1/5.
        (A,) = species("A")
        crn = CRN([(X >> Y), (X >> A), (A >> Z)], (X,), Y)
        x = (300,)
        reference = sample_kinetic_distribution(
            crn, x, engine="python", n_seeds=N_SEEDS, base_seed=BASE_SEED
        )
        biased = sample_kinetic_distribution(
            crn,
            x,
            engine=_RateBiasedGillespiePolicy(factor=4.0),
            n_seeds=N_SEEDS,
            base_seed=BASE_SEED,
        )
        with pytest.raises(AssertionError, match="steps distribution"):
            assert_distributions_match(
                reference, biased, metrics=("steps",), alpha=ALPHA
            )

    def test_biased_batch_tau_engine_rejected_on_outputs(self, sample_distribution):
        # The batched tau-leap machinery earns no exemption either: the same
        # injected rate bias routed through batched Poisson intensities and
        # the exact-fallback selection must be flagged by the gate the honest
        # tau-vec sampler passes.
        label, crn, x = "branching/binomial", _branching_crn(), (400,)
        reference = sample_distribution(label, crn, x, "python")
        biased = _RateBiasedBatchTauEngine(
            crn, seed=BASE_SEED + 30_000, factor=3.0
        ).sample(x, N_SEEDS)
        assert biased.all_completed
        with pytest.raises(AssertionError, match="outputs distribution"):
            assert_distributions_match(
                reference, biased, metrics=("outputs",), alpha=ALPHA
            )

    def test_honest_policies_pass_where_biased_fails(self, sample_distribution):
        # Control for the rejection tests: on the very same CRN/input the
        # honest approximate samplers pass, so the gate discriminates bias
        # from approximation.
        label, crn, x = "branching/binomial", _branching_crn(), (400,)
        reference = sample_distribution(label, crn, x, "python")
        tau = sample_distribution(label, crn, x, "tau")
        assert_distributions_match(reference, tau, metrics=("outputs",), alpha=ALPHA)
        tau_vec = sample_distribution(label, crn, x, "tau-vec")
        assert_distributions_match(
            reference, tau_vec, metrics=("outputs",), alpha=ALPHA
        )


class TestTauErrorKnob:
    def test_tighter_epsilon_takes_more_selections(self):
        from repro.sim.kernel import SimulatorCore

        crn = minimum_spec().known_crn
        loose = SimulatorCore(
            crn, TauLeapPolicy(epsilon=0.2), rng=random.Random(1)
        ).run_on_input((5_000, 5_000))
        tight = SimulatorCore(
            crn, TauLeapPolicy(epsilon=0.01), rng=random.Random(1)
        ).run_on_input((5_000, 5_000))
        assert loose.silent and tight.silent
        assert loose.steps == tight.steps == 5_000  # same CTMC endpoint
        assert tight.selections > loose.selections  # smaller leaps

    def test_epsilon_flows_from_runconfig(self):
        from repro.api.config import RunConfig
        from repro.sim.runner import run_many

        crn = minimum_spec().known_crn
        report = run_many(
            crn,
            (2_000, 3_000),
            config=RunConfig(trials=3, seed=11, engine="tau", epsilon=0.05),
        )
        assert report.outputs == [2_000, 2_000, 2_000]
        assert report.all_silent_or_converged

    def test_tighter_epsilon_takes_more_leap_rounds_batched(self):
        from repro.sim.engine import BatchTauLeapEngine

        crn = minimum_spec().known_crn
        loose = BatchTauLeapEngine(crn, seed=1, epsilon=0.2).run_on_input(
            (5_000, 5_000), batch=4
        )
        tight = BatchTauLeapEngine(crn, seed=1, epsilon=0.01).run_on_input(
            (5_000, 5_000), batch=4
        )
        assert loose.silent.all() and tight.silent.all()
        assert loose.steps.tolist() == tight.steps.tolist() == [5_000] * 4
        assert tight.stats.selections > loose.stats.selections  # smaller leaps

    def test_epsilon_flows_from_runconfig_to_tau_vec(self):
        from repro.api.config import RunConfig
        from repro.sim.runner import run_many

        crn = minimum_spec().known_crn
        report = run_many(
            crn,
            (2_000, 3_000),
            config=RunConfig(trials=3, seed=11, engine="tau-vec", epsilon=0.05),
        )
        assert report.outputs == [2_000, 2_000, 2_000]
        assert report.all_silent_or_converged
