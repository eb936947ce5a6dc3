"""The ``Workbench`` facade: spec → CRN → simulate → verify in one place.

The paper's point is *composable* computation, and this module makes the
workflow composable too.  Instead of threading the same keyword cloud through
``build_crn_for`` / ``run_many`` / ``verify_stable_computation`` by hand::

    wb = Workbench(RunConfig(trials=20, seed=7, engine="vectorized"))
    compiled = wb.compile(minimum_spec())          # builds + caches the CRN
    report = compiled.simulate((30, 50))           # ConvergenceReport
    verdict = compiled.verify()                    # VerificationReport
    mean = compiled.expected_output((30, 50))      # Gillespie estimate

Every method returns the existing report types unchanged, and every per-call
override (``trials=``, ``engine=``, ``epsilon=``, …) derives a fresh
:class:`~repro.api.config.RunConfig` via ``replace()`` — the workbench itself
is never mutated.  Any registered engine is addressable per call, including
the approximate tau-leaping backend::

    compiled.simulate((100_000, 100_000), engine="tau", epsilon=0.03)
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.core.characterization import (
    CharacterizationVerdict,
    build_crn_for,
    check_obliviously_computable,
)
from repro.core.specs import FunctionSpec
from repro.crn.network import CRN
from repro.sim.registry import EngineInfo, registered_engines, validate_engine_request
from repro.sim.runner import (
    ConvergenceReport,
    estimate_expected_output,
    run_many,
    sweep_inputs,
)
from repro.verify.stable import VerificationReport, verify_stable_computation


class CompiledFunction:
    """A spec bound to a built CRN, ready to simulate and verify.

    Produced by :meth:`Workbench.compile`.  Holds the CRN *and* its
    :class:`~repro.sim.engine.CompiledCRN` IR (forced eagerly so the first
    run pays no compilation cost — the IR now carries the sparse term lists
    and reaction dependency graph consumed by the scalar kernel of
    :mod:`repro.sim.kernel` as well as the dense matrices consumed by the
    vectorized batch engines), plus the run configuration inherited from the
    workbench.
    """

    def __init__(
        self,
        spec: FunctionSpec,
        crn: CRN,
        strategy: str,
        config: RunConfig,
    ) -> None:
        self.spec = spec
        self.crn = crn
        self.strategy = strategy
        self.config = config
        self.compiled_crn = crn.compiled()

    # -- configuration ---------------------------------------------------------

    def _resolved(self, config: Optional[RunConfig], overrides: dict) -> RunConfig:
        # Explicit per-call requests are checked against the resolved engine's
        # capability metadata: ``fair=True`` (an assertion of fair-scheduler
        # semantics, not a RunConfig field) rejects kinetic-only engines such
        # as "tau"/"tau-vec", and an explicit ``epsilon=`` override rejects exact
        # engines, which would silently ignore the error knob.
        fair = bool(overrides.pop("fair", False))
        explicit_epsilon = overrides.get("epsilon")
        if config is not None:
            resolved = config.replace(**overrides) if overrides else config
        elif overrides:
            resolved = self.config.replace(**overrides)
        else:
            resolved = self.config
        if fair or explicit_epsilon is not None:
            validate_engine_request(
                resolved.engine, fair=fair, epsilon=explicit_epsilon
            )
        return resolved

    def with_config(self, config: Optional[RunConfig] = None, **overrides) -> "CompiledFunction":
        """A copy of this compiled function carrying a derived run configuration."""
        clone = copy.copy(self)
        clone.config = self._resolved(config, overrides)
        return clone

    # -- the workflow ----------------------------------------------------------

    def __call__(self, x: Sequence[int]) -> int:
        """Evaluate the *specification* (not the CRN) at ``x``."""
        return self.spec(x)

    def simulate(
        self, x: Sequence[int], config: Optional[RunConfig] = None, **overrides
    ) -> ConvergenceReport:
        """Repeated fair-scheduler runs on one input (see :func:`repro.sim.run_many`)."""
        return run_many(self.crn, x, config=self._resolved(config, overrides))

    def sweep(
        self,
        inputs: Iterable[Sequence[int]],
        config: Optional[RunConfig] = None,
        **overrides,
    ) -> List[ConvergenceReport]:
        """:meth:`simulate` over many inputs, with independent per-input seeds."""
        return sweep_inputs(self.crn, inputs, config=self._resolved(config, overrides))

    def expected_output(
        self, x: Sequence[int], config: Optional[RunConfig] = None, **overrides
    ) -> float:
        """Monte-Carlo mean output under Gillespie kinetics."""
        return estimate_expected_output(
            self.crn, x, config=self._resolved(config, overrides)
        )

    def verify(
        self,
        inputs: Optional[Iterable[Sequence[int]]] = None,
        method: str = "auto",
        exhaustive_limit: int = 20_000,
        config: Optional[RunConfig] = None,
        **overrides,
    ) -> VerificationReport:
        """Check that the built CRN stably computes the spec.

        Defaults to the exhaustive-with-randomized-fallback policy of
        :func:`repro.verify.verify_stable_computation` over the standard input
        grid; the randomized path uses this compiled function's run config.
        """
        return verify_stable_computation(
            self.crn,
            self.spec,
            inputs=inputs,
            method=method,
            exhaustive_limit=exhaustive_limit,
            function_name=self.spec.name,
            config=self._resolved(config, overrides),
        )

    def __repr__(self) -> str:
        return (
            f"CompiledFunction({self.spec.name!r}, strategy={self.strategy!r}, "
            f"reactions={len(self.crn.reactions)}, engine={self.config.engine!r})"
        )


class Workbench:
    """The documented front door: compile specs into runnable, verifiable CRNs.

    Parameters
    ----------
    config:
        The default :class:`~repro.api.config.RunConfig` handed to every
        compiled function (``RunConfig()`` when omitted).  Per-call overrides
        never mutate it.

    Compilation results are cached per ``(spec, strategy)``, so repeated
    ``compile`` calls on the same spec object reuse both the CRN and its
    dense matrices.
    """

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config if config is not None else RunConfig()
        self._cache: Dict[Tuple[int, str, str], CompiledFunction] = {}

    def with_config(self, config: Optional[RunConfig] = None, **overrides) -> "Workbench":
        """A new workbench with a derived default configuration (cache not shared)."""
        if config is None:
            config = self.config.replace(**overrides) if overrides else self.config
        elif overrides:
            config = config.replace(**overrides)
        return Workbench(config)

    def compile(
        self, spec: FunctionSpec, strategy: str = "auto", name: str = ""
    ) -> CompiledFunction:
        """Build (or fetch from cache) the CRN for ``spec``.

        ``strategy`` is one of ``"auto"`` / ``"known"`` / ``"1d"`` /
        ``"leaderless"`` / ``"quilt"`` / ``"general"`` — see
        :func:`repro.core.characterization.build_crn_for`, which performs the
        actual dispatch.
        """
        key = (id(spec), strategy, name)
        cached = self._cache.get(key)
        if cached is not None and cached.spec is spec:
            return cached.with_config(self.config)
        crn = build_crn_for(spec, name=name, strategy=strategy)
        compiled = CompiledFunction(spec, crn, strategy, self.config)
        self._cache[key] = compiled
        return compiled

    def compile_json(self, payload) -> CompiledFunction:
        """Compile from a wire-form request: the serve protocol's seam.

        ``payload`` is a JSON-shaped dict — ``{"spec": <name or
        spec_to_json_dict payload>, "strategy": ..., "config": ...}`` — the
        same shape ``POST /v1/compile`` and ``POST /v1/simulate`` accept.
        The spec resolves by registered name
        (:func:`repro.api.serialization.spec_from_json_dict`), the config
        merges over this workbench's default
        (:meth:`repro.api.config.RunConfig.from_json_dict`), and validation
        errors name the offending field.
        """
        from repro.api.serialization import spec_from_json_dict

        if not isinstance(payload, dict):
            raise ValueError(f"payload must be a dict, got {type(payload).__name__}")
        raw_spec = payload.get("spec")
        if isinstance(raw_spec, str):
            raw_spec = {"name": raw_spec}
        spec = spec_from_json_dict(raw_spec if raw_spec is not None else {})
        strategy = payload.get("strategy", "auto")
        compiled = self.compile(spec, strategy=strategy)
        if payload.get("config") is not None:
            compiled = compiled.with_config(
                RunConfig.from_json_dict(payload["config"], default=self.config)
            )
        return compiled

    def characterize(self, spec: FunctionSpec, **kwargs) -> CharacterizationVerdict:
        """Run the Theorem 5.2 / 5.4 decision procedure on ``spec``."""
        return check_obliviously_computable(spec, **kwargs)

    def engines(self) -> Tuple[EngineInfo, ...]:
        """The registered simulation engines with their capability metadata."""
        return registered_engines()

    def campaign(
        self,
        name: str,
        specs,
        inputs,
        engines: Optional[Sequence[str]] = None,
        configs=None,
        seed: Optional[int] = None,
        out_dir: Optional[str] = None,
        workers: int = 1,
        **kwargs,
    ):
        """Run a :mod:`repro.lab` campaign seeded with this workbench's defaults.

        ``specs`` accepts registered spec names, ``(name, strategy)`` pairs,
        or :class:`~repro.core.specs.FunctionSpec` instances (auto-registered
        under their own name); ``inputs`` is an explicit list of tuples or a
        :class:`~repro.lab.campaign.SweepGrid`.  Unless overridden, the engine
        axis, config variant, and master seed come from this workbench's
        :class:`~repro.api.config.RunConfig`.  Returns the
        :class:`~repro.lab.campaign.CampaignRun` (results + summary +
        provenance counts); artifacts land in ``out_dir`` (default
        ``runs/<name>``).  Extra keyword arguments flow to
        :func:`repro.lab.campaign.run_campaign` (``cache_dir``, ``timeout``,
        ``executor``, ``progress``, ...).
        """
        # Imported lazily: repro.lab sits above this module in the layering.
        from repro.lab.campaign import Campaign, run_campaign

        campaign = Campaign(
            name=name,
            specs=list(specs),
            inputs=inputs,
            engines=tuple(engines) if engines is not None else (self.config.engine,),
            configs=tuple(configs) if configs is not None else (self.config,),
            seed=seed if seed is not None else self.config.seed,
        )
        import os

        return run_campaign(
            campaign,
            out_dir if out_dir is not None else os.path.join("runs", name),
            workers=workers,
            **kwargs,
        )

    def __repr__(self) -> str:
        return f"Workbench(config={self.config.describe()}, cached={len(self._cache)})"
