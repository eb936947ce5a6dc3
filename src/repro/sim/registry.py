"""Pluggable simulation-engine registry.

The repeated-run entry points (:func:`repro.sim.runner.run_many`,
:func:`repro.sim.runner.estimate_expected_output`,
:func:`repro.verify.stable.verify_stable_computation`) dispatch through this
registry instead of a hard-coded ``if engine == ...`` ladder.  An engine is a
class (or instance) exposing two methods::

    run_many(crn, x, config: RunConfig) -> ConvergenceReport
    estimate_expected_output(crn, x, config: RunConfig) -> float

and is registered under a name with capability metadata::

    from repro.sim.registry import register_engine

    @register_engine(
        "my-backend",
        supports_gillespie=True,
        supports_fair=False,
        description="FFI bridge to ...",
    )
    class MyBackend:
        def run_many(self, crn, x, config): ...
        def estimate_expected_output(self, crn, x, config): ...

After registration, ``engine="my-backend"`` works everywhere an ``engine=``
selector or :class:`~repro.api.config.RunConfig` is accepted — no dispatch
code needs to change.  The built-in engines (``"python"``, ``"vectorized"``,
``"tau"``, ``"tau-vec"``) are registered the same way, from the
``BUILTIN_ENGINES`` table of :mod:`repro.sim.runner`; a built-in's
implementation is a :class:`~repro.sim.runner.ScalarEngine` (its trial seeds
run through one :func:`repro.sim.kernel.run_trials` call) or
:class:`~repro.sim.runner.BatchEngine`, whose kinetic half
(``kinetic_policy`` / ``kinetic_engine``) also serves
:func:`repro.verify.statistical.sample_kinetic_distribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

_REQUIRED_METHODS = ("run_many", "estimate_expected_output")


@dataclass(frozen=True)
class EngineInfo:
    """A registered engine: its implementation plus capability metadata.

    Attributes
    ----------
    name:
        The ``engine=`` selector value.
    implementation:
        The object whose ``run_many`` / ``estimate_expected_output`` methods
        perform the work.
    supports_gillespie / supports_fair:
        Which scheduling semantics the backend implements.  Plain ``run_many``
        dispatch does not enforce these (an engine may raise its own errors),
        but contract-sensitive callers consult them:
        :func:`repro.verify.stable.verify_stable_computation` rejects
        ``supports_fair=False`` engines for its randomized path, and campaign
        ``"auto"`` resolution only considers fair-capable exact engines.
    max_recommended_population:
        Advisory population ceiling for callers (``None`` = no practical
        limit).  No built-in engine sets one, and ``"auto"`` ignores it.
    min_recommended_population:
        The population size *below* which the engine buys nothing over the
        exact reference (``None`` = useful at any size).  Approximate engines
        such as ``"tau"`` publish a floor: under it they degrade to exact
        stepping, so ``"auto"`` admits them only at or above it.
    approximate:
        True when the engine samples the kinetics approximately rather than
        exactly (results are statistically, not bit-for-bit, equivalent to
        the exact engines; see ``tests/test_statistical_equivalence.py``).
    batch_capable:
        True when the engine advances all trials simultaneously through a
        dense batch representation (numpy rows) rather than one trajectory
        at a time, published as metadata so callers never have to
        string-match engine names.
    step_cost / trial_step_cost:
        The calibrated cost rule ``"auto"`` minimises: seconds per reaction
        step of one ``run_many`` call, ``step_cost + trials *
        trial_step_cost``.  ``step_cost`` is paid once per lockstep step
        (a batch engine's fixed per-round overhead; near zero for scalar
        engines), ``trial_step_cost`` once per trial-step.  Fitted from
        the ``auto-cost/*`` records in ``BENCH_results.json``.  An engine
        without a ``trial_step_cost`` is uncalibrated and never picked by
        ``"auto"``.
    description:
        One-line human-readable summary.
    """

    name: str
    implementation: Any
    supports_gillespie: bool = True
    supports_fair: bool = True
    max_recommended_population: Optional[int] = None
    min_recommended_population: Optional[int] = None
    approximate: bool = False
    batch_capable: bool = False
    step_cost: float = 0.0
    trial_step_cost: Optional[float] = None
    description: str = ""

    def cost(self, trials: int) -> Optional[float]:
        """Predicted seconds per reaction step at ``trials`` (``None``: uncalibrated)."""
        if self.trial_step_cost is None:
            return None
        return self.step_cost + trials * self.trial_step_cost

    def to_dict(self) -> Dict[str, Any]:
        """Capability metadata as a JSON-serializable dict (no implementation).

        The single serialization shared by ``python -m repro engines --json``
        and the serve API's ``GET /v1/engines``, so the two surfaces can
        never drift.
        """
        return {
            "name": self.name,
            "supports_gillespie": self.supports_gillespie,
            "supports_fair": self.supports_fair,
            "max_recommended_population": self.max_recommended_population,
            "min_recommended_population": self.min_recommended_population,
            "approximate": self.approximate,
            "batch_capable": self.batch_capable,
            "step_cost": self.step_cost,
            "trial_step_cost": self.trial_step_cost,
            "description": self.description,
        }

    def run_many(self, crn, x, config):
        """Dispatch ``run_many`` to the implementation."""
        return self.implementation.run_many(crn, x, config)

    def estimate_expected_output(self, crn, x, config):
        """Dispatch ``estimate_expected_output`` to the implementation."""
        return self.implementation.estimate_expected_output(crn, x, config)


_REGISTRY: Dict[str, EngineInfo] = {}

#: Bumped on every change to ``_REGISTRY`` (see :func:`registry_generation`).
_GENERATION = 0


def _changed() -> None:
    global _GENERATION
    _GENERATION += 1


def registry_generation() -> int:
    """A counter that every registration, removal and re-ordering bumps.

    Whatever is derived from the registry (the campaign ``"auto"`` pick
    memo, a forked worker's copy of the registry) is current while the
    counter still reads the value it was derived at.
    """
    return _GENERATION


def _ensure_builtin_engines() -> None:
    import repro.sim.runner as runner

    # Importing the runner registers the built-ins; re-register any that a
    # caller (e.g. a test) unregistered, back in its BUILTIN_ENGINES slot
    # ahead of third-party engines.  Only the missing names are touched — a
    # deliberate replace=True override of the other built-ins must survive.
    missing = set(runner.BUILTIN_ENGINES) - set(_REGISTRY)
    if missing:
        runner.register_builtin_engines(missing)
        builtins = list(runner.BUILTIN_ENGINES)
        for name in builtins + [n for n in _REGISTRY if n not in builtins]:
            _REGISTRY[name] = _REGISTRY.pop(name)
        _changed()


def register_engine(
    name: str,
    *,
    supports_gillespie: bool = True,
    supports_fair: bool = True,
    max_recommended_population: Optional[int] = None,
    min_recommended_population: Optional[int] = None,
    approximate: bool = False,
    batch_capable: bool = False,
    step_cost: float = 0.0,
    trial_step_cost: Optional[float] = None,
    description: str = "",
    replace: bool = False,
):
    """Class decorator registering a simulation engine under ``name``.

    The decorated class is instantiated once at registration time (an already
    constructed instance is also accepted).  It must expose ``run_many`` and
    ``estimate_expected_output`` methods taking ``(crn, x, config)``.

    Pass ``replace=True`` to overwrite an existing registration (useful in
    tests); otherwise a duplicate name raises ``ValueError``.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"engine name must be a nonempty string, got {name!r}")

    def decorator(cls):
        if name in _REGISTRY and not replace:
            raise ValueError(
                f"engine {name!r} is already registered; pass replace=True to overwrite"
            )
        implementation = cls() if isinstance(cls, type) else cls
        for method in _REQUIRED_METHODS:
            if not callable(getattr(implementation, method, None)):
                raise TypeError(
                    f"engine {name!r} must define a callable {method}(crn, x, config)"
                )
        _REGISTRY[name] = EngineInfo(
            name=name,
            implementation=implementation,
            supports_gillespie=supports_gillespie,
            supports_fair=supports_fair,
            max_recommended_population=max_recommended_population,
            min_recommended_population=min_recommended_population,
            approximate=approximate,
            batch_capable=batch_capable,
            step_cost=step_cost,
            trial_step_cost=trial_step_cost,
            description=description,
        )
        _changed()
        return cls

    return decorator


def unregister_engine(name: str) -> None:
    """Remove an engine registration (no-op if absent).  Intended for tests."""
    if _REGISTRY.pop(name, None) is not None:
        _changed()


def engine_names() -> Tuple[str, ...]:
    """The currently registered engine names, in registration order."""
    _ensure_builtin_engines()
    return tuple(_REGISTRY)


def registered_engines() -> Tuple[EngineInfo, ...]:
    """All current registrations with their capability metadata."""
    _ensure_builtin_engines()
    return tuple(_REGISTRY.values())


def get_engine(name: str) -> EngineInfo:
    """Look up a registered engine, raising a listing error when unknown."""
    _ensure_builtin_engines()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation engine {name!r}; registered engines: "
            f"{', '.join(repr(known) for known in _REGISTRY) or '(none)'}"
        ) from None


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` names a registered engine."""
    get_engine(engine)


def validate_engine_request(
    engine: str,
    *,
    fair: bool = False,
    epsilon: Optional[float] = None,
) -> EngineInfo:
    """Check an explicit per-call request against the engine's capabilities.

    Raises ``ValueError`` with an actionable message when the caller asks for
    something the engine cannot honour:

    * ``epsilon=`` on an exact engine — the error knob only tunes approximate
      samplers, so an exact engine would silently ignore it;
    * ``fair=True`` on a kinetic-only engine (``supports_fair=False``) —
      e.g. ``"tau"`` and ``"tau-vec"`` implement Gillespie scheduling only.

    Returns the :class:`EngineInfo` on success.  This guards *explicit*
    requests (e.g. per-call Workbench overrides); a plain
    :class:`~repro.api.config.RunConfig` may carry its default ``epsilon``
    alongside an exact engine without tripping it.
    """
    info = get_engine(engine)
    if epsilon is not None and not info.approximate:
        approximate = [e.name for e in registered_engines() if e.approximate]
        raise ValueError(
            f"epsilon={epsilon!r} tunes the error of an approximate sampler, "
            f"but engine {engine!r} is exact and would ignore it; drop "
            f"epsilon= or pick an approximate engine "
            f"({', '.join(repr(n) for n in approximate) or 'none registered'})"
        )
    if fair and not info.supports_fair:
        fair_capable = [e.name for e in registered_engines() if e.supports_fair]
        raise ValueError(
            f"engine {engine!r} implements kinetic (Gillespie) scheduling "
            f"only (supports_fair=False); for fair-scheduler semantics pick "
            f"one of {', '.join(repr(n) for n in fair_capable) or '(none)'}"
        )
    return info
