"""Run configuration for every repeated-run entry point.

:class:`RunConfig` consolidates the kwarg cloud that used to be duplicated
across ``run_many`` / ``estimate_expected_output`` / ``verify_stable_computation``
(``trials`` / ``max_steps`` / ``quiescence_window`` / ``seed`` / ``engine``)
into one frozen, validated value object.  The legacy keyword signatures remain
supported everywhere — they are forwarded into a ``RunConfig`` internally — so
a config is never *required*, it is simply the canonical form.

Seeding is part of the config's job: :meth:`RunConfig.trial_seeds` spawns the
per-trial seed sequence (matching the historical ``random.Random(seed)``
stream bit for bit), and :meth:`RunConfig.per_input` derives independent
per-input configs for sweeps so that two inputs in one sweep never replay the
same random stream.  The ``"python"`` engine feeds each per-trial seed into a
``random.Random`` consumed by the scalar kernel (:mod:`repro.sim.kernel`),
which preserves the legacy per-step draw order — so seeded results are stable
across the dict-loop → kernel migration.

This module deliberately imports nothing from the rest of the package, so the
low-level simulation layer can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: The canonical JSON rendering (sorted keys, compact separators) every
#: content hash in the package is computed over; one encoder, reused.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def validate_epsilon(value) -> float:
    """Validate a tau-leaping error tolerance: a number strictly in (0, 1).

    The single source of truth for the ``epsilon`` contract, shared by
    :class:`RunConfig` and :class:`repro.sim.kernel.TauLeapPolicy` so the two
    can never drift.  Returns the value as a float.
    """
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0.0 < value < 1.0
    ):
        raise ValueError(
            f"epsilon must be a number in the open interval (0, 1), got {value!r}"
        )
    return float(value)


def _is_count(value) -> bool:
    """An int >= 1 that is not a bool: ``True`` would compare equal to ``1``
    while its JSON, and so the config's cache key, differs."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class RunConfig:
    """Immutable configuration for repeated simulation runs.

    Attributes
    ----------
    trials:
        Number of independent runs to aggregate (must be ``>= 1``).
    max_steps:
        Per-run reaction-event budget (must be ``>= 1``).
    quiescence_window:
        Convergence-detection window for the fair scheduler; ``None`` selects
        the population-scaled default
        (:func:`repro.sim.runner.default_quiescence_window`).
    seed:
        Master seed.  ``None`` draws fresh entropy per run; an integer makes
        every derived stream reproducible.
    engine:
        Name of a registered simulation engine (see
        :mod:`repro.sim.registry`).  Validated at dispatch time against the
        live registry, not here, so configs stay registry-agnostic.
    epsilon:
        Error-control knob for approximate engines (``engine="tau"``): the
        relative propensity drift tolerated within one tau-leap (see
        :class:`repro.sim.kernel.TauLeapPolicy`).  Must lie strictly between
        0 and 1; smaller is more accurate and slower.  Exact engines ignore
        it, but it is part of :meth:`cache_key` for every config, so cached
        campaign cells are keyed by it.
    allow_approximate:
        Opt-in for ``engine="auto"`` resolution to pick an *approximate*
        engine (``"tau-vec"`` / ``"tau"``) when the population clears the
        engine's recommended floor.  Off by default: auto resolution stays
        exact unless the caller explicitly accepts statistically-gated
        (rather than exact) sampling.  Explicit engine selections are never
        affected by this flag.
    """

    trials: int = 10
    max_steps: int = 1_000_000
    quiescence_window: Optional[int] = None
    seed: Optional[int] = None
    engine: str = "python"
    epsilon: float = 0.03
    allow_approximate: bool = False

    def __post_init__(self) -> None:
        if not _is_count(self.trials):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_count(self.max_steps):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if self.quiescence_window is not None and not _is_count(self.quiescence_window):
            raise ValueError(
                f"quiescence_window must be None or an integer >= 1, "
                f"got {self.quiescence_window!r}"
            )
        if not isinstance(self.engine, str) or not self.engine:
            raise ValueError(f"engine must be a nonempty string, got {self.engine!r}")
        validate_epsilon(self.epsilon)
        if not isinstance(self.allow_approximate, bool):
            raise ValueError(
                f"allow_approximate must be a bool, got {self.allow_approximate!r}"
            )

    # -- derivation -----------------------------------------------------------

    def replace(self, **changes) -> "RunConfig":
        """A copy of this config with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def trial_seeds(self, count: Optional[int] = None) -> Tuple[int, ...]:
        """The per-trial seed sequence spawned from the master seed.

        Matches the historical scalar-runner stream bit for bit: a master
        ``random.Random(seed)`` emits one 64-bit seed per trial.  With
        ``seed=None`` the master generator is entropy-seeded, so the trials
        are still independent, just not reproducible.
        """
        if count is None:
            count = self.trials
        master = random.Random(self.seed)
        return tuple(master.getrandbits(64) for _ in range(count))

    def per_input(self, count: int) -> Tuple["RunConfig", ...]:
        """Independent per-input configs for a sweep over ``count`` inputs.

        With a concrete master seed, each input gets its own 64-bit derived
        seed (so no two inputs replay the same stream, and the whole sweep is
        reproducible from the master).  With ``seed=None`` the config is
        reused as-is: every run already draws fresh entropy.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if self.seed is None:
            return tuple(self for _ in range(count))
        master = random.Random(self.seed)
        return tuple(self.replace(seed=master.getrandbits(64)) for _ in range(count))

    # -- serialization / hashing ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """All fields as a JSON-serializable dict (round-trips via :meth:`from_dict`).

        Listed explicitly rather than built with ``dataclasses.asdict``, which
        deep-copies and sits on every campaign row's path; the fields are all
        scalars, so a plain dict is already a private copy.
        """
        return {
            "trials": self.trials,
            "max_steps": self.max_steps,
            "quiescence_window": self.quiescence_window,
            "seed": self.seed,
            "engine": self.engine,
            "epsilon": self.epsilon,
            "allow_approximate": self.allow_approximate,
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """The wire form: all fields, JSON-serializable, stable key set.

        Identical to :meth:`to_dict` today; the separate name documents the
        contract the serve protocol and the lab store rely on — this is the
        payload :meth:`from_json_dict` round-trips exactly.
        """
        return self.to_dict()

    @classmethod
    def from_json_dict(
        cls, data: Mapping[str, Any], default: Optional["RunConfig"] = None
    ) -> "RunConfig":
        """Rebuild a config from untrusted JSON, naming the bad field on error.

        The strict counterpart of :meth:`from_dict` for wire payloads (the
        serve protocol, campaign manifests fed back by clients): unknown keys
        are **rejected** (a typo'd ``"trails"`` must not silently become the
        default), and ``seed`` — the one field ``__post_init__`` cannot
        validate because any hashable seeds a ``random.Random`` — is checked
        here.  Every :exc:`ValueError` names the offending field.

        ``default`` (when given) supplies the base values that the payload's
        fields override — the serve endpoints merge request configs over the
        server's default this way.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"config must be a JSON object, got {type(data).__name__}"
            )
        known = [field.name for field in dataclasses.fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"config has unknown field(s) "
                f"{', '.join(repr(name) for name in unknown)}; "
                f"known fields: {', '.join(repr(name) for name in known)}"
            )
        seed = data.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValueError(
                f"config field 'seed' must be null or an integer, got {seed!r}"
            )
        try:
            if default is not None:
                return default.replace(**dict(data))
            return cls(**dict(data))
        except ValueError as exc:
            # __post_init__ messages already lead with the field name
            # ("trials must be ..."); add the config prefix for context.
            raise ValueError(f"config field invalid: {exc}") from None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored, so rows written by a newer version of the
        package (with extra config fields) still load; missing keys fall back
        to the field defaults.  Validation runs as usual.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def cache_key(self) -> str:
        """A stable, order-independent content hash of all fields.

        Two configs hash equal iff their field values are equal — the hash is
        computed from the sorted-key JSON rendering, so field declaration
        order, dict insertion order, and process hash randomization cannot
        perturb it.  Used by :mod:`repro.lab.cache` to content-address
        simulation results; stable across processes and sessions.
        """
        blob = CANONICAL_JSON.encode(self.to_dict())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """A compact single-line rendering (used by reports and examples)."""
        window = "auto" if self.quiescence_window is None else str(self.quiescence_window)
        return (
            f"RunConfig(engine={self.engine}, trials={self.trials}, "
            f"max_steps={self.max_steps}, quiescence_window={window}, "
            f"seed={self.seed}, epsilon={self.epsilon}, "
            f"allow_approximate={self.allow_approximate})"
        )
