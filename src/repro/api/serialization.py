"""JSON round-trips for the API-layer value objects.

The serve protocol (:mod:`repro.serve.protocol`) and the lab artifacts both
need to move :class:`~repro.core.specs.FunctionSpec` references and
:class:`~repro.api.config.RunConfig` values across process and network
boundaries.  A spec wraps an arbitrary callable, so it cannot travel by
value; it travels **by registered name** (the same registry campaign cells
use — :func:`repro.lab.campaign.resolve_spec`) plus an optional content
fingerprint that detects a name rebound to a different function.

Every validation failure raises :exc:`ValueError` with a message that names
the offending field, so HTTP handlers can surface it verbatim as a 400.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.api.config import RunConfig
from repro.core.specs import FunctionSpec


def registered_name_for(spec: FunctionSpec) -> str:
    """The lab-registry name this exact spec instance is resolvable under.

    A catalog spec's display ``name`` ("min") can differ from its registry
    key ("minimum"); the wire form must carry the key, because the receiver
    resolves by it.  Falls back to ``spec.name`` for unregistered specs —
    :func:`spec_from_json_dict` will then reject it with a listing error.
    """
    from repro.lab.campaign import resolve_spec, spec_factory_names

    for name in spec_factory_names():
        try:
            if resolve_spec(name) is spec:
                return name
        except Exception:  # noqa: BLE001 — a broken factory must not mask the rest
            continue
    return spec.name


def spec_to_json_dict(spec: FunctionSpec, include_fingerprint: bool = True) -> Dict[str, Any]:
    """The wire form of a spec reference: name, dimension, content fingerprint.

    The fingerprint (see :func:`repro.lab.cache.spec_fingerprint`) pins the
    *function*, not just the name — a receiver can reject a payload whose
    name resolves to different behaviour on its side.
    """
    payload: Dict[str, Any] = {
        "name": registered_name_for(spec),
        "dimension": spec.dimension,
    }
    if include_fingerprint:
        from repro.lab.cache import spec_fingerprint  # lab sits above api

        payload["fingerprint"] = spec_fingerprint(spec)
    return payload


def spec_from_json_dict(data: Mapping[str, Any]) -> FunctionSpec:
    """Resolve a :func:`spec_to_json_dict` payload back to the registered spec.

    ``name`` must be registered (see
    :func:`repro.lab.campaign.register_spec_factory`); ``dimension`` and
    ``fingerprint``, when present, are checked against the resolved spec and
    mismatch with an error naming the field.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"spec must be a JSON object, got {type(data).__name__}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"spec field 'name' must be a nonempty string, got {name!r}")

    from repro.lab.campaign import registered_fingerprint, resolve_spec  # lab sits above api

    spec = resolve_spec(name)  # raises ValueError listing registered names

    dimension = data.get("dimension")
    if dimension is not None and dimension != spec.dimension:
        raise ValueError(
            f"spec field 'dimension' is {dimension!r} but registered spec "
            f"{name!r} takes {spec.dimension} inputs"
        )
    fingerprint = data.get("fingerprint")
    if fingerprint is not None:
        actual = registered_fingerprint(name)
        if fingerprint != actual:
            raise ValueError(
                f"spec field 'fingerprint' does not match the registered spec "
                f"{name!r} (payload {str(fingerprint)[:12]}…, registry "
                f"{actual[:12]}…): the name is bound to a different function "
                f"on this side"
            )
    return spec


def run_config_to_json_dict(config: RunConfig) -> Dict[str, Any]:
    """Module-level spelling of :meth:`RunConfig.to_json_dict`."""
    return config.to_json_dict()


def run_config_from_json_dict(
    data: Mapping[str, Any], default: Optional[RunConfig] = None
) -> RunConfig:
    """Module-level spelling of :meth:`RunConfig.from_json_dict`."""
    return RunConfig.from_json_dict(data, default=default)


__all__ = [
    "registered_name_for",
    "spec_to_json_dict",
    "spec_from_json_dict",
    "run_config_to_json_dict",
    "run_config_from_json_dict",
]
