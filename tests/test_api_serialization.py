"""JSON round-trips for the API value objects (:mod:`repro.api.serialization`).

These are the helpers the serve wire protocol is built on: specs travel by
registered name (+ content fingerprint), configs travel as strict field
dicts, and every validation failure names the offending field so an HTTP
handler can surface the message verbatim.
"""

import pytest

from repro.api import (
    RunConfig,
    Workbench,
    registered_name_for,
    run_config_from_json_dict,
    run_config_to_json_dict,
    spec_from_json_dict,
    spec_to_json_dict,
)
from repro.lab.campaign import resolve_spec


class TestRunConfigRoundTrip:
    def test_round_trip_is_identity(self):
        config = RunConfig(trials=7, max_steps=123, seed=42, engine="tau", epsilon=0.05)
        assert RunConfig.from_json_dict(config.to_json_dict()) == config
        # and via the module-level spellings
        assert run_config_from_json_dict(run_config_to_json_dict(config)) == config

    def test_partial_payload_merges_over_default(self):
        default = RunConfig(trials=9, seed=3, engine="vectorized")
        merged = RunConfig.from_json_dict({"trials": 2}, default=default)
        assert merged == default.replace(trials=2)

    def test_partial_payload_without_default_uses_field_defaults(self):
        config = RunConfig.from_json_dict({"seed": 5})
        assert config == RunConfig(seed=5)

    def test_unknown_field_is_rejected_by_name(self):
        with pytest.raises(ValueError) as excinfo:
            RunConfig.from_json_dict({"trails": 3})  # the typo must not be silent
        message = str(excinfo.value)
        assert "'trails'" in message
        assert "'trials'" in message  # the known fields are listed

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"seed": "abc"}, "seed"),
            ({"seed": True}, "seed"),
            ({"trials": 0}, "trials"),
            ({"trials": "many"}, "trials"),
            ({"trials": True}, "trials"),
            ({"max_steps": True}, "max_steps"),
            ({"quiescence_window": True}, "quiescence_window"),
            ({"max_steps": -1}, "max_steps"),
            ({"quiescence_window": 0}, "quiescence_window"),
            ({"engine": ""}, "engine"),
            ({"epsilon": 1.5}, "epsilon"),
        ],
    )
    def test_invalid_values_name_the_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            RunConfig.from_json_dict(payload)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_json_dict([1, 2, 3])

    def test_to_json_dict_matches_to_dict(self):
        config = RunConfig(trials=4, seed=1)
        assert config.to_json_dict() == config.to_dict()


class TestSpecRoundTrip:
    def test_round_trip_resolves_the_same_registered_spec(self):
        spec = resolve_spec("minimum")
        payload = spec_to_json_dict(spec)
        assert payload["name"] == "minimum"
        assert payload["dimension"] == 2
        assert len(payload["fingerprint"]) == 64
        assert spec_from_json_dict(payload) is spec

    def test_registered_name_differs_from_display_name(self):
        # The catalog spec registered as "minimum" is *named* "min"; the wire
        # form must carry the registry key, because the receiver resolves by it.
        spec = resolve_spec("minimum")
        assert spec.name == "min"
        assert registered_name_for(spec) == "minimum"

    def test_bare_name_payload_resolves(self):
        assert spec_from_json_dict({"name": "add"}) is resolve_spec("add")

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ValueError) as excinfo:
            spec_from_json_dict({"name": "nope"})
        assert "nope" in str(excinfo.value)
        assert "minimum" in str(excinfo.value)  # registered names are listed

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"name": ""}, "name"),
            ({"name": 7}, "name"),
            ({}, "name"),
            ({"name": "minimum", "dimension": 3}, "dimension"),
            ({"name": "minimum", "fingerprint": "00" * 32}, "fingerprint"),
        ],
    )
    def test_invalid_payloads_name_the_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            spec_from_json_dict(payload)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            spec_from_json_dict("minimum")

    def test_fingerprint_can_be_omitted_from_the_wire_form(self):
        payload = spec_to_json_dict(resolve_spec("add"), include_fingerprint=False)
        assert "fingerprint" not in payload
        assert spec_from_json_dict(payload) is resolve_spec("add")


class TestWorkbenchCompileJson:
    """The serve seam: compile straight from a wire-form request body."""

    def test_compile_json_with_bare_name(self):
        compiled = Workbench().compile_json({"spec": "minimum"})
        assert compiled.spec is resolve_spec("minimum")
        assert compiled((4, 9)) == 4

    def test_compile_json_merges_request_config_over_default(self):
        wb = Workbench(RunConfig(trials=9, seed=3))
        compiled = wb.compile_json(
            {"spec": "minimum", "config": {"trials": 2, "engine": "vectorized"}}
        )
        assert compiled.config == RunConfig(trials=2, seed=3, engine="vectorized")

    def test_compile_json_validation_errors_name_the_field(self):
        with pytest.raises(ValueError, match="'trails'"):
            Workbench().compile_json({"spec": "minimum", "config": {"trails": 1}})
        with pytest.raises(ValueError, match="name"):
            Workbench().compile_json({})
