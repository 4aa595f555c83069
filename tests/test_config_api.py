"""The consolidated configuration API: nested sections, one spelling.

Covers the api_redesign contract: nested section dataclasses are the
only surface, every setting has one spelling, :meth:`HorseConfig.validate`
decides which values are valid, and the removed spellings (flat keys,
the ``kernel`` section and its CLI flags) are rejected by name.
"""

import dataclasses
import typing

import pytest

from repro.core.config import (
    SECTION_TYPES,
    CheckpointConfig,
    HorseConfig,
    HybridConfig,
    ShardConfig,
    TelemetryConfig,
    WireConfig,
)
from repro.errors import ExperimentError, SimulationError


# ----------------------------------------------------------------------
# Nested construction
# ----------------------------------------------------------------------
def test_default_sections():
    config = HorseConfig()
    assert config.hybrid == HybridConfig()
    assert config.wire == WireConfig()
    assert config.telemetry == TelemetryConfig()
    assert config.checkpoint == CheckpointConfig()
    assert config.shard == ShardConfig()
    assert config.shard.count == 1


def test_sections_accept_instances_and_dicts():
    by_instance = HorseConfig(hybrid=HybridConfig(select="top:2"))
    by_dict = HorseConfig(hybrid={"select": "top:2"})
    assert by_instance.hybrid == by_dict.hybrid


def test_section_dict_unknown_key_rejected():
    with pytest.raises(ExperimentError, match="unknown"):
        HorseConfig(wire={"listne": "127.0.0.1:0"})


def test_shard_section_validation():
    assert HorseConfig(shard={"count": 2}).shard.count == 2
    with pytest.raises(ExperimentError, match="count"):
        HorseConfig(shard={"count": 0})
    with pytest.raises(ExperimentError, match="quantum"):
        HorseConfig(shard={"count": 2, "quantum_s": -1.0})
    with pytest.raises(ExperimentError, match="partition"):
        HorseConfig(shard={"count": 2, "partition": "metis"})


def test_sharding_requires_flow_engine_inproc_control():
    with pytest.raises(ExperimentError, match="flow"):
        HorseConfig(engine="packet", shard={"count": 2})
    with pytest.raises(ExperimentError, match="control"):
        HorseConfig(control="wire", shard={"count": 2})


@pytest.mark.parametrize("section", sorted(SECTION_TYPES))
def test_optional_section_fields_default_to_none(section):
    """Null-as-default keeps meaning "off" on Optional fields only
    while each of them defaults to None."""
    cls = SECTION_TYPES[section]
    hints = typing.get_type_hints(cls)
    for spec in dataclasses.fields(cls):
        if type(None) in typing.get_args(hints[spec.name]):
            assert spec.default is None, f"{section}.{spec.name}"


def test_unknown_kwarg_still_rejected():
    with pytest.raises(ExperimentError, match="hybrid_selector"):
        HorseConfig(hybrid_selector="all")


def test_prior_semantics_still_validated():
    with pytest.raises(ExperimentError):
        HorseConfig(engine="quantum")
    with pytest.raises(ExperimentError):
        HorseConfig(checkpoint={"interval_s": 5.0})  # needs a path
    with pytest.raises(ExperimentError):
        HorseConfig(telemetry={"monitor_mode": "stream"})


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"mean_packet_bytes": 0}, "mean_packet_bytes"),
        ({"mean_packet_bytes": -1500}, "mean_packet_bytes"),
        ({"entry_expiry_interval_s": 0}, "entry_expiry_interval_s"),
        ({"entry_expiry_interval_s": -1.0}, "entry_expiry_interval_s"),
        (
            {"telemetry": {"monitor_interval_s": 0}},
            "telemetry.monitor_interval_s",
        ),
        (
            {"telemetry": {"monitor_interval_s": -0.5}},
            "telemetry.monitor_interval_s",
        ),
        (
            {"telemetry": {"link_sample_interval_s": 0.0}},
            "telemetry.link_sample_interval_s",
        ),
        (
            {"telemetry": {"link_sample_interval_s": -2.0}},
            "telemetry.link_sample_interval_s",
        ),
    ],
)
def test_validate_rejects_values_that_fail_at_run_time(kwargs, field):
    """Values that used to pass validation and then crash (or silently
    mean "off") while the run is built are rejected up front, naming
    the field."""
    with pytest.raises(ExperimentError, match=field):
        HorseConfig(**kwargs)


def _vector_via_config():
    HorseConfig(solver="vector")


def _vector_via_scenario():
    from repro.runtime.schema import validate_scenario

    validate_scenario({"schema_version": 1, "solver": "vector"})


def _vector_via_engine():
    from repro.flowsim import FlowLevelEngine
    from repro.net.generators import single_switch
    from repro.sim import Simulator

    FlowLevelEngine(Simulator(), single_switch(2), solver="vector")


def _vector_via_cli():
    from repro.cli import main

    main(["run", "examples/scenarios/quickstart.json", "--solver", "vector"])


@pytest.mark.parametrize(
    "entry_point, error",
    [
        (_vector_via_config, ExperimentError),
        (_vector_via_scenario, ExperimentError),
        (_vector_via_engine, SimulationError),
        (_vector_via_cli, SystemExit),
    ],
    ids=["config", "scenario", "engine", "cli"],
)
def test_removed_vector_solver_is_rejected(entry_point, error, capsys):
    with pytest.raises(error) as caught:
        entry_point()
    if error is SystemExit:
        assert caught.value.code == 2
        assert "invalid choice: 'vector'" in capsys.readouterr().err
    else:
        assert "solver" in str(caught.value)


#: The flat keywords removed after their deprecation period, each with
#: a value its nested replacement accepts.
REMOVED_FLAT_KEYS = {
    "hybrid_select": "all",
    "hybrid_sync_interval_s": 0.1,
    "wire_listen": "127.0.0.1:0",
    "wire_client": "learning",
    "wire_client_routes": [],
    "wire_sync_quantum_s": 0.1,
    "wire_latency_budget_s": 1.0,
    "wire_dilation": 0.0,
    "monitor_interval_s": 1.0,
    "monitor_threshold": 0.5,
    "monitor_mode": "push",
    "monitor_push_min_delta_bytes": 10.0,
    "link_sample_interval_s": 1.0,
    "trace_path": "run.trace.jsonl",
    "profile": True,
    "checkpoint_path": "run.ckpt",
    "checkpoint_interval_s": 1.0,
}


def _flat_keyword(key):
    def call():
        HorseConfig(**{key: REMOVED_FLAT_KEYS[key]})

    return call


def _kernel_section():
    from repro.runtime.schema import validate_scenario

    validate_scenario({"schema_version": 1, "kernel": {"queue": "heap"}})


def _kernel_cli_flag():
    from repro.cli import main

    main(["run", "examples/scenarios/quickstart.json", "--kernel-queue", "heap"])


@pytest.mark.parametrize(
    "entry_point, error, needle",
    [
        (_flat_keyword(key), ExperimentError, key)
        for key in REMOVED_FLAT_KEYS
    ]
    + [
        (lambda: HorseConfig(kernel={"queue": "heap"}), ExperimentError, "kernel"),
        (_kernel_section, ExperimentError, "kernel"),
        (_kernel_cli_flag, SystemExit, "--kernel-queue"),
    ],
    ids=list(REMOVED_FLAT_KEYS)
    + ["kernel-config", "kernel-scenario", "kernel-cli"],
)
def test_removed_config_surface_is_rejected(entry_point, error, needle, capsys):
    with pytest.raises(error) as caught:
        entry_point()
    if error is SystemExit:
        assert caught.value.code == 2
        assert needle in capsys.readouterr().err
    else:
        assert needle in str(caught.value)
    assert not hasattr(HorseConfig(), needle)
