"""The consolidated configuration API: nested sections + flat shims.

Covers the api_redesign contract: nested section dataclasses are the
real surface, every legacy flat key keeps working through a warn-once
deprecation shim, and the shim inventory (config, scenario schema,
lint rule) stays in sync.
"""

import warnings

import pytest

from repro.core.config import (
    FLAT_KEY_MAP,
    CheckpointConfig,
    HorseConfig,
    HybridConfig,
    KernelConfig,
    ShardConfig,
    TelemetryConfig,
    WireConfig,
    reset_deprecation_warnings,
)
from repro.errors import ExperimentError, SimulationError


@pytest.fixture(autouse=True)
def _fresh_warnings():
    reset_deprecation_warnings()
    yield
    reset_deprecation_warnings()


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
    assert config.kernel == KernelConfig()
    assert config.kernel.queue == "heap"
    assert config.kernel.compaction_threshold == 0.5


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


def test_kernel_section_validation():
    config = HorseConfig(kernel={"queue": "sorted"})
    assert config.kernel.queue == "sorted"
    assert HorseConfig(
        kernel={"compaction_threshold": None}
    ).kernel.compaction_threshold is None
    with pytest.raises(ExperimentError, match="queue"):
        HorseConfig(kernel={"queue": "fibonacci"})
    with pytest.raises(ExperimentError, match="compaction_threshold"):
        HorseConfig(kernel={"compaction_threshold": 1.5})
    with pytest.raises(ExperimentError, match="compaction_threshold"):
        HorseConfig(kernel={"compaction_threshold": 0.0})
    with pytest.raises(ExperimentError, match="min_compact_size"):
        HorseConfig(kernel={"min_compact_size": -1})
    with pytest.raises(ExperimentError, match="unknown"):
        HorseConfig(kernel={"threshold": 0.5})


def test_sharding_requires_flow_engine_inproc_control():
    with pytest.raises(ExperimentError, match="flow"):
        HorseConfig(engine="packet", shard={"count": 2})
    with pytest.raises(ExperimentError, match="control"):
        HorseConfig(control="wire", shard={"count": 2})


# ----------------------------------------------------------------------
# Flat-key deprecation shims
# ----------------------------------------------------------------------
def test_flat_kwargs_route_to_sections():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        config = HorseConfig(
            hybrid_select="all",
            wire_listen="0.0.0.0:6653",
            monitor_interval_s=2.0,
            checkpoint_path="/tmp/x.ckpt",
        )
    assert config.hybrid.select == "all"
    assert config.wire.listen == "0.0.0.0:6653"
    assert config.telemetry.monitor_interval_s == 2.0
    assert config.checkpoint.path == "/tmp/x.ckpt"


def test_flat_kwarg_warns_once_per_key():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        HorseConfig(hybrid_select="all")
        HorseConfig(hybrid_select="none")
        HorseConfig(trace_path="a.jsonl")
    messages = [str(w.message) for w in caught if w.category is DeprecationWarning]
    assert sum("hybrid_select" in m for m in messages) == 1
    assert sum("trace_path" in m for m in messages) == 1
    # ... and the replacement is named so callers know what to write.
    assert any("hybrid.select" in m for m in messages)


def test_flat_property_read_warns_and_aliases():
    config = HorseConfig(hybrid={"select": "top:3"})
    with pytest.warns(DeprecationWarning, match="hybrid.select"):
        assert config.hybrid_select == "top:3"
    reset_deprecation_warnings()
    with pytest.warns(DeprecationWarning):
        assert config.checkpoint_path is None


def test_every_flat_key_has_a_working_shim():
    for flat, (section, field) in FLAT_KEY_MAP.items():
        reset_deprecation_warnings()
        config = HorseConfig()
        with pytest.warns(DeprecationWarning):
            value = getattr(config, flat)
        assert value == getattr(getattr(config, section), field)


def test_flat_and_nested_conflict_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ExperimentError, match="both"):
            HorseConfig(hybrid={"select": "all"}, hybrid_select="none")


def test_unknown_kwarg_still_rejected():
    with pytest.raises(ExperimentError, match="hybrid_selector"):
        HorseConfig(hybrid_selector="all")


# ----------------------------------------------------------------------
# Shim inventory stays in sync across the codebase
# ----------------------------------------------------------------------
def test_lint_rule_mirrors_flat_key_map():
    from repro.lint.rules.deprecation import FLAT_KEYS

    want = {
        flat: f"{section}.{field}"
        for flat, (section, field) in FLAT_KEY_MAP.items()
    }
    assert FLAT_KEYS == want


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
