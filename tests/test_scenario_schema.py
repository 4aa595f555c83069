"""Scenario schema: validation, the document -> config step, Scenario API.

``schema_version: 1`` documents nest engine knobs into sections
mirroring the config dataclasses, and validation reports dotted paths.
The pre-v1 dialect (flat ``hybrid_*``/``wire_*`` top-level keys plus a
``runtime`` section) is rejected, naming the key.  The hypothesis
round-trip pins that every section field reaches its config section
unchanged.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ExperimentError
from repro.runtime.scenario import build_config
from repro.runtime.schema import (
    SCHEMA_VERSION,
    Scenario,
    shard_section,
    validate_scenario,
)

BASE = {
    "schema_version": SCHEMA_VERSION,
    "engine": "flow",
    "until": 2.0,
    "topology": {"kind": "star", "hosts": 4},
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {"kind": "matrix", "model": "uniform", "total": "50 Mbps"},
}


def base_doc(**extra) -> dict:
    doc = json.loads(json.dumps(BASE))
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_validate_reports_dotted_paths():
    bad = base_doc()
    bad["telemetry"] = {"monitor_interval_s": "fast"}
    with pytest.raises(ExperimentError, match="telemetry.monitor_interval_s"):
        validate_scenario(bad)


def test_validate_rejects_unknown_section_key():
    bad = base_doc()
    bad["wire"] = {"listne": "127.0.0.1:0"}
    with pytest.raises(ExperimentError, match="wire"):
        validate_scenario(bad)


def test_validate_rejects_future_schema_version():
    bad = base_doc()
    bad["schema_version"] = 99
    with pytest.raises(ExperimentError, match="schema_version"):
        validate_scenario(bad)


def test_shard_section_accepts_bare_int():
    doc = base_doc()
    doc["shards"] = 4
    assert shard_section(doc) == {"count": 4}
    doc["shards"] = {"count": 2, "quantum_s": 0.5}
    assert shard_section(doc)["quantum_s"] == 0.5


@pytest.mark.parametrize(
    "key, value",
    [
        ("control_latency_s", 0.5),
        ("mtu_bytes", 9000),
        ("solvr", "full"),
        ("runtime", {}),
        ("kernel", {"queue": "heap"}),
    ],
    ids=["control_latency_s", "mtu_bytes", "solvr", "runtime", "kernel"],
)
def test_validate_rejects_unknown_top_level_key(key, value):
    doc = base_doc()
    doc[key] = value
    with pytest.raises(ExperimentError, match=key):
        validate_scenario(doc)


def test_validate_type_checks_route_cache():
    doc = base_doc()
    doc["route_cache"] = "no"
    with pytest.raises(ExperimentError, match="route_cache"):
        validate_scenario(doc)
    doc["route_cache"] = False
    validate_scenario(doc)
    assert build_config(doc).route_cache is False


def test_null_in_section_takes_the_field_default():
    doc = base_doc()
    doc["engine"] = "hybrid"
    doc["hybrid"] = {"sync_interval_s": None}
    doc["telemetry"] = {"monitor_threshold": None, "monitor_interval_s": None}
    validate_scenario(doc)
    config = build_config(doc)
    assert config.hybrid.sync_interval_s == 0.05
    assert config.telemetry.monitor_threshold == 0.9
    # null on an Optional field still means "off".
    assert config.telemetry.monitor_interval_s is None


def test_validate_applies_config_value_checks():
    doc = base_doc()
    doc["engine"] = "hybrid"
    doc["hybrid"] = {"sync_interval_s": 0}
    with pytest.raises(ExperimentError, match="hybrid.sync_interval_s"):
        validate_scenario(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("topology", "fat-tree"),
        ("topology", None),
        ("traffic", []),
        ("policies", 3),
    ],
    ids=["topology-str", "topology-null", "traffic-list", "policies-int"],
)
def test_validate_type_checks_document_structure(key, value):
    doc = base_doc()
    doc[key] = value
    with pytest.raises(ExperimentError, match=f"^{key}: expected"):
        validate_scenario(doc)


@pytest.mark.parametrize("version", [0, 2, True, 1.0, "1"])
def test_schema_version_must_be_one(version):
    with pytest.raises(ExperimentError, match="^schema_version: "):
        validate_scenario(base_doc(schema_version=version))


# ----------------------------------------------------------------------
# The removed pre-v1 dialect
# ----------------------------------------------------------------------
#: Each removed pre-v1 key (``runtime.*`` lived in a ``runtime``
#: section) -> its v1 ``section.field`` and a value that field accepts.
REMOVED_V0_KEYS = {
    "hybrid_select": ("hybrid.select", "top:2"),
    "hybrid_sync_interval_s": ("hybrid.sync_interval_s", 0.1),
    "wire_client": ("wire.client", "learning"),
    "monitor_interval_s": ("telemetry.monitor_interval_s", 1.0),
    "link_sample_interval_s": ("telemetry.link_sample_interval_s", 1.0),
    "runtime.monitor_mode": ("telemetry.monitor_mode", "push"),
    "runtime.monitor_push_min_delta_bytes": (
        "telemetry.monitor_push_min_delta_bytes", 10.0,
    ),
    "runtime.trace_path": ("telemetry.trace_path", "a.jsonl"),
    "runtime.profile": ("telemetry.profile", True),
    "runtime.checkpoint_path": ("checkpoint.path", "a.ckpt"),
    "runtime.checkpoint_interval_s": ("checkpoint.interval_s", 1.0),
    "runtime.wire_listen": ("wire.listen", "127.0.0.1:0"),
    "runtime.wire_client_routes": ("wire.client_routes", []),
    "runtime.wire_sync_quantum_s": ("wire.sync_quantum_s", 0.1),
    "runtime.wire_latency_budget_s": ("wire.latency_budget_s", 1.0),
    "runtime.wire_dilation": ("wire.dilation", 0.0),
}


def v0_doc(old: str) -> dict:
    """A pre-v1 document: no ``schema_version``, the key in its old place."""
    _new, value = REMOVED_V0_KEYS[old]
    section, _, key = old.rpartition(".")
    doc = base_doc(**({section: {key: value}} if section else {key: value}))
    del doc["schema_version"]
    return doc


@pytest.mark.parametrize("old", sorted(REMOVED_V0_KEYS))
def test_removed_v0_key_is_rejected_by_name(old, tmp_path, capsys):
    doc = v0_doc(old)
    needle = old.partition(".")[0]
    with pytest.raises(ExperimentError, match=f"^{needle}: unknown key"):
        validate_scenario(doc)
    path = tmp_path / "v0.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    assert f"error: {needle}: unknown key" in capsys.readouterr().err
    # The v1 spelling of the same setting is accepted.
    new, value = REMOVED_V0_KEYS[old]
    section, field = new.split(".")
    v1 = base_doc(**{section: {field: value}})
    if section == "checkpoint":
        v1["checkpoint"].setdefault("path", "a.ckpt")
    validate_scenario(v1)


def test_migrate_scenario_command_is_gone(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(BASE))
    with pytest.raises(SystemExit) as caught:
        main(["migrate-scenario", str(path)])
    assert caught.value.code == 2
    assert "invalid choice: 'migrate-scenario'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Lossless round-trip over the section-field space (property test)
# ----------------------------------------------------------------------
_FIELD_STRATEGIES = {
    ("hybrid", "select"): st.sampled_from(["none", "all", "top:2", "top:5"]),
    ("hybrid", "sync_interval_s"): st.floats(0.01, 1.0, allow_nan=False),
    ("wire", "client"): st.sampled_from(["learning", "static", None]),
    ("telemetry", "monitor_interval_s"): st.floats(0.1, 10.0, allow_nan=False),
    ("telemetry", "link_sample_interval_s"): st.floats(
        0.1, 10.0, allow_nan=False
    ),
    ("telemetry", "monitor_mode"): st.sampled_from(["poll", "push"]),
    ("telemetry", "monitor_push_min_delta_bytes"): st.floats(
        0, 1e6, allow_nan=False
    ),
    ("telemetry", "trace_path"): st.sampled_from(["a.jsonl", "b.jsonl"]),
    ("telemetry", "profile"): st.booleans(),
    ("checkpoint", "path"): st.sampled_from(["a.ckpt", "b.ckpt"]),
    ("checkpoint", "interval_s"): st.floats(0.1, 10.0, allow_nan=False),
    ("wire", "listen"): st.sampled_from(["127.0.0.1:0", "0.0.0.0:6653"]),
    ("wire", "sync_quantum_s"): st.floats(0.01, 1.0, allow_nan=False),
    ("wire", "latency_budget_s"): st.floats(0.1, 10.0, allow_nan=False),
    ("wire", "dilation"): st.floats(0.0, 2.0, allow_nan=False),
}


@settings(max_examples=60, deadline=None)
@given(
    values=st.dictionaries(
        st.sampled_from(sorted(_FIELD_STRATEGIES)), st.none()
    ).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: _FIELD_STRATEGIES[k] for k in keys}
        )
    ),
)
def test_section_round_trip_lossless(values):
    """Every drawn section field validates and lands on its config
    section with the value unchanged."""
    if ("checkpoint", "interval_s") in values:
        # HorseConfig.validate requires a destination for the ticker.
        values.setdefault(("checkpoint", "path"), "a.ckpt")
    doc = base_doc()
    for (section, field), value in values.items():
        doc.setdefault(section, {})[field] = value
    validate_scenario(doc)
    config = build_config(doc)
    for (section, field), value in values.items():
        assert getattr(getattr(config, section), field) == value


# ----------------------------------------------------------------------
# The Scenario convenience class
# ----------------------------------------------------------------------
def test_scenario_class_runs_documents_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(base_doc(telemetry={"monitor_interval_s": 1.0}))
    )
    scenario = Scenario.from_file(str(path))
    config = scenario.config()
    assert config.telemetry.monitor_interval_s == 1.0
    _horse, result, count = scenario.run()
    assert count > 0 and result.flows


def test_scenario_class_validates_on_load():
    with pytest.raises(ExperimentError, match="engine"):
        Scenario({**BASE, "engine": "quantum"})
