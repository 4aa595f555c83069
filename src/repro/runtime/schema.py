"""Scenario schema versioning: validation, and the v0 -> v1 migrator.

Scenario JSON grew the same flat-key sprawl the config did: engine
knobs at the top level (``hybrid_select``, ``wire_client``,
``monitor_interval_s``) next to a grab-bag ``runtime`` section
(``checkpoint_path``, ``wire_listen``, ``trace_path``, ...).  Schema
**v1** mirrors :class:`~repro.core.config.HorseConfig`'s nested
sections instead::

    {
      "schema_version": 1,
      "engine": "flow", "solver": "incremental", "seed": 0,
      "until": 60.0, "control": "inproc",
      "topology": {...}, "policies": {...}, "traffic": {...},
      "hybrid":    {"select": "top:4", "sync_interval_s": 0.05},
      "wire":      {"client": "learning", "listen": "127.0.0.1:0", ...},
      "telemetry": {"monitor_interval_s": 0.5, "trace_path": ..., ...},
      "checkpoint": {"path": "run.ckpt", "interval_s": 5.0},
      "shards":    {"count": 4, "quantum_s": null, "partition": "greedy"}
    }

``"shards"`` also accepts a bare integer (``"shards": 4``).  Documents
without ``schema_version`` are treated as v0: :func:`ensure_v1`
migrates them in memory, warning once per deprecated key per process;
``repro migrate-scenario`` rewrites the file.

:func:`validate_scenario` checks only structure here — the schema
version, known keys, and JSON types (plus ``until >= 0``, which is
not a config field) — and then builds the
:class:`~repro.core.config.HorseConfig` the document describes, so
:meth:`HorseConfig.validate` alone decides which values are valid.
Errors name the offending field by dotted path
(``"wire.dilation: expected int or float, got str"``,
``"wire.dilation must be >= 0"``).
"""

from __future__ import annotations

import copy
import warnings
from typing import Dict, List, Optional, Set, Tuple

from ..core.config import HorseConfig
from ..errors import ExperimentError

SCHEMA_VERSION = 1

_NUM = (int, float)
_OPT_NUM = (int, float, type(None))
_OPT_STR = (str, type(None))

#: v0 top-level scenario key -> (v1 section, field).
V0_TOP_KEYS: Dict[str, Tuple[str, str]] = {
    "hybrid_select": ("hybrid", "select"),
    "hybrid_sync_interval_s": ("hybrid", "sync_interval_s"),
    "wire_client": ("wire", "client"),
    "monitor_interval_s": ("telemetry", "monitor_interval_s"),
    "link_sample_interval_s": ("telemetry", "link_sample_interval_s"),
}

#: v0 ``runtime`` section key -> (v1 section, field).
V0_RUNTIME_KEYS: Dict[str, Tuple[str, str]] = {
    "monitor_mode": ("telemetry", "monitor_mode"),
    "monitor_push_min_delta_bytes": ("telemetry", "monitor_push_min_delta_bytes"),
    "trace_path": ("telemetry", "trace_path"),
    "profile": ("telemetry", "profile"),
    "checkpoint_path": ("checkpoint", "path"),
    "checkpoint_interval_s": ("checkpoint", "interval_s"),
    "wire_listen": ("wire", "listen"),
    "wire_client_routes": ("wire", "client_routes"),
    "wire_sync_quantum_s": ("wire", "sync_quantum_s"),
    "wire_latency_budget_s": ("wire", "latency_budget_s"),
    "wire_dilation": ("wire", "dilation"),
}

#: v1 section -> {field: accepted types} (None values always allowed to
#: mean "use the default", matching JSON null round-trips).
SECTION_FIELDS: Dict[str, Dict[str, tuple]] = {
    "hybrid": {
        "select": (str,),
        "sync_interval_s": _NUM,
    },
    "wire": {
        "client": _OPT_STR,
        "listen": (str,),
        "client_routes": (list, type(None)),
        "sync_quantum_s": _NUM,
        "latency_budget_s": _NUM,
        "dilation": _NUM,
    },
    "telemetry": {
        "monitor_interval_s": _OPT_NUM,
        "monitor_threshold": _NUM,
        "monitor_mode": (str,),
        "monitor_push_min_delta_bytes": _NUM,
        "link_sample_interval_s": _OPT_NUM,
        "trace_path": _OPT_STR,
        "profile": (bool,),
    },
    "checkpoint": {
        "path": _OPT_STR,
        "interval_s": _OPT_NUM,
    },
    "shards": {
        "count": (int,),
        "quantum_s": _OPT_NUM,
        "partition": (str, list),
        "checkpoint_dir": _OPT_STR,
    },
}

#: Every key a v1 document may carry at the top level.
TOP_KEYS = frozenset(
    {"schema_version", "_comment", "engine", "solver", "route_cache",
     "seed", "control", "until", "topology", "policies", "traffic"}
) | frozenset(SECTION_FIELDS)

#: Deprecated scenario keys already warned about (warn-once semantics).
_WARNED_SCENARIO_KEYS: Set[str] = set()


def reset_scenario_warnings() -> None:
    """Forget which deprecated scenario keys have warned (test hook)."""
    _WARNED_SCENARIO_KEYS.clear()


def _warn_scenario_key(old: str, section: str, field: str) -> None:
    if old in _WARNED_SCENARIO_KEYS:
        return
    _WARNED_SCENARIO_KEYS.add(old)
    warnings.warn(
        f"scenario key {old!r} is deprecated; use \"{section}\": "
        f"{{\"{field}\": ...}} (or run `repro migrate-scenario`)",
        DeprecationWarning,
        stacklevel=4,
    )


def scenario_version(doc: dict) -> int:
    """The document's declared schema version (absent = 0)."""
    version = doc.get("schema_version", 0)
    if not isinstance(version, int) or version < 0:
        raise ExperimentError(
            f"schema_version: must be a non-negative integer, got {version!r}"
        )
    return version


def migrate_scenario(doc: dict) -> Tuple[dict, List[str]]:
    """A v1 copy of ``doc``, plus a list of ``old -> new`` move notes.

    v1 documents come back unchanged (and an empty note list).  The
    input is never mutated.
    """
    version = scenario_version(doc)
    if version > SCHEMA_VERSION:
        raise ExperimentError(
            f"schema_version: {version} is newer than this build "
            f"supports ({SCHEMA_VERSION})"
        )
    out = copy.deepcopy(doc)
    if version == SCHEMA_VERSION:
        return out, []
    notes: List[str] = []

    def move(value, section: str, field: str, old: str) -> None:
        target = out.setdefault(section, {})
        if not isinstance(target, dict):
            raise ExperimentError(
                f"{section}: expected an object, got {type(target).__name__}"
            )
        # An explicit v1-style value wins over the legacy flat key.
        target.setdefault(field, value)
        notes.append(f"{old} -> {section}.{field}")

    for old, (section, field) in V0_TOP_KEYS.items():
        if old in out:
            move(out.pop(old), section, field, old)
    runtime = out.pop("runtime", None) or {}
    if not isinstance(runtime, dict):
        raise ExperimentError(
            f"runtime: expected an object, got {type(runtime).__name__}"
        )
    for old, (section, field) in V0_RUNTIME_KEYS.items():
        if old in runtime:
            move(runtime.pop(old), section, field, f"runtime.{old}")
    if runtime:
        unknown = ", ".join(sorted(runtime))
        raise ExperimentError(f"runtime: unknown key(s): {unknown}")
    out["schema_version"] = SCHEMA_VERSION
    notes.append(f"schema_version -> {SCHEMA_VERSION}")
    return out, notes


def ensure_v1(doc: dict, warn: bool = True) -> dict:
    """``doc`` migrated to v1 (a copy when migration was needed).

    With ``warn`` (the default) each legacy key found triggers a
    once-per-process :class:`DeprecationWarning` naming its new home.
    """
    if scenario_version(doc) == SCHEMA_VERSION:
        return doc
    migrated, notes = migrate_scenario(doc)
    if warn:
        for note in notes:
            old, _, new = note.partition(" -> ")
            if old == "schema_version":
                continue
            section, _, field = new.partition(".")
            _warn_scenario_key(old, section, field)
    return migrated


def _check_type(path: str, value, types: tuple) -> None:
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and bool not in types:
        raise ExperimentError(
            f"{path}: expected {_type_names(types)}, got a boolean"
        )
    if not isinstance(value, types):
        raise ExperimentError(
            f"{path}: expected {_type_names(types)}, "
            f"got {type(value).__name__}"
        )


def _type_names(types: tuple) -> str:
    names = [
        "null" if t is type(None) else t.__name__
        for t in types
    ]
    return " or ".join(names)


def validate_scenario(doc: dict) -> None:
    """Check a scenario document; raises
    :class:`~repro.errors.ExperimentError` naming the offending field
    by dotted path.  Accepts v0 documents by migrating a throwaway
    copy first, so errors always report v1 paths.
    """
    scenario_config(ensure_v1(doc, warn=False))


def scenario_config(doc: dict, solver: Optional[str] = None) -> HorseConfig:
    """The :class:`HorseConfig` a v1 document describes.

    Checks the document's structure (known keys, JSON types) and leaves
    every config value check to :meth:`HorseConfig.validate`; only
    ``until``, a run argument rather than a config field, is range
    checked here.  ``solver`` overrides the document's choice
    (``repro run --solver``).
    """
    unknown = sorted(set(doc) - TOP_KEYS)
    if unknown:
        raise ExperimentError(f"{', '.join(unknown)}: unknown key")
    if "until" in doc and doc["until"] is not None:
        _check_type("until", doc["until"], _NUM)
        if doc["until"] < 0:
            raise ExperimentError("until: must be >= 0")
    if "seed" in doc:
        _check_type("seed", doc["seed"], (int,))
    if "route_cache" in doc:
        _check_type("route_cache", doc["route_cache"], (bool,))
    for section, fields in SECTION_FIELDS.items():
        if section not in doc:
            continue
        value = doc[section]
        if section == "shards" and isinstance(value, int):
            _check_type("shards", value, (int,))
            continue
        if not isinstance(value, dict):
            raise ExperimentError(
                f"{section}: expected an object, got {type(value).__name__}"
            )
        for field, fval in value.items():
            types = fields.get(field)
            if types is None:
                raise ExperimentError(f"{section}.{field}: unknown key")
            if fval is None and type(None) not in types:
                # null = "use the default" for any field in JSON.
                continue
            _check_type(f"{section}.{field}", fval, types)
    return HorseConfig(
        engine=doc.get("engine", "flow"),
        solver=solver or doc.get("solver", "incremental"),
        route_cache=doc.get("route_cache", True),
        seed=doc.get("seed", 0),
        control=doc.get("control", "inproc"),
        hybrid=doc.get("hybrid"),
        wire=doc.get("wire"),
        telemetry=doc.get("telemetry"),
        checkpoint=doc.get("checkpoint"),
        shard=shard_section(doc) or None,
    )


def shard_section(doc: dict) -> dict:
    """The document's ``"shards"`` value normalized to a dict
    (``"shards": 4`` means ``{"count": 4}``)."""
    value = doc.get("shards")
    if value is None:
        return {}
    if isinstance(value, bool):
        raise ExperimentError(f"shards: must be an integer >= 1, got {value!r}")
    if isinstance(value, int):
        return {"count": value}
    if isinstance(value, dict):
        return dict(value)
    raise ExperimentError(
        f"shards: expected an object or integer, got {type(value).__name__}"
    )


class Scenario:
    """A validated scenario document, ready to build or run.

    The stable object form of a scenario file: loads JSON, migrates
    legacy (v0) keys, validates with dotted-path errors, and exposes
    the builders the CLI uses, so programmatic callers and shell
    invocations construct byte-identical simulations.

    Examples
    --------
    >>> scenario = Scenario.from_file("examples/scenarios/quickstart.json")
    >>> horse, result, flows = scenario.run()
    """

    def __init__(self, doc: dict) -> None:
        self.doc = ensure_v1(doc)
        validate_scenario(self.doc)

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        import json

        with open(path) as handle:
            return cls(json.load(handle))

    def config(self, solver=None):
        """The :class:`~repro.core.config.HorseConfig` this document
        describes (``solver`` mirrors ``repro run --solver``)."""
        from .scenario import build_config

        return build_config(self.doc, solver=solver)

    def build(self, solver=None):
        """``(horse, fabric)`` with topology and policies in place but
        no traffic submitted."""
        from .scenario import build_horse

        return build_horse(self.doc, solver=solver)

    def run(self, solver=None):
        """Build, load, and run end to end; returns
        ``(horse, result, flow_count)``."""
        from .scenario import run_scenario

        return run_scenario(self.doc, solver=solver)
