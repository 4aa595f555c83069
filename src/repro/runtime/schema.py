"""Scenario schema: structural validation and the document -> config step.

A scenario document mirrors :class:`~repro.core.config.HorseConfig`'s
nested sections::

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

``"shards"`` also accepts a bare integer (``"shards": 4``).  An absent
``schema_version`` means 1; any other value is rejected.

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

from typing import Dict, Optional

from ..core.config import HorseConfig
from ..errors import ExperimentError

SCHEMA_VERSION = 1

_NUM = (int, float)
_OPT_NUM = (int, float, type(None))
_OPT_STR = (str, type(None))

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

#: Top-level keys whose value the builders walk as JSON structure.
_STRUCTURE_TYPES: Dict[str, tuple] = {
    "topology": (dict,),
    "traffic": (dict,),
    "policies": (dict, list, type(None)),
}


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
    by dotted path.
    """
    scenario_config(doc)


def scenario_config(doc: dict, solver: Optional[str] = None) -> HorseConfig:
    """The :class:`HorseConfig` a scenario document describes.

    Checks the document's structure (known keys, JSON types) and leaves
    every config value check to :meth:`HorseConfig.validate`; only
    ``until``, a run argument rather than a config field, is range
    checked here.  ``solver`` overrides the document's choice
    (``repro run --solver``).
    """
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ExperimentError(
            f"schema_version: must be {SCHEMA_VERSION}, got {version!r}"
        )
    unknown = sorted(set(doc) - TOP_KEYS)
    if unknown:
        raise ExperimentError(f"{', '.join(unknown)}: unknown key")
    for key, types in _STRUCTURE_TYPES.items():
        if key in doc:
            _check_type(key, doc[key], types)
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

    The stable object form of a scenario file: loads JSON, validates
    with dotted-path errors, and exposes the builders the CLI uses, so
    programmatic callers and shell invocations construct byte-identical
    simulations.

    Examples
    --------
    >>> scenario = Scenario.from_file("examples/scenarios/quickstart.json")
    >>> horse, result, flows = scenario.run()
    """

    def __init__(self, doc: dict) -> None:
        validate_scenario(doc)
        self.doc = doc

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
