"""Scenario documents -> runnable simulations.

One JSON *scenario* describes topology, policies, traffic, engine, and
runtime knobs — everything a run needs, so experiments are shareable
files rather than scripts.  The builders here are shared by the ``repro
run`` CLI and the sweep workers: both must construct byte-identical
simulations from the same document for sweep results to be independent
of where a job executes.

Schema v1 (see :mod:`repro.runtime.schema`)::

    {
      "schema_version": 1,
      "engine": "flow" | "packet" | "hybrid",
      "solver": "incremental" | "full",              # flow engine only
      "route_cache": true,                           # flow engine only
      "seed": 0,
      "until": 60.0,
      "topology": {"kind": "fat-tree", "k": 4} | ... | {"file": "topo.json"},
      "policies": { ... },                   # inproc control only
      "control": "inproc" | "wire",
      "traffic":  {"kind": "matrix", ...} | {"kind": "trace", ...},
      "hybrid":   {"select": "none" | "all" | "top:K" | "match:...",
                   "sync_interval_s": 0.05},
      "wire":     {"client": null | "learning" | "static",
                   "listen": "127.0.0.1:0",
                   "sync_quantum_s": 0.05,
                   "latency_budget_s": 5.0,
                   "dilation": 0.0,
                   "client_routes": [...]},
      "telemetry": {"monitor_interval_s": null, "monitor_mode": "poll",
                    "monitor_push_min_delta_bytes": 0.0,
                    "link_sample_interval_s": null,
                    "trace_path": "run.trace.jsonl", "profile": false},
      "checkpoint": {"path": "run.ckpt", "interval_s": 5.0},
      "shards":   4 | {"count": 4, "quantum_s": null,
                       "partition": "greedy" | [[...], ...],
                       "checkpoint_dir": null}
    }

Any other top-level key (besides ``"_comment"``) is rejected, and
``null`` on a section field means that field's default.  Value checks
live in :meth:`~repro.core.config.HorseConfig.validate` alone.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core import Horse, HorseConfig
from ..core.results import RunResult
from ..errors import ExperimentError
from ..net.generators import fat_tree, leaf_spine, linear, pods, single_switch
from ..net.io import load_topology
from ..control.policy.spec import parse_rate
from ..traffic.flowgen import FlowGenerator
from ..traffic.matrix import TrafficMatrix
from .schema import scenario_config, shard_section


def build_topology(spec: dict):
    """Build a topology (and the IXP fabric, when applicable)."""
    if "file" in spec:
        return load_topology(spec["file"]), None
    kind = spec.get("kind")
    if kind == "fat-tree":
        return fat_tree(spec.get("k", 4)), None
    if kind == "leaf-spine":
        return (
            leaf_spine(
                spec.get("leaves", 4),
                spec.get("spines", 2),
                hosts_per_leaf=spec.get("hosts_per_leaf", 2),
            ),
            None,
        )
    if kind == "linear":
        return (
            linear(
                spec.get("switches", 2),
                hosts_per_switch=spec.get("hosts_per_switch", 1),
            ),
            None,
        )
    if kind == "star":
        return single_switch(spec.get("hosts", 4)), None
    if kind == "pods":
        return (
            pods(
                spec.get("pods", 4),
                hosts_per_pod=spec.get("hosts_per_pod", 4),
                capacity_bps=parse_rate(spec.get("capacity", "100 Mbps")),
            ),
            None,
        )
    if kind == "ixp":
        from ..ixp import build_ixp

        fabric = build_ixp(spec.get("members", 16), seed=spec.get("seed", 0))
        return fabric.topology, fabric
    raise ExperimentError(f"unknown topology kind {kind!r}")


def build_config(
    scenario: dict, solver: Optional[str] = None
) -> HorseConfig:
    """A :class:`HorseConfig` from a scenario document.

    ``solver`` overrides the scenario's choice (the ``repro run
    --solver`` flag).  Raises
    :class:`~repro.errors.ExperimentError` naming the first invalid
    field (see :func:`repro.runtime.schema.validate_scenario`).
    """
    return scenario_config(scenario, solver=solver)


def build_horse(
    scenario: dict, solver: Optional[str] = None
) -> Tuple[Horse, object]:
    """Build the simulation a scenario describes (traffic not submitted)."""
    config = build_config(scenario, solver=solver)
    topology, fabric = build_topology(scenario.get("topology", {}))
    if config.control == "wire":
        if scenario.get("policies"):
            raise ExperimentError(
                "a wire-control scenario cannot carry in-process policies; "
                "the controller lives on the other end of the connection"
            )
        horse = Horse(topology, policies=None, config=config)
    else:
        horse = Horse(
            topology, policies=scenario.get("policies") or {}, config=config
        )
    return horse, fabric


def build_traffic(spec: dict, horse: Horse, fabric, flow_filter=None) -> int:
    """Generate and submit the scenario's traffic; returns flow count.

    ``flow_filter`` (flow -> bool) drops flows *after* generation, so
    ids stay identical to an unfiltered build — the shard runtime uses
    this to give every worker the full deterministic id sequence while
    submitting only its own domain's flows.
    """
    kind = spec.get("kind", "matrix")
    if kind == "trace":
        from ..traffic.trace_io import load_trace

        flows = load_trace(spec["file"])
        if flow_filter is not None:
            flows = [f for f in flows if flow_filter(f)]
        horse.submit_flows(flows)
        return len(flows)
    if kind == "matrix":
        model = spec.get("model", "uniform")
        total = parse_rate(spec.get("total", "1 Gbps"))
        hosts = [h.name for h in horse.topology.hosts]
        if model == "uniform":
            matrix = TrafficMatrix.uniform(hosts, total_bps=total)
        elif model == "pod-local":
            matrix = TrafficMatrix.pod_local(hosts, total_bps=total)
        elif model == "gravity-ixp":
            if fabric is None:
                raise ExperimentError("gravity-ixp traffic needs an ixp topology")
            from ..traffic.ixp_trace import ixp_gravity_matrix

            matrix = ixp_gravity_matrix(fabric, total_bps=total)
        else:
            raise ExperimentError(f"unknown matrix model {model!r}")
        generator = FlowGenerator(
            horse.topology, horse.rngs.stream("traffic")
        )
        horizon = spec.get("horizon_s", 5.0)
        if spec.get("constant_rate", False):
            flows = generator.constant_rate_flows(matrix, duration_s=horizon)
        else:
            flows = generator.from_matrix(matrix, horizon_s=horizon)
        if flow_filter is not None:
            flows = [f for f in flows if flow_filter(f)]
        horse.submit_flows(flows)
        return len(flows)
    raise ExperimentError(f"unknown traffic kind {kind!r}")


def run_scenario(
    scenario: dict, solver: Optional[str] = None
) -> Tuple[Optional[Horse], RunResult, int]:
    """Build, load, and run one scenario end to end.

    With ``"shards": k`` for k > 1 the run executes on the sharded
    parallel runtime (see :mod:`repro.shard`) and the returned horse is
    None — the k simulations lived in worker processes.
    """
    shards = shard_section(scenario)
    if int(shards.get("count", 1)) > 1:
        from ..shard import run_sharded

        result, count = run_sharded(scenario, solver=solver)
        return None, result, count
    horse, fabric = build_horse(scenario, solver=solver)
    count = build_traffic(scenario.get("traffic", {}), horse, fabric)
    try:
        result = horse.run(until=scenario.get("until"))
    finally:
        # A scenario is one run; release the wire listener (no-op inproc).
        horse.shutdown_wire()
    return horse, result, count


def reset_id_counters() -> None:
    """Rewind the process-global id counters to their import-time state.

    Sweep workers call this before building a job so ids (flow ids,
    flow-entry sequence numbers, packet ids) depend only on the job
    itself — never on what the process ran earlier or on fork
    inheritance — making job results identical whether the job runs
    serially, on any worker, or after a retry.
    """
    from ..flowsim.flow import reset_flow_ids
    from ..openflow.flowtable import reset_entry_seq
    from ..openflow.messages import reset_xids
    from ..pktsim.packet import reset_packet_ids

    reset_flow_ids()
    reset_entry_seq()
    reset_packet_ids()
    reset_xids()
