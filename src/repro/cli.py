"""Command-line interface: run scenarios, sweeps, and topologies.

Subcommands::

    python -m repro topo --kind fat-tree --k 4 --out topo.json
    python -m repro info topo.json
    python -m repro run scenario.json --flows-csv flows.csv --json run.json
    python -m repro run scenario.json --checkpoint state.ckpt
    python -m repro run --restore state.ckpt --json run.json
    python -m repro run scenario.json --trace run.trace.jsonl --metrics metrics.prom
    python -m repro trace record scenario.json --out run.trace.jsonl
    python -m repro trace summarize run.trace.jsonl
    python -m repro sweep sweep.json --out DIR --workers 4
    python -m repro resume DIR

A *scenario* is one JSON document describing topology, policies,
traffic, engine, and runtime knobs — everything a run needs, so
experiments are shareable files rather than scripts (schema in
:mod:`repro.runtime.scenario`).  A *sweep spec* adds a parameter grid
and pool settings on top of a base scenario (schema in
:mod:`repro.runtime.sweep`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import Horse, HorseConfig
from .errors import ExperimentError, HorseError
from .flowsim.engine import SOLVER_MODES
from .net.io import load_topology, save_topology
from .runtime.scenario import (
    build_horse,
    build_topology as _build_topology,
    build_traffic as _build_traffic,
    reset_id_counters,
    run_scenario,
)
from .runtime.schema import shard_section, validate_scenario
from .stats.export import flows_to_csv, result_to_json, run_digest, summary_text


def cmd_run(args: argparse.Namespace) -> int:
    # Rewind the process-global id counters so two identical invocations
    # emit identical documents (ids included) even in one process.
    reset_id_counters()
    if args.restore:
        if args.scenario:
            raise ExperimentError(
                "pass a scenario file or --restore, not both"
            )
        horse = Horse.restore(args.restore)
        print(f"restored checkpoint: {args.restore} (t={horse.sim.now:g} s)")
        if args.trace:
            horse.telemetry.enable_tracing(args.trace)
        if args.profile:
            horse.telemetry.enable_profiling()
        until = args.until if args.until is not None else horse.last_until
        try:
            result = horse.run(until=until)
        finally:
            horse.shutdown_wire()
    else:
        if not args.scenario:
            raise ExperimentError("a scenario file (or --restore) is required")
        with open(args.scenario) as handle:
            scenario = json.load(handle)
        if args.checkpoint:
            section = scenario.setdefault("checkpoint", {})
            section["path"] = args.checkpoint
            if args.checkpoint_interval:
                section["interval_s"] = args.checkpoint_interval
        if args.trace:
            scenario.setdefault("telemetry", {})["trace_path"] = args.trace
        if args.profile:
            scenario.setdefault("telemetry", {})["profile"] = True
        if args.hybrid_select:
            # Selecting a foreground implies the hybrid engine.
            scenario["engine"] = "hybrid"
            scenario.setdefault("hybrid", {})["select"] = args.hybrid_select
        if args.hybrid_sync_interval:
            scenario.setdefault("hybrid", {})[
                "sync_interval_s"
            ] = args.hybrid_sync_interval
        if args.control:
            scenario["control"] = args.control
        if args.wire_client:
            scenario["control"] = "wire"
            scenario.setdefault("wire", {})["client"] = args.wire_client
        if args.wire_listen:
            scenario.setdefault("wire", {})["listen"] = args.wire_listen
        if args.shards is not None or args.shard_quantum is not None:
            shards = shard_section(scenario)
            if args.shards is not None:
                shards["count"] = args.shards
            if args.shard_quantum is not None:
                shards["quantum_s"] = args.shard_quantum
            scenario["shards"] = shards
        validate_scenario(scenario)
        if args.until is not None:
            scenario["until"] = args.until
        if int(shard_section(scenario).get("count", 1)) > 1:
            if args.checkpoint or args.metrics or args.trace:
                raise ExperimentError(
                    "--checkpoint/--metrics/--trace are per-process "
                    "features; they are not available on a sharded run"
                )
            horse, result, count = run_scenario(scenario, solver=args.solver)
            print(f"scenario: {args.scenario} ({count} flows submitted, "
                  f"{shard_section(scenario)['count']} shards)")
        else:
            horse, fabric = build_horse(scenario, solver=args.solver)
            count = _build_traffic(scenario.get("traffic", {}), horse, fabric)
            print(f"scenario: {args.scenario} ({count} flows submitted)")
            try:
                result = horse.run(until=scenario.get("until"))
            finally:
                horse.shutdown_wire()
            if args.checkpoint and not args.checkpoint_interval:
                # No periodic ticker: snapshot the final state explicitly.
                horse.checkpoint(args.checkpoint)
                print(f"wrote checkpoint to {args.checkpoint}")
    print(summary_text(result))
    if args.check_digest:
        digest = run_digest(result)
        expected = args.check_digest
        if expected == "@golden":
            if not args.scenario:
                raise ExperimentError(
                    "--check-digest without a value needs a scenario file "
                    "(golden digests are looked up next to it)"
                )
            import os

            golden_path = os.path.join(
                os.path.dirname(os.path.abspath(args.scenario)),
                "GOLDEN_DIGESTS.json",
            )
            with open(golden_path) as handle:
                goldens = json.load(handle)
            key = os.path.basename(args.scenario)
            if key not in goldens:
                raise ExperimentError(
                    f"no golden digest for {key!r} in {golden_path}"
                )
            expected = goldens[key]
        if digest != expected:
            print(f"digest MISMATCH: got {digest}, expected {expected}",
                  file=sys.stderr)
            return 3
        print(f"digest OK: {digest}")
    if args.flows_csv:
        rows = flows_to_csv(result, args.flows_csv)
        print(f"wrote {rows} flow records to {args.flows_csv}")
    if args.json:
        result_to_json(result, args.json)
        print(f"wrote run document to {args.json}")
    if args.metrics and horse is not None:
        with open(args.metrics, "w") as handle:
            handle.write(horse.telemetry.prometheus())
        print(f"wrote metrics exposition to {args.metrics}")
    if horse is not None and horse.telemetry.tracing_enabled:
        bus = horse.telemetry.trace
        emitted = bus.emitted
        horse.telemetry.disable_tracing()
        if bus.path:
            print(f"wrote {emitted + 1} trace records to {bus.path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a scenario as an OpenFlow 1.3 datapath agent: listen for an
    external controller, then simulate against it."""
    reset_id_counters()
    with open(args.scenario) as handle:
        scenario = json.load(handle)
    scenario["control"] = "wire"
    wire = scenario.setdefault("wire", {})
    wire.pop("client", None)  # serve = external controller
    if args.listen:
        wire["listen"] = args.listen
    if args.budget:
        wire["latency_budget_s"] = args.budget
    if args.dilation is not None:
        wire["dilation"] = args.dilation
    horse, fabric = build_horse(scenario, solver=None)
    count = _build_traffic(scenario.get("traffic", {}), horse, fabric)

    def announce(address):
        host, port = address
        print(f"listening on {host}:{port} "
              f"({len(horse.topology.switches)} datapaths)", flush=True)

    horse.wire.on_listening = announce
    print(f"scenario: {args.scenario} ({count} flows submitted)", flush=True)
    try:
        result = horse.run(until=args.until or scenario.get("until"))
    finally:
        horse.shutdown_wire()
    print(summary_text(result))
    metrics = horse.telemetry.snapshot()
    print(f"wire.active_connections "
          f"{metrics.get('wire.active_connections', 0):g}")
    if args.json:
        result_to_json(result, args.json)
        print(f"wrote run document to {args.json}")
    return 0


def cmd_wire_client(args: argparse.Namespace) -> int:
    """Run the built-in wire controller against a ``repro serve``."""
    from .wire import WireControllerClient

    host, _, port = args.address.rpartition(":")
    if not host:
        raise ExperimentError(
            f"address must be 'host:port', got {args.address!r}"
        )
    routes = None
    if args.routes:
        with open(args.routes) as handle:
            routes = json.load(handle)
    client = WireControllerClient(
        host,
        int(port),
        mode=args.mode,
        routes=routes,
        connect_timeout_s=args.connect_timeout,
    )
    dpids = client.connect()
    print(f"connected to {args.address}: datapaths {dpids}", flush=True)
    try:
        client.serve()
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    for key, value in sorted(client.stats.items()):
        print(f"client.{key} {value}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record, inspect, or summarize a structured JSONL trace."""
    from .telemetry import read_trace, summarize_trace

    if args.trace_command == "record":
        reset_id_counters()
        with open(args.scenario) as handle:
            scenario = json.load(handle)
        scenario.setdefault("telemetry", {})["trace_path"] = args.out
        horse, fabric = build_horse(scenario, solver=args.solver)
        count = _build_traffic(scenario.get("traffic", {}), horse, fabric)
        print(f"scenario: {args.scenario} ({count} flows submitted)")
        horse.run(until=args.until or scenario.get("until"))
        emitted = horse.telemetry.trace.emitted
        horse.telemetry.disable_tracing()
        print(f"wrote {emitted + 1} trace records to {args.out}")
        return 0

    records = read_trace(args.trace_file)
    if args.trace_command == "inspect":
        shown = 0
        for record in records:
            if args.kind and record.get("kind") != args.kind:
                continue
            print(json.dumps(record, sort_keys=True))
            shown += 1
            if args.limit and shown >= args.limit:
                break
        return 0

    # summarize
    summary = summarize_trace(records)
    t_range = summary["sim_time"]
    print(f"records  : {summary['records']}")
    if t_range["min"] is not None:
        print(f"sim time : {t_range['min']:g} .. {t_range['max']:g} s")
    print(f"{'kind':32s} {'count':>8s} {'wall_dur_s':>12s}")
    for kind, entry in summary["kinds"].items():
        print(f"{kind:32s} {entry['count']:8d} {entry['wall_dur_s']:12.6f}")
    return 0


def _sweep_progress(kind: str, index: int, attempt: int, detail: str) -> None:
    if kind == "start":
        print(f"job {index:4d} attempt {attempt} started")
    elif kind == "ok":
        print(f"job {index:4d} done")
    elif kind in ("crash", "timeout"):
        print(f"job {index:4d} attempt {attempt} {kind}: {detail}")
    elif kind == "retry":
        print(f"job {index:4d} retrying (attempt {attempt}) {detail}")
    elif kind == "failed":
        print(f"job {index:4d} FAILED: {detail}")


def _report_exit(report: dict, out_dir: str) -> int:
    summary = report["summary"]
    print(
        f"sweep '{report['name']}': {summary['completed']}/{summary['jobs']} "
        f"jobs completed -> {out_dir}/report.json"
    )
    if summary["failed"]:
        print(f"failed jobs: {summary['failed']}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .runtime.sweep import SweepSpec, run_sweep

    spec = SweepSpec.from_file(args.spec)
    report = run_sweep(
        spec,
        args.out,
        workers=args.workers,
        on_event=None if args.quiet else _sweep_progress,
    )
    return _report_exit(report, args.out)


def cmd_resume(args: argparse.Namespace) -> int:
    from .runtime.sweep import resume_sweep

    report = resume_sweep(
        args.dir,
        workers=args.workers,
        on_event=None if args.quiet else _sweep_progress,
    )
    return _report_exit(report, args.dir)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Statically verify the forwarding state a scenario would install."""
    from .analysis import analyze_network

    with open(args.scenario) as handle:
        scenario = json.load(handle)
    topology, _ = _build_topology(scenario.get("topology", {}))
    config = HorseConfig(
        engine=scenario.get("engine", "flow"),
        seed=scenario.get("seed", 0),
    )
    horse = Horse(
        topology, policies=scenario.get("policies") or {}, config=config
    )
    horse.start_control_plane()
    # Failures are applied *after* proactive install, so rules that
    # predate the failure go stale — exactly the defect class the
    # analyzer exists to catch.
    for a, b in args.fail_link or []:
        topology.fail_link(a, b)
        print(f"failed link {a} <-> {b}")
    report = analyze_network(
        topology,
        specs=horse.compiled.specs if horse.compiled else None,
        ingress=args.ingress,
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote analysis report to {args.json}")
    if args.sarif:
        with open(args.sarif, "w") as handle:
            json.dump(report.to_sarif(), handle, indent=2)
            handle.write("\n")
        print(f"wrote SARIF report to {args.sarif}")
    print(report.summary_text())
    # The exit status gates only under --strict; otherwise findings flow
    # to the report and CI merges analyze+lint reports before gating.
    return 1 if (args.strict and not report.ok) else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the simulation-correctness linter over source paths."""
    from .lint import all_rules, run_lint, write_baseline

    if args.list_rules:
        for rule in sorted(all_rules(), key=lambda r: r.id):
            print(f"{rule.id}  {rule.name:24s} [{rule.severity}]")
            print(f"        {rule.description}")
        return 0
    report = run_lint(
        args.paths or ["src"],
        select=args.select or (),
        ignore=args.ignore or (),
        baseline=args.baseline,
    )
    if args.write_baseline:
        count = write_baseline(args.write_baseline, report)
        print(f"wrote {count} fingerprint(s) to {args.write_baseline}")
        return 0
    if args.format == "json":
        output = json.dumps(report.to_dict(), indent=2)
    elif args.format == "sarif":
        output = json.dumps(report.to_sarif(), indent=2)
    else:
        output = report.summary_text()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
            handle.write("\n")
        print(report.summary_text())
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(output)
    # Same gate semantics as `repro analyze`: non-zero only with --strict.
    return report.exit_code(strict=args.strict)


def cmd_topo(args: argparse.Namespace) -> int:
    spec = {"kind": args.kind}
    if args.k is not None:
        spec["k"] = args.k
    if args.pods is not None:
        spec["pods"] = args.pods
    if args.hosts_per_pod is not None:
        spec["hosts_per_pod"] = args.hosts_per_pod
    if args.members is not None:
        spec["members"] = args.members
    if args.switches is not None:
        spec["switches"] = args.switches
    if args.hosts is not None:
        spec["hosts"] = args.hosts
    if args.seed is not None:
        spec["seed"] = args.seed
    topology, _ = _build_topology(spec)
    save_topology(topology, args.out)
    print(f"wrote {topology.summary()} to {args.out}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    topology = load_topology(args.topology)
    summary = topology.summary()
    print(f"name     : {summary['name']}")
    print(f"hosts    : {summary['hosts']}")
    print(f"switches : {summary['switches']}")
    print(f"links    : {summary['links']}")
    print(f"capacity : {summary['total_capacity_bps'] / 1e9:.3g} Gb/s total")
    degree = {}
    for node in topology.nodes:
        degree[node.name] = len(node.connected_ports)
    hubs = sorted(degree.items(), key=lambda kv: -kv[1])[:5]
    print("highest-degree nodes:")
    for name, deg in hubs:
        print(f"  {name}: {deg} links")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Horse: flow-level SDN traffic dynamics simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file (or a checkpoint)")
    run_p.add_argument(
        "scenario", nargs="?", help="scenario JSON path (omit with --restore)"
    )
    run_p.add_argument("--flows-csv", help="write per-flow records here")
    run_p.add_argument("--json", help="write the full run document here")
    run_p.add_argument(
        "--solver",
        choices=SOLVER_MODES,
        help="flow-engine rate solver (overrides the scenario)",
    )
    run_p.add_argument(
        "--until", type=float, help="stop at this simulated time (seconds)"
    )
    run_p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="checkpoint the simulation state here (at the end, or "
        "periodically with --checkpoint-interval)",
    )
    run_p.add_argument(
        "--checkpoint-interval",
        type=float,
        metavar="SECONDS",
        help="simulated seconds between periodic checkpoints",
    )
    run_p.add_argument(
        "--restore",
        metavar="PATH",
        help="resume from a checkpoint instead of building a scenario",
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        help="record a structured JSONL trace of the run here",
    )
    run_p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a Prometheus-style metrics exposition here at the end",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="account per-phase wall clock (reported in engine_stats)",
    )
    run_p.add_argument(
        "--hybrid-select",
        metavar="SPEC",
        help="run selected flows at packet granularity (hybrid engine): "
        "none, all, top:K, or match:field=value[,...]",
    )
    run_p.add_argument(
        "--hybrid-sync-interval",
        type=float,
        metavar="SECONDS",
        help="hybrid foreground/background coupling cadence",
    )
    run_p.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="run on the sharded parallel runtime with K domains "
        "(1 = the ordinary single-process engine, bitwise-identical)",
    )
    run_p.add_argument(
        "--shard-quantum",
        type=float,
        metavar="SECONDS",
        help="shard synchronization quantum (default: derived from the "
        "minimum cross-shard link latency)",
    )
    run_p.add_argument(
        "--check-digest",
        nargs="?",
        const="@golden",
        metavar="SHA256",
        help="verify the run's content digest: against the given value, "
        "or (with no value) against GOLDEN_DIGESTS.json next to the "
        "scenario file; mismatch exits 3",
    )
    run_p.add_argument(
        "--control",
        choices=["inproc", "wire"],
        help="control-plane transport (overrides the scenario)",
    )
    run_p.add_argument(
        "--wire-client",
        choices=["learning", "static"],
        help="run the built-in wire controller against this run's own "
        "listener (implies --control wire)",
    )
    run_p.add_argument(
        "--wire-listen",
        metavar="HOST:PORT",
        help="wire control listen address (port 0 picks a free port)",
    )
    run_p.set_defaults(func=cmd_run)

    serve_p = sub.add_parser(
        "serve",
        help="run a scenario as an OpenFlow 1.3 datapath agent for an "
        "external controller",
    )
    serve_p.add_argument("scenario", help="scenario JSON path")
    serve_p.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="listen address (default from the scenario, else 127.0.0.1:0)",
    )
    serve_p.add_argument(
        "--until", type=float, help="stop at this simulated time (seconds)"
    )
    serve_p.add_argument(
        "--budget",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for controller connect/answers "
        "(wire.latency_budget_s)",
    )
    serve_p.add_argument(
        "--dilation",
        type=float,
        metavar="FACTOR",
        help="simulated seconds charged per wall second of controller "
        "thinking time (0 = synchronous)",
    )
    serve_p.add_argument("--json", help="write the full run document here")
    serve_p.set_defaults(func=cmd_serve)

    client_p = sub.add_parser(
        "wire-client",
        help="run the built-in wire controller against a repro serve",
    )
    client_p.add_argument("address", help="server address, host:port")
    client_p.add_argument(
        "--mode",
        choices=["learning", "static"],
        default="learning",
        help="controller behavior (default: learning switch)",
    )
    client_p.add_argument(
        "--routes",
        metavar="PATH",
        help="static mode: JSON file with route dicts",
    )
    client_p.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-connection handshake timeout",
    )
    client_p.set_defaults(func=cmd_wire_client)

    trace_p = sub.add_parser(
        "trace", help="record, inspect, or summarize a structured trace"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    record_p = trace_sub.add_parser(
        "record", help="run a scenario with tracing enabled"
    )
    record_p.add_argument("scenario", help="scenario JSON path")
    record_p.add_argument(
        "--out", required=True, help="JSONL trace output path"
    )
    record_p.add_argument(
        "--solver",
        choices=SOLVER_MODES,
        help="flow-engine rate solver (overrides the scenario)",
    )
    record_p.add_argument(
        "--until", type=float, help="stop at this simulated time (seconds)"
    )
    record_p.set_defaults(func=cmd_trace)
    inspect_p = trace_sub.add_parser(
        "inspect", help="print trace records as JSON lines"
    )
    inspect_p.add_argument("trace_file", help="JSONL trace path")
    inspect_p.add_argument("--kind", help="only records of this kind")
    inspect_p.add_argument(
        "--limit", type=int, help="stop after this many records"
    )
    inspect_p.set_defaults(func=cmd_trace)
    summarize_p = trace_sub.add_parser(
        "summarize", help="aggregate counts and wall time per record kind"
    )
    summarize_p.add_argument("trace_file", help="JSONL trace path")
    summarize_p.set_defaults(func=cmd_trace)

    sweep_p = sub.add_parser(
        "sweep", help="expand and run a parameter sweep on a worker pool"
    )
    sweep_p.add_argument("spec", help="sweep spec JSON path")
    sweep_p.add_argument("--out", required=True, help="sweep output directory")
    sweep_p.add_argument(
        "--workers", type=int, help="pool size (overrides the spec)"
    )
    sweep_p.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    sweep_p.set_defaults(func=cmd_sweep)

    resume_p = sub.add_parser(
        "resume", help="re-run only the unfinished jobs of a sweep directory"
    )
    resume_p.add_argument("dir", help="sweep output directory (with manifest.json)")
    resume_p.add_argument(
        "--workers", type=int, help="pool size (overrides the spec)"
    )
    resume_p.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    resume_p.set_defaults(func=cmd_resume)

    an_p = sub.add_parser(
        "analyze",
        help="statically verify the forwarding state a scenario installs",
    )
    an_p.add_argument("scenario", help="scenario JSON path")
    an_p.add_argument(
        "--fail-link",
        nargs=2,
        action="append",
        metavar=("A", "B"),
        help="bring a link down after rule install (repeatable)",
    )
    an_p.add_argument(
        "--ingress",
        choices=["edge", "all"],
        default="edge",
        help="inject classes at host-facing ports only (edge) or all ports",
    )
    an_p.add_argument("--json", help="write the structured report here")
    an_p.add_argument("--sarif", help="write a SARIF 2.1.0 report here")
    an_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the report has findings (default: exit 0 "
        "and let CI gate on the merged report)",
    )
    an_p.set_defaults(func=cmd_analyze)

    lint_p = sub.add_parser(
        "lint",
        help="statically lint source for simulation-correctness defects",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="only run rules matching this id prefix (repeatable, "
        "e.g. DET or DET003)",
    )
    lint_p.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip rules matching this id prefix (repeatable)",
    )
    lint_p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    lint_p.add_argument(
        "--output",
        metavar="PATH",
        help="write the report here instead of stdout",
    )
    lint_p.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings whose fingerprint is in this baseline file",
    )
    lint_p.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record current findings as the new baseline and exit",
    )
    lint_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the report has findings (default: exit 0 "
        "and let CI gate on the merged report)",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint_p.set_defaults(func=cmd_lint)

    topo_p = sub.add_parser("topo", help="generate a topology file")
    topo_p.add_argument(
        "--kind",
        required=True,
        choices=["fat-tree", "leaf-spine", "linear", "star", "pods", "ixp"],
    )
    topo_p.add_argument("--k", type=int, help="fat-tree arity")
    topo_p.add_argument("--pods", type=int, help="pod count (kind=pods)")
    topo_p.add_argument(
        "--hosts-per-pod", type=int, help="hosts per pod (kind=pods)"
    )
    topo_p.add_argument("--members", type=int, help="IXP member count")
    topo_p.add_argument("--switches", type=int, help="linear chain length")
    topo_p.add_argument("--hosts", type=int, help="star host count")
    topo_p.add_argument("--seed", type=int)
    topo_p.add_argument("--out", required=True, help="output JSON path")
    topo_p.set_defaults(func=cmd_topo)

    info_p = sub.add_parser("info", help="describe a topology file")
    info_p.add_argument("topology", help="topology JSON path")
    info_p.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HorseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
