"""The repository benchmark: seeded workloads driven through ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ixp_replay --seed 1 --seconds 20 --trace 0

One process runs one simulation at a time (a closed loop with no worker
processes or extra threads).  A *cycle* sets up and runs every episode
of the workload once; cycles repeat until ``--seconds`` have passed and
at least one cycle is complete, and the reported values are medians
over cycles.  With ``--trace 1`` the first half of the time runs
untraced cycles and the second half traced ones, and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts flow outcomes checked and ``failed`` those that differed from
the reference or broke an invariant.  ``--write-reference`` pins the
outcomes of the default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up passes per run at least, so ``setup_s`` is always a median.
MIN_SETUPS = 3


@dataclass
class Cycle:
    """What one pass over every episode measured and produced."""

    setup_s: float
    phases: Dict[str, float]
    run_s: float
    flows: int
    outcomes: List[dict]
    counters: Counter
    invariant_failures: int
    peak_heap: int = 0
    #: :class:`tracer.SpanTotals` of a traced cycle, else None.
    totals: Optional[object] = None
    span_counts: Counter = field(default_factory=Counter)


def _engine_parts(result):
    """(flow engine stats, packet engine stats or None) of a result."""
    stats = result.engine_stats
    if stats.get("engine") == "hybrid":
        return stats["background_engine"], stats["foreground_engine"]
    return stats, None


def _program_counters(result) -> Counter:
    """Exact counts read from the program's own public counters."""
    flow, packet = _engine_parts(result)
    solver = flow.get("solver", {})
    metrics = result.metrics
    counts = Counter(
        {
            "sim.events": result.events,
            "sim.compactions": metrics.get("sim.queue_compactions", 0),
            "fairshare.resolve_calls": solver.get("resolves", 0),
            "fairshare.flows_resolved": solver.get("flows_resolved", 0),
            "fairshare.component_solves": solver.get("component_solves", 0),
            "flowsim.route_cache_hits": flow["route_cache_hits"],
            "flowsim.route_walks": flow["route_cache_misses"],
            "openflow.rules": result.rule_count,
            "control.packet_ins": metrics.get("channel.packet_ins", 0),
            "control.flow_mods": metrics.get("channel.flow_mods", 0),
            "control.stats_requests": metrics.get("channel.stats_requests", 0),
        }
    )
    if packet is not None:
        counts["pktsim.packets"] = packet["packets_sent"]
        counts["pktsim.drops"] = sum(
            value for key, value in packet.items() if key.startswith("drops_")
        )
        counts["hybrid.syncs"] = result.engine_stats["syncs"]
        counts["hybrid.external_updates"] = result.engine_stats["external_updates"]
    return counts


def run_cycle(workload, seeds, recorder=None, span_out=None) -> Cycle:
    """Set up every episode, then run them one after another.

    All episodes are set up before the first runs, as a batch of
    experiments would be, so the peak resident memory grows with the
    workload's total flow state.  With a recorder installed, the spans
    of each ``Horse.run`` are folded into the cycle's totals.
    """
    from check import invariant_failures, outcome
    from workloads import PhaseTimer, build_episode

    timer = PhaseTimer()
    episodes = [build_episode(workload, seed, timer) for seed in seeds]
    run_s = 0.0
    flows = 0
    outcomes: List[dict] = []
    counters: Counter = Counter()
    span_counts: Counter = Counter()
    bad = 0
    peak_heap = 0
    totals = None
    if recorder is not None:
        from tracer import SpanTotals

        totals = SpanTotals()
    for index in range(len(episodes)):
        episode, episodes[index] = episodes[index], None
        if recorder is not None:
            # Trace Horse.run only, not the set-up above.
            recorder.spans.clear()
            recorder.counts.clear()
        start = time.perf_counter()
        result = episode.horse.run(until=episode.until)
        run_s += time.perf_counter() - start
        if recorder is not None:
            span_counts.update(recorder.counts)
            recorder.drain(totals, span_out)
        flows += len(episode.flows)
        out = outcome(result)
        outcomes.append(out)
        bad += len(invariant_failures(out, episode))
        counters.update(_program_counters(result))
        peak_heap = max(peak_heap, result.metrics.get("sim.queue_peak_size", 0))
        # No collection here: with every episode set up, a full
        # collection per episode would cost more than the runs.
        del episode, result
    del episodes
    gc.collect()
    return Cycle(
        setup_s=sum(timer.seconds.values()),
        phases=dict(timer.seconds),
        run_s=run_s,
        flows=flows,
        outcomes=outcomes,
        counters=counters,
        invariant_failures=bad,
        peak_heap=peak_heap,
        totals=totals,
        span_counts=span_counts,
    )


def setup_only(workload, seeds) -> float:
    """One set-up pass with nothing run: host seconds to set up all."""
    from workloads import PhaseTimer, build_episode

    timer = PhaseTimer()
    episodes = [build_episode(workload, seed, timer) for seed in seeds]
    del episodes
    gc.collect()
    return sum(timer.seconds.values())


def run_cycles(
    cycles: List[Cycle], start: float, budget: float, min_cycles: int, **kwargs
) -> None:
    """Append at least ``min_cycles`` cycles, then more while one more
    cycle would still end within ``budget`` seconds of ``start``."""
    while True:
        began = time.perf_counter()
        cycles.append(run_cycle(**kwargs))
        now = time.perf_counter()
        print(
            f"perfbench: cycle {len(cycles)} run_s={cycles[-1].run_s:.3f} "
            f"setup_s={cycles[-1].setup_s:.3f}",
            file=sys.stderr,
        )
        if len(cycles) >= min_cycles and now + (now - began) - start > budget:
            return


def compare(cycles: List[Cycle], reference: Optional[List[dict]]):
    """(attempted, failed, link mismatches) over every cycle."""
    from check import mismatched_flows, mismatched_links

    expected = reference if reference is not None else cycles[0].outcomes
    attempted = failed = links = 0
    for cycle in cycles:
        if len(cycle.outcomes) != len(expected):
            raise SystemExit("episode count differs from the reference")
        for actual, ref in zip(cycle.outcomes, expected):
            attempted += len(actual["flows"])
            failed += len(mismatched_flows(actual, ref))
            links += len(mismatched_links(actual, ref))
    failed += sum(cycle.invariant_failures for cycle in cycles)
    return attempted, failed, links


def _pct(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(cycles, setups, rss_mb) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "flows_per_s": {
            "value": statistics.median([c.flows / c.run_s for c in cycles]),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(untraced, traced, mismatch_frac) -> dict:
    from tracer import LAYERS

    counts = traced[0].counters
    wrapped = traced[0].span_counts
    calls = traced[0].totals.calls

    def med(fn):
        return statistics.median([fn(c) for c in traced])

    def inclusive(*names):
        return med(lambda c: sum(c.totals.inclusive_s.get(n, 0.0) for n in names))

    def layer_self(layer):
        return med(lambda c: c.totals.self_s.get(layer, 0.0))

    flows = traced[0].flows
    resolves = counts["fairshare.resolve_calls"]
    lookups = counts["flowsim.route_cache_hits"] + counts["flowsim.route_walks"]
    out = {
        "sim.events": (counts["sim.events"], "count"),
        "sim.schedule_calls": (wrapped["sim.schedule_calls"], "count"),
        "sim.reschedule_calls": (wrapped["sim.reschedule_calls"], "count"),
        "sim.cancel_calls": (wrapped["sim.cancel_calls"], "count"),
        "sim.compactions": (counts["sim.compactions"], "count"),
        "sim.peak_heap": (traced[0].peak_heap, "count"),
        "flowsim.arrival_s": (inclusive("flowsim.arrival"), "s"),
        "flowsim.completion_s": (inclusive("flowsim.completion"), "s"),
        "flowsim.reroute_sweep_s": (inclusive("flowsim.reroute_sweep"), "s"),
        "flowsim.reroute_sweeps": (calls["flowsim.reroute_sweep"], "count"),
        "flowsim.route_walks": (counts["flowsim.route_walks"], "count"),
        "flowsim.route_cache_hit_ratio": (
            counts["flowsim.route_cache_hits"] / lookups if lookups else 0.0,
            "ratio",
        ),
        "flowsim.finish_s": (inclusive("flowsim.finish"), "s"),
        "fairshare.resolve_s": (inclusive("fairshare.resolve"), "s"),
        "fairshare.resolve_calls": (resolves, "count"),
        "fairshare.resolve_p50_us": (
            med(lambda c: _pct(c.totals.resolve_us, 0.5)),
            "us",
        ),
        "fairshare.resolve_p99_us": (
            med(lambda c: _pct(c.totals.resolve_us, 0.99)),
            "us",
        ),
        "fairshare.flows_resolved": (counts["fairshare.flows_resolved"], "count"),
        "fairshare.flows_per_resolve": (
            counts["fairshare.flows_resolved"] / resolves if resolves else 0.0,
            "count",
        ),
        "fairshare.component_solves": (counts["fairshare.component_solves"], "count"),
        "openflow.process_calls": (calls["openflow.process"], "count"),
        "openflow.process_s": (inclusive("openflow.process"), "s"),
        "openflow.expire_s": (inclusive("openflow.expire"), "s"),
        "openflow.rules": (counts["openflow.rules"], "count"),
        "control.packet_ins": (counts["control.packet_ins"], "count"),
        "control.packet_ins_per_flow": (counts["control.packet_ins"] / flows, "ratio"),
        "control.packet_in_s": (inclusive("control.packet_in"), "s"),
        "control.flow_mods": (counts["control.flow_mods"], "count"),
        "control.send_s": (inclusive("control.send"), "s"),
        "control.stats_requests": (counts["control.stats_requests"], "count"),
        "control.monitor_s": (inclusive("control.monitor"), "s"),
        "pktsim.packets": (counts["pktsim.packets"], "count"),
        "pktsim.enqueue_calls": (calls["pktsim.enqueue"], "count"),
        "pktsim.enqueue_s": (inclusive("pktsim.enqueue"), "s"),
        "pktsim.inject_s": (inclusive("pktsim.inject"), "s"),
        "pktsim.drops": (counts["pktsim.drops"], "count"),
        "hybrid.syncs": (counts["hybrid.syncs"], "count"),
        "hybrid.external_updates": (counts["hybrid.external_updates"], "count"),
        "trace.overhead": (
            statistics.median([c.run_s for c in traced]) / statistics.median([c.run_s for c in untraced]),
            "ratio",
        ),
        "flow_mismatch_frac": (mismatch_frac, "ratio"),
    }
    for phase in (
        "ixp.build_s",
        "net.build_s",
        "traffic.generate_s",
        "policy.compile_s",
        "core.init_s",
        "core.submit_s",
    ):
        out[phase] = (statistics.median([c.phases.get(phase, 0.0) for c in untraced]), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def _counts_repeat(cycles: List[Cycle]) -> bool:
    first = cycles[0]
    ok = all(c.counters == first.counters for c in cycles)
    traced = [c for c in cycles if c.totals is not None]
    if traced:
        ok = ok and all(
            c.span_counts == traced[0].span_counts
            and c.totals.calls == traced[0].totals.calls
            for c in traced
        )
    return ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="pin the default seed's outcomes in reference/ and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One simulation at a time on one core: no BLAS worker threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from check import load_reference, write_reference
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seeds = workload.episode_seeds(seed)

    if args.write_reference:
        if seed != DEFAULT_SEED:
            print("perfbench: references are pinned for the default seed only",
                  file=sys.stderr)
            return 2
        cycles = [run_cycle(workload, seeds) for _ in range(2)]
        attempted, failed, links = compare(cycles, None)
        if failed or links or not _counts_repeat(cycles):
            print("perfbench: outcomes do not repeat; nothing written", file=sys.stderr)
            return 1
        print(write_reference(workload.name, seed, cycles[0].outcomes))
        return 0

    reference = load_reference(workload.name, seed) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and reference is None:
        print("perfbench: the default seed's reference is missing", file=sys.stderr)
        return 2

    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Warm-up: one untimed episode finishes lazy imports and first-call
    # set-up that a long-running user pays only once.
    run_cycle(workload, seeds[:1])
    start = time.perf_counter()
    untraced: List[Cycle] = []
    run_cycles(
        untraced,
        start,
        args.seconds / 2 if args.trace else args.seconds,
        min_cycles=1 if args.trace else 2,
        workload=workload,
        seeds=seeds,
    )
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline_kb) / 1024

    traced: List[Cycle] = []
    if args.trace:
        from tracer import SpanRecorder, open_span_file

        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.csv.gz")
        with SpanRecorder() as recorder:
            # The first traced cycle's spans are written out.
            began = time.perf_counter()
            with open_span_file(span_path) as span_out:
                traced.append(run_cycle(workload, seeds, recorder, span_out))
            now = time.perf_counter()
            if now + (now - began) - start <= args.seconds:
                run_cycles(
                    traced,
                    start,
                    args.seconds,
                    min_cycles=1,
                    workload=workload,
                    seeds=seeds,
                    recorder=recorder,
                )

    setups = [c.setup_s for c in untraced]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_only(workload, seeds))

    cycles = untraced + traced
    attempted, failed, links = compare(cycles, reference)
    correct = failed == 0 and links == 0 and _counts_repeat(cycles)
    if args.trace:
        metrics = per_layer(untraced, traced, failed / attempted)
    else:
        metrics = end_to_end(untraced, setups, rss_mb)
    print(
        f"perfbench: {workload.name} seed={seed} cycles={len(untraced)}+{len(traced)} "
        f"episodes={len(seeds)} flows/cycle={untraced[0].flows} "
        f"link_mismatches={links}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
