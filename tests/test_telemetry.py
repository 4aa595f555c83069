"""Telemetry tests: registry, trace bus, profiler, and the hub."""

import io
import json

import pytest

from repro import Flow, Horse, HorseConfig
from repro.errors import TelemetryError
from repro.net.generators import tree
from repro.openflow.headers import tcp_flow
from repro.sim import Simulator
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    Telemetry,
    TraceBus,
    read_trace,
    summarize_trace,
)


def flow_between(topo, src, dst, **kw):
    s, d = topo.host(src), topo.host(dst)
    sport = kw.pop("sport", 1000)
    defaults = dict(demand_bps=1e6, size_bytes=100_000)
    defaults.update(kw)
    return Flow(
        headers=tcp_flow(s.ip, d.ip, sport, 80), src=src, dst=dst, **defaults
    )


def small_horse(**config_kw):
    topo = tree(2, 2)
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(**config_kw),
    )
    horse.submit_flows([flow_between(topo, "h1", "h4")])
    return topo, horse


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("writes").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        snap = registry.snapshot()
        assert snap["writes"] == 2.0
        assert snap["depth"] == 7.0
        assert snap["lat"]["count"] == 1
        assert snap["lat"]["buckets"] == {0.1: 1, 1.0: 1}

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        assert registry.counter("x") is c
        assert isinstance(c, Counter)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_counter_cannot_decrease(self):
        with pytest.raises(TelemetryError):
            Counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("x")
        g.inc(5)
        g.dec(2)
        assert g.value_snapshot() == 3.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram("x", buckets=(1.0, 0.1))

    def test_source_flattening_with_tuple_keys(self):
        registry = MetricsRegistry()
        registry.register_source(
            "monitor",
            lambda: {"max_utilization": {("s1", 2): 0.5}, "samples": 3},
        )
        snap = registry.snapshot()
        assert snap["monitor.max_utilization.s1:2"] == 0.5
        assert snap["monitor.samples"] == 3

    def test_duplicate_source_prefix_rejected(self):
        registry = MetricsRegistry()
        registry.register_source("a", dict)
        with pytest.raises(TelemetryError):
            registry.register_source("a", dict)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("runs", help="completed runs").inc(3)
        registry.histogram("fct", buckets=(0.1, 1.0)).observe(0.5)
        registry.register_source("engine", lambda: {"mode": "flow", "n": 2})
        text = registry.to_prometheus()
        assert "# HELP runs completed runs" in text
        assert "# TYPE runs counter" in text
        assert "runs 3" in text
        assert 'fct_bucket{le="+Inf"} 1' in text
        assert "fct_count 1" in text
        assert "engine_n 2" in text
        # Non-numeric source values stay as comments.
        assert "# engine_mode = 'flow'" in text


class TestTraceBus:
    def test_buffer_mode_records_header_and_events(self):
        bus = TraceBus()
        bus.emit("x", a=1)
        assert [e["kind"] for e in bus.events] == ["trace.open", "x"]
        assert bus.events[1]["a"] == 1
        assert bus.emitted == 2

    def test_sim_clock_stamps_records(self):
        sim = Simulator()
        bus = TraceBus(sim)
        sim.call_in(2.5, lambda s: bus.emit("later"))
        sim.run()
        assert bus.events[-1]["t"] == 2.5

    def test_span_measures_wall_time(self):
        bus = TraceBus()
        with bus.span("work", step="s"):
            pass
        record = bus.events[-1]
        assert record["kind"] == "work" and record["step"] == "s"
        assert record["wall_dur_s"] >= 0.0

    def test_path_xor_stream(self, tmp_path):
        with pytest.raises(TelemetryError):
            TraceBus(path=str(tmp_path / "t.jsonl"), stream=io.StringIO())

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        bus = TraceBus(path=path)
        bus.emit("one", n=1)
        bus.close()
        records = read_trace(path)
        assert [r["kind"] for r in records] == [
            "trace.open", "one", "trace.close"
        ]
        summary = summarize_trace(records)
        assert summary["records"] == 3
        assert summary["kinds"]["one"]["count"] == 1

    def test_stream_mode_writes_jsonl(self):
        stream = io.StringIO()
        bus = TraceBus(stream=stream)
        bus.emit("x")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [r["kind"] for r in lines] == ["trace.open", "x"]


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = PhaseProfiler()
        profiler.add("solve", 0.25)
        profiler.add("solve", 0.5)
        with profiler.phase("route"):
            pass
        snap = profiler.snapshot()
        assert snap["solve"] == {"wall_s": 0.75, "count": 2}
        assert snap["route"]["count"] == 1


class TestHub:
    def test_enable_disable_tracing_swaps_sinks(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.bind(sim)
        bus = telemetry.enable_tracing()
        assert sim.trace_bus is bus
        assert telemetry.enable_tracing() is bus  # idempotent
        bus.emit("x")
        summary = telemetry.disable_tracing()
        assert sim.trace_bus is None
        assert summary["x"]["count"] == 1
        assert telemetry.disable_tracing() is None

    def test_late_bind_applies_live_bus(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        bus = telemetry.enable_tracing()
        telemetry.bind(sim)
        assert sim.trace_bus is bus

    def test_profiling_toggles(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.bind(sim)
        profiler = telemetry.enable_profiling()
        assert sim.profiler is profiler
        sim.run(until=1.0)
        snapshot = telemetry.disable_profiling()
        assert sim.profiler is None
        assert isinstance(snapshot, dict)


class TestHorseIntegration:
    def test_disabled_telemetry_is_a_no_op(self):
        _, horse = small_horse()
        assert horse.sim.trace_bus is None
        assert horse.engine.trace_bus is None
        assert horse.channel.trace_bus is None
        assert not horse.telemetry.tracing_enabled
        result = horse.run()
        # No trace anywhere, no wall-clock profile in the stats.
        assert horse.sim.trace_bus is None
        assert "profile" not in result.engine_stats
        assert result.metrics["engine.rate_solves"] >= 1

    def test_run_metrics_unify_engine_channel_sim(self):
        _, horse = small_horse(telemetry={"monitor_interval_s": 1.0})
        result = horse.run(until=3.0)
        metrics = result.metrics
        assert metrics["engine.rate_solves"] >= 1
        assert metrics["channel.flow_mods"] >= 1
        assert metrics["sim.now"] == 3.0
        assert metrics["monitor.samples"] == 3
        assert metrics["monitor.mode"] == "poll"

    def test_tracing_via_config_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        _, horse = small_horse(telemetry={"trace_path": path})
        horse.run()
        horse.telemetry.disable_tracing()
        kinds = {r["kind"] for r in read_trace(path)}
        assert "kernel.event" in kinds
        assert "channel.flow_mod" in kinds
        assert "flow.completed" in kinds
        assert "solver.resolve" in kinds

    def test_profiling_via_config_reports_phases(self):
        _, horse = small_horse(telemetry={"profile": True})
        result = horse.run()
        profile = result.engine_stats["profile"]
        assert set(profile) >= {"dispatch", "solve", "route"}
        assert profile["dispatch"]["count"] > 0

    def test_monitor_accessor_creates_and_returns(self):
        _, horse = small_horse(telemetry={"monitor_interval_s": 1.0})
        monitor = horse.monitor()
        assert monitor is horse.monitor()
        horse.run(until=2.5)
        assert len(monitor.samples) == 2

    def test_monitor_accessor_without_config_starts_default(self):
        _, horse = small_horse()
        monitor = horse.monitor()
        horse.run(until=2.5)
        assert monitor.interval == 1.0
        assert len(monitor.samples) == 2

    def test_checkpoint_restore_preserves_registry(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        _, horse = small_horse(telemetry={"monitor_interval_s": 1.0})
        horse.telemetry.registry.counter("app.custom").inc(5)
        horse.run(until=2.0)
        before = horse.telemetry.snapshot()
        horse.checkpoint(path)

        restored = Horse.restore(path)
        after = restored.telemetry.snapshot()
        assert after == before
        assert after["app.custom"] == 5.0
        # Sources stay live: running further advances the pulled values.
        restored.run(until=4.0)
        assert restored.telemetry.snapshot()["sim.now"] == 4.0
        assert restored.telemetry.snapshot()["monitor.samples"] == 4
