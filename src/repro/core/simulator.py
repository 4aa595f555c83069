"""The Horse façade: topology + policies + traffic → results.

Wires together everything the poster's Figure 2 shows: the data plane
(events, topology, statistics), the control plane (policy generator,
instructions, monitoring), and the in-memory channel between them.

Examples
--------
horse = Horse(topology, policies={"forwarding": "shortest-path"})
horse.submit_flows(flows)
result = horse.run()
result.row()
"""

from __future__ import annotations

import time as _time
from typing import Iterable, List, Optional, Sequence, Union

from ..control.channel import ControlChannel
from ..control.controller import Controller
from ..control.monitor import NetworkMonitor
from ..control.policy.compiler import CompiledPolicy, compile_policies
from ..control.policy.spec import PolicySpec
from ..errors import ExperimentError
from ..flowsim.engine import FlowLevelEngine
from ..flowsim.flow import Flow
from ..hybrid.engine import HybridEngine
from ..net.topology import Topology
from ..openflow.switch import attach_pipeline
from ..pktsim.engine import PacketLevelEngine
from ..sim.event import CallbackEvent
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..stats.collector import RunStatsCollector
from ..telemetry import Telemetry
from ..traffic.flowgen import FlowGenConfig, FlowGenerator
from ..traffic.matrix import TrafficMatrix
from .config import HorseConfig
from .results import RunResult


class Horse:
    """One simulation instance.

    Parameters
    ----------
    topology:
        The network to simulate.  Pipelines are attached automatically.
    policies:
        A policy configuration (Figure-2 style dict, a list of
        :class:`PolicySpec`, or an already-compiled
        :class:`CompiledPolicy`); None runs with a bare controller and
        whatever rules the caller installs directly.
    config:
        Engine selection and knobs (see :class:`HorseConfig`).
    controller:
        Alternative to ``policies``: bring your own controller with
        custom apps.
    """

    def __init__(
        self,
        topology: Topology,
        policies: Union[dict, Sequence[PolicySpec], CompiledPolicy, None] = None,
        config: Optional[HorseConfig] = None,
        controller: Optional[Controller] = None,
    ) -> None:
        self.topology = topology
        self.config = config or HorseConfig()
        self.rngs = RngRegistry(self.config.seed)
        self.sim = Simulator()
        self.compiled: Optional[CompiledPolicy] = None

        if policies is not None and controller is not None:
            raise ExperimentError("pass either policies or a controller, not both")
        if self.config.control == "wire" and (
            policies is not None or controller is not None
        ):
            raise ExperimentError(
                "wire control puts the controller on the other end of a TCP "
                "connection; in-process policies/controller cannot be combined "
                "with control='wire'"
            )
        if isinstance(policies, CompiledPolicy):
            self.compiled = policies
            self.controller = policies.controller
        elif policies is not None:
            self.compiled = compile_policies(topology, policies)
            self.controller = self.compiled.controller
        elif controller is not None:
            self.controller = controller
        else:
            self.controller = Controller()

        num_tables = max(
            self.config.pipeline_tables,
            self.compiled.num_tables if self.compiled else 1,
        )
        for switch in topology.switches:
            attach_pipeline(
                switch, num_tables=num_tables, table_size=self.config.table_size
            )

        self.channel = ControlChannel(
            self.sim,
            topology,
            controller=self.controller,
            latency_s=self.config.control_latency_s,
        )

        #: The external control-plane gateway (None for inproc control).
        self.wire = None
        if self.config.control == "wire":
            from ..wire.transport import WireRuntime

            self.wire = WireRuntime(
                self.channel,
                listen=self.config.parsed_wire_listen(),
                sync_quantum_s=self.config.wire.sync_quantum_s,
                latency_budget_s=self.config.wire.latency_budget_s,
                dilation=self.config.wire.dilation,
                client_mode=self.config.wire.client,
                client_routes=self.config.wire.client_routes,
            )
            self.channel.transport = self.wire.transport
            self.wire.transport.bind(self.channel)

        if self.config.engine == "flow":
            self.engine: Union[
                FlowLevelEngine, PacketLevelEngine, HybridEngine
            ] = FlowLevelEngine(
                self.sim,
                topology,
                control=self.channel,
                solver=self.config.solver,
                route_cache=self.config.route_cache,
                mean_packet_bytes=self.config.mean_packet_bytes,
                max_hops=self.config.max_hops,
            )
            self.channel.connect_engine(self.engine)
            if self.config.entry_expiry_interval_s:
                self.engine.enable_entry_expiry(self.config.entry_expiry_interval_s)
        elif self.config.engine == "hybrid":
            self.engine = HybridEngine(
                self.sim,
                topology,
                control=self.channel,
                select=self.config.hybrid.select,
                sync_interval_s=self.config.hybrid.sync_interval_s,
                solver=self.config.solver,
                route_cache=self.config.route_cache,
                mean_packet_bytes=self.config.mean_packet_bytes,
                max_hops=self.config.max_hops,
                mtu_bytes=self.config.mtu_bytes,
                queue_capacity_packets=self.config.queue_capacity_packets,
            )
            self.channel.connect_engine(self.engine)
            if self.config.entry_expiry_interval_s:
                self.engine.enable_entry_expiry(self.config.entry_expiry_interval_s)
        else:
            self.engine = PacketLevelEngine(
                self.sim,
                topology,
                control=self.channel,
                mtu_bytes=self.config.mtu_bytes,
                queue_capacity_packets=self.config.queue_capacity_packets,
                max_hops=self.config.max_hops,
            )

        #: Unified observation surface: metrics registry + trace/profile
        #: control over the kernel, engine, and channel.
        self.telemetry = Telemetry(self.sim)
        self.telemetry.bind(self.sim, self.engine, self.channel)
        registry = self.telemetry.registry
        registry.register_source("sim", self.sim.stats_snapshot)
        registry.register_source("engine", self.engine.engine_stats)
        registry.register_source("channel", self.channel.stats_snapshot)
        if self.wire is not None:
            registry.register_source("wire", self.wire.metrics)
        if self.config.telemetry.profile:
            self.telemetry.enable_profiling()
        if self.config.telemetry.trace_path:
            self.telemetry.enable_tracing(self.config.telemetry.trace_path)

        self._monitor: Optional[NetworkMonitor] = None
        if self.config.telemetry.monitor_interval_s:
            self._make_monitor(self.config.telemetry.monitor_interval_s)

        self.collector = RunStatsCollector(topology)
        if isinstance(self.engine, FlowLevelEngine):
            self.collector.attach_flow_engine(self.engine)
        elif isinstance(self.engine, HybridEngine):
            # Flow lifecycle events come from the fluid background; the
            # packet foreground reports through flow objects directly.
            self.collector.attach_flow_engine(self.engine.background)
        if self.config.telemetry.link_sample_interval_s:
            self.collector.enable_link_sampling(
                self.sim, self.config.telemetry.link_sample_interval_s
            )

        self._started = False
        #: Horizon of the most recent :meth:`run` call (None = drain).
        self.last_until: Optional[float] = None

        if self.config.checkpoint.interval_s and self.config.checkpoint.path:
            self._schedule_checkpoint_tick()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _make_monitor(self, interval: float) -> NetworkMonitor:
        self._monitor = NetworkMonitor(
            self.channel,
            interval=interval,
            threshold=self.config.telemetry.monitor_threshold,
            mode=self.config.telemetry.monitor_mode,
            min_delta_bytes=self.config.telemetry.monitor_push_min_delta_bytes,
        )
        self._monitor.start()
        self.telemetry.registry.register_source(
            "monitor", self._monitor.metrics_snapshot
        )
        return self._monitor

    def monitor(self) -> NetworkMonitor:
        """The run's :class:`NetworkMonitor`.

        Returns the monitor configured via ``monitor_interval_s``; when
        monitoring was not configured, one is created (and started) on
        first call with a 1-second interval and the configured mode, so
        reactive apps can always be handed a live sample stream.
        """
        if self._monitor is None:
            self._make_monitor(self.config.telemetry.monitor_interval_s or 1.0)
        return self._monitor

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: Optional[str] = None) -> dict:
        """Serialize the complete simulation state to ``path``.

        Captures the kernel (clock + pending events), RNG streams,
        topology/pipeline state, active flows, solver state, and
        statistics; :meth:`restore` yields a run whose results are
        bitwise-identical to one that was never interrupted.  ``path``
        defaults to ``config.checkpoint.path``.  Returns the checkpoint
        header (format version, digests, metadata).
        """
        from ..runtime.checkpoint import save_checkpoint

        target = path or self.config.checkpoint.path
        if not target:
            raise ExperimentError(
                "no checkpoint path given and none configured"
            )
        return save_checkpoint(self, target)

    @staticmethod
    def restore(path: str) -> "Horse":
        """Load a checkpoint written by :meth:`checkpoint`, ready to
        continue with :meth:`run`."""
        from ..runtime.checkpoint import load_checkpoint

        return load_checkpoint(path)

    def _schedule_checkpoint_tick(self) -> None:
        event = CallbackEvent(
            self.sim.now + self.config.checkpoint.interval_s,
            self._checkpoint_tick,
        )
        # Housekeeping: a pending checkpoint tick must not keep an
        # otherwise-drained simulation running.
        event.daemon = True
        self.sim.schedule(event)

    def _checkpoint_tick(self, sim: Simulator) -> None:
        # Re-arm before capturing so the next tick is part of the
        # snapshot: a restored run keeps checkpointing on cadence.
        self._schedule_checkpoint_tick()
        self.checkpoint()

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def start_control_plane(self) -> None:
        """Install proactive policies (idempotent; run() calls this).

        With wire control this (re-)establishes the TCP gateway: after a
        checkpoint restore the listener and connections come back lazily
        here, advertising the restored flag so the controller skips
        proactive installs.
        """
        if not self._started:
            self.controller.start()
            self._started = True
        if self.wire is not None and not self.wire.running:
            self.wire.start()

    def shutdown_wire(self) -> None:
        """Stop the wire gateway (no-op for inproc control).  Idempotent;
        the next :meth:`run` brings it back up."""
        if self.wire is not None:
            self.wire.shutdown()

    def submit_flows(self, flows: Iterable[Flow]) -> List[Flow]:
        """Schedule pre-built flows."""
        return self.engine.submit_all(flows)

    def submit_matrix(
        self,
        matrix: TrafficMatrix,
        horizon_s: float,
        flow_config: Optional[FlowGenConfig] = None,
        constant_rate: bool = False,
    ) -> List[Flow]:
        """Generate and schedule flows realizing a traffic matrix."""
        generator = FlowGenerator(
            self.topology,
            self.rngs.stream("traffic"),
            config=flow_config,
        )
        if constant_rate:
            flows = generator.constant_rate_flows(matrix, duration_s=horizon_s)
        else:
            flows = generator.from_matrix(matrix, horizon_s=horizon_s)
        return self.submit_flows(flows)

    def fail_link(self, at: float, a: str, b: str) -> None:
        """Schedule a link-failure input event (flow/hybrid engines)."""
        if not isinstance(self.engine, (FlowLevelEngine, HybridEngine)):
            raise ExperimentError("link failure injection needs the flow engine")
        self.engine.fail_link_at(at, a, b)

    def restore_link(self, at: float, a: str, b: str) -> None:
        if not isinstance(self.engine, (FlowLevelEngine, HybridEngine)):
            raise ExperimentError("link recovery injection needs the flow engine")
        self.engine.restore_link_at(at, a, b)

    def analyze(self, strict: bool = False, raise_on_error: bool = False):
        """Statically verify the installed forwarding state.

        Installs proactive policies first (idempotent), then runs the
        data-plane analyzer over the topology, checking any compiled
        policy intents.  Returns an
        :class:`~repro.analysis.AnalysisReport`; with
        ``raise_on_error=True`` a failing report raises
        :class:`~repro.errors.VerificationError` instead.
        """
        self.start_control_plane()
        return self.controller.verify(
            specs=self.compiled.specs if self.compiled else None,
            strict=strict,
            raise_on_error=raise_on_error,
        )

    def sync_statistics(self) -> None:
        """Bring all lazily-accrued counters up to the current instant.

        Call before reading port/entry counters directly mid-run (the
        monitor and the channel's stats repliers do this automatically).
        """
        sync = getattr(self.engine, "sync_statistics", None)
        if sync is not None:
            sync(self.sim.now)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_gated(self, until: Optional[float]) -> None:
        """Advance the kernel in sync-quantum slices, pausing at each
        boundary until outstanding wire round trips have completed.

        Slicing is behavior-preserving: repeated ``run(until=t_k)`` calls
        fire the same events at the same times as one call, so with
        ``wire.dilation == 0`` (where every controller exchange resolves
        inline) a gated run is bitwise-identical to an ungated one.
        """
        quantum = self.config.wire.sync_quantum_s
        if until is not None:
            while True:
                step = min(self.sim.now + quantum, until)
                self.sim.run(until=step)
                self.wire.sync()
                if step >= until:
                    return
        # Open-ended drain: alternate full drains with sync points until
        # neither the kernel nor the wire produces new work.
        while True:
            fired_before = self.sim.fired_count
            self.sim.run(until=None)
            self.wire.sync()
            if self.sim.fired_count == fired_before and self.wire.idle:
                return

    def run(self, until: Optional[float] = None) -> RunResult:
        """Install policies, run to completion (or ``until``), report."""
        self.start_control_plane()
        if isinstance(self.engine, HybridEngine):
            # Deferred (top-K) selection ranks the full submitted set at
            # run start; idempotent across resumed runs.
            self.engine.finalize()
        # Remembered so a checkpoint captured mid-run knows its horizon:
        # a restored run continues to the same `until` by default.
        self.last_until = until
        wall_start = _time.perf_counter()  # repro: noqa[DET001] - reported wall time; never feeds sim state
        if self.wire is not None:
            self._run_gated(until)
        else:
            self.sim.run(until=until)
        if isinstance(self.engine, (FlowLevelEngine, HybridEngine)):
            self.engine.finish()
        wall = _time.perf_counter() - wall_start  # repro: noqa[DET001] - reported wall time; never feeds sim state
        result = RunResult(
            wall_time_s=wall,
            sim_time_s=self.sim.now,
            events=self.sim.fired_count,
            engine_summary=self.engine.summary(),
            flows=list(self.engine.flows.values()),
            rule_count=self.controller.rule_count(),
            engine_stats=self.engine.engine_stats(),
            link_max_utilization=self.collector.max_link_utilization(),
            link_mean_utilization=self.collector.mean_link_utilization(),
            monitor_samples=list(self._monitor.samples) if self._monitor else [],
            metrics=self.telemetry.snapshot(),
            notes=list(self.compiled.notes) if self.compiled else [],
        )
        return result
