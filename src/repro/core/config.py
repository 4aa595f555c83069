"""Configuration for the Horse simulator façade.

:class:`HorseConfig` groups the run knobs into nested sections —
:class:`HybridConfig`, :class:`WireConfig`, :class:`TelemetryConfig`,
:class:`CheckpointConfig`, and :class:`ShardConfig` — and each setting has exactly one spelling::

    HorseConfig(engine="hybrid",
                hybrid=HybridConfig(select="top:4"),
                telemetry=TelemetryConfig(monitor_interval_s=0.5))

Scenario JSON documents mirror the same sections (``"schema_version":
1``; see :mod:`repro.runtime.schema`).
:meth:`HorseConfig.validate` is the one place that decides which
values are valid, for constructor calls and scenario files alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ExperimentError
from ..flowsim.engine import SOLVER_MODES

@dataclass
class HybridConfig:
    """Hybrid flow/packet co-simulation knobs (``engine="hybrid"``).

    Attributes
    ----------
    select:
        Foreground selection spec: ``none``, ``all``, ``top:K``, or
        ``match:field=value[,...]`` (see
        :class:`repro.hybrid.SelectionPolicy`).
    sync_interval_s:
        Cadence of the foreground/background coupling exchange
        (seconds of simulated time).
    """

    select: str = "none"
    sync_interval_s: float = 0.05


@dataclass
class WireConfig:
    """External OpenFlow 1.3 control-plane gateway knobs
    (``control="wire"``; see :mod:`repro.wire`).

    Attributes
    ----------
    listen:
        ``"host:port"`` to listen on (port 0 picks a free port).
    client:
        None to wait for an external controller, or ``"learning"`` /
        ``"static"`` to run the built-in client in a thread against
        this run's own listener (self-driven loopback).
    client_routes:
        Route dicts for ``client="static"``.
    sync_quantum_s:
        Simulated time between control-plane synchronization points.
    latency_budget_s:
        Wall-clock seconds to wait for a controller answer.
    dilation:
        Simulated seconds charged per wall-clock second of controller
        thinking time (0 reproduces the synchronous in-proc channel).
    """

    listen: str = "127.0.0.1:0"
    client: Optional[str] = None
    client_routes: Optional[list] = None
    sync_quantum_s: float = 0.05
    latency_budget_s: float = 5.0
    dilation: float = 0.0

    def parsed_listen(self) -> tuple:
        """``listen`` split into ``(host, port)``."""
        host, sep, port = str(self.listen).rpartition(":")
        if not sep or not host:
            raise ExperimentError(
                f"wire.listen must be 'host:port', got {self.listen!r}"
            )
        try:
            return host, int(port)
        except ValueError:
            raise ExperimentError(
                f"wire.listen port must be an integer, got {port!r}"
            ) from None


@dataclass
class TelemetryConfig:
    """Observation knobs: monitoring, link sampling, tracing, profiling.

    Attributes
    ----------
    monitor_interval_s:
        Port-stats sampling period; None disables monitoring.
    monitor_threshold:
        Utilization above which the monitor flags a port.
    monitor_mode:
        ``"poll"`` (the monitor reads counters itself) or ``"push"``
        (the channel pushes counter samples; docs/observability.md).
    monitor_push_min_delta_bytes:
        Push mode only: suppress a push unless some port counter moved
        at least this much since the last delivered push.
    link_sample_interval_s:
        Utilization sampling period for the stats collector; None
        disables sampling.
    trace_path:
        When set, structured tracing is enabled for the whole run and
        records are appended (JSONL) to this path.
    profile:
        Enable per-phase wall-clock profiling, reported under
        ``engine_stats["profile"]`` (wall-clock content — leave off
        for byte-compared reports).
    """

    monitor_interval_s: Optional[float] = None
    monitor_threshold: float = 0.9
    monitor_mode: str = "poll"
    monitor_push_min_delta_bytes: float = 0.0
    link_sample_interval_s: Optional[float] = None
    trace_path: Optional[str] = None
    profile: bool = False


@dataclass
class CheckpointConfig:
    """Checkpoint/restore knobs (see :mod:`repro.runtime`).

    Attributes
    ----------
    path:
        Target for :meth:`Horse.checkpoint` calls; with ``interval_s``
        also the periodic-checkpoint destination.
    interval_s:
        Simulated seconds between periodic checkpoints (needs
        ``path``); None disables the ticker.
    """

    path: Optional[str] = None
    interval_s: Optional[float] = None


@dataclass
class ShardConfig:
    """Sharded parallel-runtime knobs (see :mod:`repro.shard`).

    Attributes
    ----------
    count:
        Number of shard domains.  1 (default) runs the ordinary
        single-process engine — bitwise-identical results.  k > 1
        partitions the topology into k domains, runs each in a worker
        process with its own kernel/clock/solver, and synchronizes
        conservatively at quantum boundaries.
    quantum_s:
        Synchronization quantum (simulated seconds).  None derives it
        from the minimum cross-shard link latency (the conservative
        lookahead), floored at :data:`repro.shard.MIN_QUANTUM_S`; with
        no cross-shard links the whole horizon is one quantum.
    partition:
        ``"greedy"`` (METIS-style greedy edge-cut over link
        capacities) or an explicit list of node-name lists, one per
        shard (hosts follow their attachment switch when omitted).
    checkpoint_dir:
        When set, every shard checkpoints its state here at each
        quantum boundary, so a crashed shard restarts from its last
        boundary instead of replaying from t=0.
    """

    count: int = 1
    quantum_s: Optional[float] = None
    partition: object = "greedy"
    checkpoint_dir: Optional[str] = None


#: Section attribute name -> its dataclass type.
SECTION_TYPES = {
    "hybrid": HybridConfig,
    "wire": WireConfig,
    "telemetry": TelemetryConfig,
    "checkpoint": CheckpointConfig,
    "shard": ShardConfig,
}


def _coerce_section(value, section: str):
    """Accept a section instance, a plain dict, or None (defaults)."""
    cls = SECTION_TYPES[section]
    if value is None:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, dict):
        fields = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(value) - fields)
        if unknown:
            raise ExperimentError(
                f"unknown {section} config key(s): {', '.join(unknown)}"
            )
        # None (JSON null) means "use the default".  Every Optional
        # field defaults to None, so null on one still means "off".
        return cls(**{k: v for k, v in value.items() if v is not None})
    raise ExperimentError(
        f"{section} must be a {cls.__name__}, a dict, or None, "
        f"got {type(value).__name__}"
    )


@dataclass(init=False)
class HorseConfig:
    """Top-level knobs for a :class:`~repro.core.simulator.Horse` run.

    Attributes
    ----------
    engine:
        ``"flow"`` (Horse's flow-level abstraction, default),
        ``"packet"`` (the per-packet baseline), or ``"hybrid"``
        (selected flows at packet granularity inside flow-level
        background traffic; see :mod:`repro.hybrid`).
    seed:
        Master seed for every stochastic component.
    control_latency_s:
        One-way control channel delay; 0 means the poster's synchronous
        abstraction.
    solver:
        Flow engine only: rate-solver strategy.  ``"incremental"``
        (default) re-solves only the link-sharing components an event
        touched; ``"full"`` re-solves everything through the same
        kernel (reference mode, bitwise-identical rates).
    route_cache:
        Flow engine only: reuse pipeline walks across flows whose
        headers are equivalent under the installed rules.
    mtu_bytes / queue_capacity_packets:
        Packet engine parameters.
    pipeline_tables:
        Minimum tables per switch pipeline; raised automatically to what
        the compiled policy composition needs.
    entry_expiry_interval_s:
        Flow engine: period of the rule-timeout sweep; None disables it
        (enable when policies use idle/hard timeouts).
    control:
        ``"inproc"`` (the poster's in-process controller objects,
        default) or ``"wire"`` (real OpenFlow 1.3 TCP connections via
        :mod:`repro.wire`).  Wire control requires
        ``control_latency_s == 0`` — latency comes from the wall clock
        through the time gate — and is incompatible with in-process
        policies/controllers.
    hybrid / wire / telemetry / checkpoint / shard:
        Nested sections; see :class:`HybridConfig`,
        :class:`WireConfig`, :class:`TelemetryConfig`,
        :class:`CheckpointConfig`, and :class:`ShardConfig`.  Each
        accepts an instance or a plain dict.
    """

    engine: str = "flow"
    seed: int = 0
    control_latency_s: float = 0.0
    solver: str = "incremental"
    route_cache: bool = True
    mtu_bytes: int = 1500
    queue_capacity_packets: int = 100
    pipeline_tables: int = 1
    table_size: Optional[int] = None
    entry_expiry_interval_s: Optional[float] = None
    mean_packet_bytes: int = 1000
    max_hops: int = 64
    control: str = "inproc"
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    wire: WireConfig = field(default_factory=WireConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    shard: ShardConfig = field(default_factory=ShardConfig)

    def __init__(
        self,
        engine: str = "flow",
        seed: int = 0,
        control_latency_s: float = 0.0,
        solver: str = "incremental",
        route_cache: bool = True,
        mtu_bytes: int = 1500,
        queue_capacity_packets: int = 100,
        pipeline_tables: int = 1,
        table_size: Optional[int] = None,
        entry_expiry_interval_s: Optional[float] = None,
        mean_packet_bytes: int = 1000,
        max_hops: int = 64,
        control: str = "inproc",
        hybrid=None,
        wire=None,
        telemetry=None,
        checkpoint=None,
        shard=None,
        **unknown,
    ) -> None:
        if unknown:
            raise ExperimentError(
                "unknown HorseConfig argument(s): "
                + ", ".join(repr(key) for key in sorted(unknown))
            )
        self.engine = engine
        self.seed = seed
        self.control_latency_s = control_latency_s
        self.solver = solver
        self.route_cache = route_cache
        self.mtu_bytes = mtu_bytes
        self.queue_capacity_packets = queue_capacity_packets
        self.pipeline_tables = pipeline_tables
        self.table_size = table_size
        self.entry_expiry_interval_s = entry_expiry_interval_s
        self.mean_packet_bytes = mean_packet_bytes
        self.max_hops = max_hops
        self.control = control
        self.hybrid = _coerce_section(hybrid, "hybrid")
        self.wire = _coerce_section(wire, "wire")
        self.telemetry = _coerce_section(telemetry, "telemetry")
        self.checkpoint = _coerce_section(checkpoint, "checkpoint")
        self.shard = _coerce_section(shard, "shard")
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-field consistency; raises
        :class:`~repro.errors.ExperimentError` on the first violation.
        Called by the constructor; call again after mutating sections.
        """
        if self.engine not in ("flow", "packet", "hybrid"):
            raise ExperimentError(
                f"engine must be 'flow', 'packet', or 'hybrid', got {self.engine!r}"
            )
        if self.solver not in SOLVER_MODES:
            raise ExperimentError(
                f"solver must be one of {SOLVER_MODES}, got {self.solver!r}"
            )
        if self.engine == "hybrid" and self.hybrid.sync_interval_s <= 0:
            raise ExperimentError("hybrid.sync_interval_s must be > 0")
        if self.mean_packet_bytes <= 0:
            raise ExperimentError("mean_packet_bytes must be > 0")
        tel = self.telemetry
        for name, value in (
            ("entry_expiry_interval_s", self.entry_expiry_interval_s),
            ("telemetry.monitor_interval_s", tel.monitor_interval_s),
            ("telemetry.link_sample_interval_s", tel.link_sample_interval_s),
        ):
            if value is not None and value <= 0:
                raise ExperimentError(f"{name} must be > 0 or None (off)")
        if tel.monitor_mode not in ("poll", "push"):
            raise ExperimentError(
                "telemetry.monitor_mode must be 'poll' or 'push', "
                f"got {tel.monitor_mode!r}"
            )
        if tel.monitor_push_min_delta_bytes < 0:
            raise ExperimentError(
                "telemetry.monitor_push_min_delta_bytes must be >= 0"
            )
        if self.control_latency_s < 0:
            raise ExperimentError("control latency must be >= 0")
        if self.pipeline_tables < 1:
            raise ExperimentError("need >= 1 pipeline table")
        if self.control not in ("inproc", "wire"):
            raise ExperimentError(
                f"control must be 'inproc' or 'wire', got {self.control!r}"
            )
        if self.control == "wire":
            if self.control_latency_s != 0.0:
                raise ExperimentError(
                    "wire control requires control_latency_s == 0 "
                    "(latency comes from the wall clock via the time gate)"
                )
            if self.wire.sync_quantum_s <= 0:
                raise ExperimentError("wire.sync_quantum_s must be > 0")
            if self.wire.latency_budget_s <= 0:
                raise ExperimentError("wire.latency_budget_s must be > 0")
            if self.wire.dilation < 0:
                raise ExperimentError("wire.dilation must be >= 0")
            if self.wire.client not in (None, "learning", "static"):
                raise ExperimentError(
                    "wire.client must be None, 'learning', or 'static', "
                    f"got {self.wire.client!r}"
                )
            self.wire.parsed_listen()  # validates host:port early
        if self.checkpoint.interval_s is not None:
            if self.checkpoint.interval_s <= 0:
                raise ExperimentError("checkpoint.interval_s must be > 0")
            if not self.checkpoint.path:
                raise ExperimentError(
                    "checkpoint.interval_s needs a checkpoint.path"
                )
        sh = self.shard
        if sh.count < 1:
            raise ExperimentError(f"shard.count must be >= 1, got {sh.count}")
        if sh.quantum_s is not None and sh.quantum_s <= 0:
            raise ExperimentError("shard.quantum_s must be > 0")
        if not (sh.partition == "greedy" or isinstance(sh.partition, (list, tuple))):
            raise ExperimentError(
                "shard.partition must be 'greedy' or a list of node-name "
                f"lists, got {sh.partition!r}"
            )
        if sh.count > 1:
            if self.engine != "flow":
                raise ExperimentError(
                    "sharded runs (shard.count > 1) require engine='flow'"
                )
            if self.control != "inproc":
                raise ExperimentError(
                    "sharded runs (shard.count > 1) require control='inproc'"
                )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def parsed_wire_listen(self) -> tuple:
        """``wire.listen`` split into ``(host, port)``."""
        return self.wire.parsed_listen()

