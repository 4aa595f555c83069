"""The stable public API of the Horse reproduction.

``repro.api`` is the supported integration surface: everything listed
in ``__all__`` here follows compatibility rules (deprecate first,
remove later), and ``tools/check_api_surface.py`` snapshots the names
and signatures so CI catches accidental breaks before users do.
Internal subpackage layout may change between releases; imports from
this module keep working.

Typical use::

    from repro.api import Scenario

    result = Scenario.from_file("experiment.json").run()

or, assembling programmatically::

    from repro.api import Horse, HorseConfig, TelemetryConfig, fat_tree

    horse = Horse(fat_tree(4), policies={...},
                  config=HorseConfig(telemetry=TelemetryConfig(profile=True)))
"""

from __future__ import annotations

from .core import Horse, RunResult
from .core.config import (
    CheckpointConfig,
    HorseConfig,
    HybridConfig,
    ShardConfig,
    TelemetryConfig,
    WireConfig,
)
from .errors import (
    CheckpointError,
    ExperimentError,
    HorseError,
    SimulationError,
    SweepError,
    TopologyError,
    TrafficError,
)
from .flowsim import Flow, FlowLevelEngine, FlowState
from .net import Host, IPv4Address, IPv4Network, MacAddress, Switch, Topology
from .net.generators import fat_tree, leaf_spine, linear, pods, single_switch
from .runtime.scenario import (
    build_config,
    build_horse,
    build_topology,
    build_traffic,
    run_scenario,
)
from .runtime.schema import (
    SCHEMA_VERSION,
    Scenario,
    validate_scenario,
)
from .runtime.sweep import SweepSpec, run_sweep
from .shard import MIN_QUANTUM_S, ShardPlan, partition_topology, run_sharded
from .sim import Simulator
from .telemetry import TraceBus
from .traffic import FlowGenerator, TrafficMatrix

__all__ = [
    # Simulation facade
    "Horse",
    "RunResult",
    "Simulator",
    # Configuration
    "HorseConfig",
    "HybridConfig",
    "WireConfig",
    "TelemetryConfig",
    "CheckpointConfig",
    "ShardConfig",
    # Scenario documents
    "SCHEMA_VERSION",
    "Scenario",
    "build_config",
    "build_horse",
    "build_topology",
    "build_traffic",
    "run_scenario",
    "validate_scenario",
    # Sharded parallel runtime
    "MIN_QUANTUM_S",
    "ShardPlan",
    "partition_topology",
    "run_sharded",
    # Sweeps
    "SweepSpec",
    "run_sweep",
    # Network model
    "Host",
    "Switch",
    "Topology",
    "IPv4Address",
    "IPv4Network",
    "MacAddress",
    "fat_tree",
    "leaf_spine",
    "linear",
    "pods",
    "single_switch",
    # Flows and traffic
    "Flow",
    "FlowState",
    "FlowLevelEngine",
    "FlowGenerator",
    "TrafficMatrix",
    # Telemetry
    "TraceBus",
    # Errors
    "HorseError",
    "CheckpointError",
    "ExperimentError",
    "SimulationError",
    "SweepError",
    "TopologyError",
    "TrafficError",
]
