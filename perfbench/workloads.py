"""Seeded workload definitions for the repository benchmark.

Each workload is a list of independent *episodes*.  An episode is one
complete simulation: its own topology or fabric, its own traffic and
its own :class:`repro.Horse`, all drawn from an episode seed that is
derived from the run seed.  The cost per flow of a single simulation
depends strongly on which member kinds, pairs and flow sizes its seed
draws (a 22-32% coefficient of variation between seeds), so a run
averages over ``episodes`` of them; see ``README.md``.

Only public ``repro`` entry points are used, and every set-up phase is
timed on its own so the per-layer set-up metrics sum to ``setup_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import FlowGenConfig, FlowGenerator, Horse, HorseConfig, TrafficMatrix
from repro.control.policy.compiler import compile_policies
from repro.ixp import build_ixp, synthesize_members
from repro.net.generators import tree
from repro.runtime import reset_id_counters
from repro.sim import RngRegistry, spawn_seed
from repro.traffic import IxpTraceSynthesizer

#: The seed the pinned references in ``reference/`` belong to.
DEFAULT_SEED = 1

#: Rate cap of the rate-limited pair in the ``ixp_replay`` policy stack.
IXP_RATE_LIMIT_BPS = 50e6


@dataclass
class Episode:
    """One simulation, ready to run."""

    horse: Horse
    flows: list
    until: float
    #: Host names the workload's correctness checks refer to.
    roles: Dict[str, str] = field(default_factory=dict)


class PhaseTimer:
    """Accumulates host seconds per named set-up phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def time(self, name: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        return value


# ----------------------------------------------------------------------
# ixp_replay: the paper's headline experiment
# ----------------------------------------------------------------------
IXP_MEMBERS = 32
IXP_REPLAY_S = 0.25


def _ixp_replay(seed: int, timer: PhaseTimer) -> Episode:
    fabric = timer.time("ixp.build_s", build_ixp, IXP_MEMBERS, seed=seed)

    def traffic():
        synth = IxpTraceSynthesizer(
            fabric,
            peak_total_bps=400e6 * IXP_MEMBERS,
            flow_config=FlowGenConfig(
                mean_flow_bytes=2e6, demand_factor=4.0, min_demand_bps=20e6
            ),
        )
        rng = RngRegistry(seed).stream("traffic")
        return synth.steady_flows(rng, duration_s=IXP_REPLAY_S, load_fraction=0.5)

    flows = timer.time("traffic.generate_s", traffic)
    members = fabric.members
    roles = {
        "victim": members[1].host_name,
        "limited_src": members[4].host_name,
        "limited_dst": members[3].host_name,
    }
    # The E4 "combined" stack: ECMP, a rate limit, RTBH and app peering.
    policies = {
        "load_balancing": {"mode": "ecmp", "match_on": "ip_dst"},
        "rate_limiting": [
            {
                "src": roles["limited_src"],
                "dst": roles["limited_dst"],
                "rate": f"{IXP_RATE_LIMIT_BPS / 1e6:g} Mbps",
            }
        ],
        "blackholing": [{"target": roles["victim"]}],
        "application_peering": [
            {"src": members[6].host_name, "dst": members[2].host_name, "app": "http"}
        ],
    }
    compiled = timer.time(
        "policy.compile_s", compile_policies, fabric.topology, policies
    )
    config = HorseConfig(
        seed=seed, telemetry={"link_sample_interval_s": IXP_REPLAY_S / 10}
    )
    horse = timer.time("core.init_s", Horse, fabric.topology, compiled, config)
    timer.time("core.submit_s", horse.submit_flows, flows)
    return Episode(horse, flows, IXP_REPLAY_S, roles)


# ----------------------------------------------------------------------
# reactive_learning: the E8 control-latency regime, cold controller
# ----------------------------------------------------------------------
REACTIVE_HORIZON_S = 0.01
REACTIVE_OFFERED_BPS = 960e6


def _reactive_learning(seed: int, timer: PhaseTimer) -> Episode:
    topology = timer.time("net.build_s", tree, 2, 4)

    def traffic():
        generator = FlowGenerator(
            topology,
            RngRegistry(seed).stream("traffic"),
            config=FlowGenConfig(mean_flow_bytes=50e3),
        )
        hosts = [host.name for host in topology.hosts]
        matrix = TrafficMatrix.uniform(hosts, REACTIVE_OFFERED_BPS)
        return generator.from_matrix(matrix, horizon_s=REACTIVE_HORIZON_S)

    flows = timer.time("traffic.generate_s", traffic)
    compiled = timer.time(
        "policy.compile_s", compile_policies, topology, {"forwarding": "learning"}
    )
    config = HorseConfig(
        seed=seed,
        control_latency_s=0.001,
        telemetry={
            # Four port-stats polls and ten link samples per episode.
            "monitor_interval_s": REACTIVE_HORIZON_S / 4,
            "link_sample_interval_s": REACTIVE_HORIZON_S / 10,
        },
    )
    horse = timer.time("core.init_s", Horse, topology, compiled, config)
    timer.time("core.submit_s", horse.submit_flows, flows)
    return Episode(horse, flows, REACTIVE_HORIZON_S)


# ----------------------------------------------------------------------
# hybrid_packets: RTMP streams as packets inside a fluid background
# ----------------------------------------------------------------------
HYBRID_MEMBERS = 16
HYBRID_REPLAY_S = 0.05


def _hybrid_packets(seed: int, timer: PhaseTimer) -> Episode:
    def fabric_build():
        members = synthesize_members(
            HYBRID_MEMBERS, RngRegistry(seed).stream("members")
        )
        # Uniform 1G ports bound every stream's packet rate, so the
        # packet count per flow does not hinge on a few 100G members.
        for member in members:
            member.port_bps = 1e9
        return build_ixp(HYBRID_MEMBERS, members=members, seed=seed)

    fabric = timer.time("ixp.build_s", fabric_build)

    def traffic():
        # Constant-bit-rate streams of at most 50 Mb/s: the packet
        # foreground is many bounded streams, not one line-rate elephant.
        synth = IxpTraceSynthesizer(
            fabric,
            peak_total_bps=400e6 * HYBRID_MEMBERS,
            flow_config=FlowGenConfig(
                mean_flow_bytes=200e3,
                demand_factor=4.0,
                min_demand_bps=20e6,
                max_demand_bps=50e6,
                udp_fraction=1.0,
            ),
        )
        rng = RngRegistry(seed).stream("traffic")
        return synth.steady_flows(
            rng, duration_s=HYBRID_REPLAY_S, load_fraction=0.5
        )

    flows = timer.time("traffic.generate_s", traffic)
    compiled = timer.time(
        "policy.compile_s",
        compile_policies,
        fabric.topology,
        {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    )
    config = HorseConfig(
        seed=seed,
        engine="hybrid",
        hybrid={"select": "match:tp_dst=1935"},
        telemetry={"link_sample_interval_s": HYBRID_REPLAY_S / 10},
    )
    horse = timer.time("core.init_s", Horse, fabric.topology, compiled, config)
    timer.time("core.submit_s", horse.submit_flows, flows)
    return Episode(horse, flows, HYBRID_REPLAY_S)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, PhaseTimer], Episode]
    episodes: int

    def episode_seeds(self, seed: int) -> List[int]:
        return [spawn_seed(seed, self.name, k) for k in range(self.episodes)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ixp_replay", _ixp_replay, episodes=96),
        Workload("reactive_learning", _reactive_learning, episodes=112),
        Workload("hybrid_packets", _hybrid_packets, episodes=96),
    )
}


def build_episode(workload: Workload, seed: int, timer: PhaseTimer) -> Episode:
    """Set up one episode from its seed; id counters restart per episode
    so flow ids, and with them the pinned reference, depend only on the
    episode seed."""
    reset_id_counters()
    return workload.build(seed, timer)
