#!/usr/bin/env python3
"""An SDN IXP fabric with a route server and selective peering.

This is the poster's motivating scenario: a peering fabric of member
ASes whose traffic is shaped by route-server export policies.  We build
a 32-member IXP, have one member stop exporting routes to another
(selective peering), replay a gravity traffic matrix, and show that the
fabric statistics reflect the policy.

Run:  python examples/ixp_peering_fabric.py
"""

from repro import Horse, HorseConfig
from repro.ixp import ExportPolicy, build_ixp
from repro.sim.rng import RngRegistry
from repro.traffic import FlowGenConfig, IxpTraceSynthesizer


def main() -> None:
    # 1. Build the fabric: 32 members on an edge/core peering LAN.
    fabric = build_ixp(32, seed=11)
    print("fabric:", fabric.summary())

    # 2. Route-server policy: the biggest member (a content network,
    #    say) stops exporting routes to member #5 — traffic from #5 to
    #    it must vanish from the matrix.
    big = fabric.members[0]
    shunned = fabric.members[5]
    fabric.route_server.set_export_policy(
        big.asn, ExportPolicy("block", {shunned.asn})
    )
    print(
        f"AS{big.asn} no longer exports routes to AS{shunned.asn} "
        "(selective peering via the route server)"
    )

    # 3. Synthesize one hour-equivalent of peak traffic honouring the
    #    peering matrix.
    synth = IxpTraceSynthesizer(
        fabric,
        peak_total_bps=20e9,
        flow_config=FlowGenConfig(mean_flow_bytes=2e6, min_demand_bps=20e6),
    )
    rng = RngRegistry(11).stream("example")
    flows = synth.steady_flows(rng, duration_s=3.0, load_fraction=0.5)
    print(f"replaying {len(flows)} flows over the fabric")

    # 4. Forward with ECMP across the core; sample link utilization.
    horse = Horse(
        fabric.topology,
        policies={"load_balancing": {"mode": "ecmp", "match_on": "ip_dst"}},
        config=HorseConfig(telemetry={"link_sample_interval_s": 0.5}),
    )
    horse.submit_flows(flows)
    result = horse.run(until=60.0)

    # 5. Report.
    print(
        f"simulated {result.sim_time_s:.0f}s in {result.wall_time_s:.2f}s wall; "
        f"{result.row()['completed']} flows completed, "
        f"aggregate goodput {result.goodput_bps() / 1e9:.2f} Gb/s"
    )
    blocked_pair = [
        f for f in flows if f.src == shunned.host_name and f.dst == big.host_name
    ]
    print(
        f"flows from AS{shunned.asn} to AS{big.asn}: {len(blocked_pair)} "
        "(peering matrix removed the pair)"
    )
    assert not blocked_pair
    hottest = max(result.link_max_utilization.items(), key=lambda kv: kv[1])
    print(f"hottest egress: {hottest[0]} at {hottest[1]:.0%} utilization")


if __name__ == "__main__":
    main()
