"""Engine internals: rate bookkeeping, direction registry, messages.

These tests exercise machinery the scenario tests only touch
incidentally: rate accounting across the solver kernel's scalar /
vectorized switch, the engine's link-direction capacity cache, and the
control-message dataclasses.
"""

import pytest

from repro.flowsim import Flow, FlowLevelEngine, FlowState
from repro.flowsim.fairshare import VECTOR_COMPONENT_THRESHOLD
from repro.net import IPv4Address
from repro.net.generators import single_switch
from repro.openflow import ApplyActions, Match, Output, attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    GroupMod,
    MeterMod,
    PacketIn,
    next_xid,
)
from repro.sim import Simulator


def star_with_rules(num_hosts=4, capacity=1e9):
    topo = single_switch(num_hosts, capacity_bps=capacity)
    pipeline = attach_pipeline(topo.switch("s1"))
    for host in topo.hosts:
        out = topo.egress_port("s1", host.name)
        pipeline.install(
            Match(ip_dst=host.ip),
            (ApplyActions((Output(out.number),)),),
            priority=10,
        )
    return topo


def quick_flow(topo, src, dst, sport, size=10_000, start=0.0):
    s, d = topo.host(src), topo.host(dst)
    return Flow(
        headers=tcp_flow(s.ip, d.ip, sport, 80),
        src=src,
        dst=dst,
        demand_bps=100e6,
        size_bytes=size,
        start_time=start,
    )


class TestSlotMachinery:
    """Per-flow and per-direction solver bookkeeping in the engine."""

    def test_rates_survive_scalar_vector_boundary(self):
        """Crossing the 48-flow scalar/vectorized switch inside
        ``fairshare.solve_component`` must not corrupt rate bookkeeping."""
        assert VECTOR_COMPONENT_THRESHOLD == 48
        topo = star_with_rules(num_hosts=4, capacity=100e6)
        sim = Simulator()
        engine = FlowLevelEngine(sim, topo)
        # 60 concurrent flows sharing h2's link (one component on the
        # vectorized path), completing gradually into scalar territory.
        flows = [
            quick_flow(topo, "h1", "h2", sport=2000 + i, size=250_000)
            for i in range(60)
        ]
        engine.submit_all(flows)
        sim.run()
        engine.finish()
        assert all(f.state is FlowState.COMPLETED for f in flows)
        # Conservation: every byte accounted.
        total = sum(f.bytes_delivered for f in flows)
        assert total == pytest.approx(60 * 250_000, rel=1e-9)

    def test_direction_capacity_cache_matches_topology(self):
        topo = star_with_rules(capacity=123e6)
        sim = Simulator()
        engine = FlowLevelEngine(sim, topo)
        engine.submit(quick_flow(topo, "h1", "h2", sport=1000))
        sim.run()
        for direction, index in engine._dir_index.items():
            assert engine._dir_caps[index] == direction.capacity_bps


class TestMessages:
    def test_xids_are_unique_and_monotonic(self):
        a, b = next_xid(), next_xid()
        assert b == a + 1
        m1 = FlowMod(dpid=1)
        m2 = FlowMod(dpid=1)
        assert m2.xid > m1.xid

    def test_flowmod_normalizes_instructions_to_tuple(self):
        mod = FlowMod(
            dpid=1,
            command=FlowModCommand.ADD,
            instructions=[ApplyActions((Output(1),))],
        )
        assert isinstance(mod.instructions, tuple)

    def test_groupmod_and_metermod_normalize_sequences(self):
        from repro.openflow import Bucket, DropBand, GroupType

        gm = GroupMod(dpid=1, group_id=1, group_type=GroupType.ALL,
                      buckets=[Bucket((Output(1),))])
        assert isinstance(gm.buckets, tuple)
        mm = MeterMod(dpid=1, meter_id=1, bands=[DropBand(rate_bps=1.0)])
        assert isinstance(mm.bands, tuple)

    def test_packet_in_carries_flow_context(self):
        message = PacketIn(dpid=3, in_port=2, rate_bps=5e6, flow_id=42)
        assert message.flow_id == 42
        assert message.rate_bps == 5e6


class TestHeaderHelpers:
    def test_describe_renders_set_fields_only(self):
        hdr = tcp_flow(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 5, 80)
        text = hdr.describe()
        assert "ip_src=1.1.1.1" in text
        assert "tp_dst=80" in text
        assert "vlan" not in text
        from repro.openflow import HeaderFields

        assert HeaderFields().describe() == "(any)"

    def test_five_tuple(self):
        hdr = tcp_flow(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 5, 80)
        src, dst, proto, sport, dport = hdr.five_tuple()
        assert str(src) == "1.1.1.1"
        assert (sport, dport) == (5, 80)

    def test_with_fields_returns_new_instance(self):
        hdr = tcp_flow(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 5, 80)
        other = hdr.with_fields(tp_dst=443)
        assert other.tp_dst == 443
        assert hdr.tp_dst == 80


class TestErrorHierarchy:
    def test_all_errors_derive_from_horse_error(self):
        import inspect

        from repro import errors

        for name, cls in inspect.getmembers(errors, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == "repro.errors":
                assert issubclass(cls, errors.HorseError) or cls is errors.HorseError
