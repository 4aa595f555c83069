"""Statistics collection across a run.

:class:`RunStatsCollector` hooks the flow-level engine's observer list
(or samples the packet engine's flows after a run) and records flow
outcomes, completion times, throughputs, and per-link utilization
series — the data every benchmark and example reports from.

:class:`~repro.core.simulator.Horse` constructs one per run and exposes
it as ``horse.collector``; construct your own only for engine-less
analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..flowsim.flow import Flow, FlowState
from ..net.topology import Topology
from ..sim.kernel import Simulator
from .metrics import jain_fairness, summarize
from .timeseries import TimeSeries


class RunStatsCollector:
    """Record flow outcomes and link utilization.

    Use :meth:`attach_flow_engine` for live collection from the
    flow-level engine, and/or :meth:`sample_links` (e.g. on a periodic
    event) for utilization series; :meth:`harvest_flows` works for any
    engine after the run.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.flow_events: List[Tuple[float, str, int]] = []
        self.completed: List[Flow] = []
        self.link_utilization: Dict[Tuple[str, int], TimeSeries] = {}
        self._sim: Optional[Simulator] = None

    # ------------------------------------------------------------------
    # Live collection
    # ------------------------------------------------------------------
    def attach_flow_engine(self, engine) -> None:
        """Subscribe to a FlowLevelEngine's observer stream."""
        self._sim = engine.sim
        engine.observers.append(self._on_flow_event)

    def _on_flow_event(self, name: str, flow: Flow) -> None:
        time = self._sim.now if self._sim is not None else 0.0
        self.flow_events.append((time, name, flow.flow_id))
        if name == "completed":
            self.completed.append(flow)

    def enable_link_sampling(self, sim: Simulator, interval: float = 1.0) -> None:
        """Sample allocated utilization of every link periodically."""
        sim.every(interval, self._sample_tick)

    def _sample_tick(self, sim: Simulator, time: float) -> None:
        self.sample_links(time)

    def sample_links(self, time: float) -> None:
        """Record every direction's current allocated utilization."""
        for direction in self.topology.directions():
            key = (direction.src_port.node.name, direction.src_port.number)
            series = self.link_utilization.get(key)
            if series is None:
                series = TimeSeries(f"{key[0]}:{key[1]}")
                self.link_utilization[key] = series
            series.append(time, direction.utilization)

    # ------------------------------------------------------------------
    # Post-hoc harvesting (works with either engine)
    # ------------------------------------------------------------------
    def harvest_flows(self, flows) -> None:
        """Collect completed flows from an engine's flow map."""
        values = flows.values() if isinstance(flows, dict) else flows
        for flow in values:
            if flow.state is FlowState.COMPLETED and flow not in self.completed:
                self.completed.append(flow)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def fct_summary(self) -> dict:
        """Flow-completion-time summary for completed volume flows."""
        fcts = [
            f.flow_completion_time
            for f in self.completed
            if f.flow_completion_time is not None
        ]
        return summarize(fcts)

    def throughput_by_flow(self) -> Dict[int, float]:
        """Average goodput (bps) per completed flow."""
        out: Dict[int, float] = {}
        for flow in self.completed:
            fct = flow.flow_completion_time
            if fct and fct > 0:
                out[flow.flow_id] = flow.bytes_delivered * 8.0 / fct
        return out

    def fairness(self) -> float:
        """Jain's index over completed-flow throughputs."""
        return jain_fairness(list(self.throughput_by_flow().values()))

    def max_link_utilization(self) -> Dict[Tuple[str, int], float]:
        return {
            key: series.maximum()
            for key, series in self.link_utilization.items()
        }

    def mean_link_utilization(self) -> Dict[Tuple[str, int], float]:
        return {
            key: series.time_weighted_mean()
            for key, series in self.link_utilization.items()
        }
