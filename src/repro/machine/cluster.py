"""Cluster assembly: N nodes on one switch.

The cluster also owns the robustness wiring: with a
:class:`~repro.network.faults.FaultPlan` the interconnect is built as a
:class:`~repro.network.faults.FaultyNetwork` (seed-driven loss,
duplication, reordering, degradation and stall windows), and every node
runs a :class:`~repro.network.transport.ReliableTransport` (the timer
policy its :class:`~repro.network.transport.TransportConfig` names) so
protocol traffic survives whatever the plan and the queues drop.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.machine.node import Node
from repro.machine.timing import CostModel
from repro.network import (
    FaultPlan,
    FaultyNetwork,
    LinkConfig,
    Network,
    ReliableTransport,
    TransportConfig,
)
from repro.network.message import restart_message_ids
from repro.sim import RandomSource, Simulator
from repro.trace.tracer import Tracer

__all__ = ["Cluster"]


class Cluster:
    """The simulated testbed: nodes, network, shared constants."""

    def __init__(
        self,
        num_nodes: int = 8,
        page_size: int = 4096,
        costs: Optional[CostModel] = None,
        link_config: Optional[LinkConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        transport: TransportConfig = TransportConfig(),
        rng: Optional[RandomSource] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if num_nodes < 2:
            raise ConfigError(f"a cluster needs >= 2 nodes, got {num_nodes}")
        if page_size <= 0 or page_size % 8:
            raise ConfigError(f"page size must be a positive multiple of 8, got {page_size}")
        self.sim = Simulator()
        restart_message_ids()
        if tracer is not None:
            self.sim.trace = tracer
        self.num_nodes = num_nodes
        self.page_size = page_size
        self.costs = costs or CostModel()
        self.random = rng or RandomSource(0)
        self.fault_plan = fault_plan
        if fault_plan is not None:
            self.network: Network = FaultyNetwork(
                self.sim,
                num_nodes,
                fault_plan,
                self.random,
                link_config=link_config,
            )
        else:
            self.network = Network(self.sim, num_nodes, link_config=link_config)
        self.nodes: list[Node] = [
            Node(self.sim, node_id, self.network, self.costs, page_size, transport, self.random.seed)
            for node_id in range(num_nodes)
        ]
        self.transports: list[ReliableTransport] = [node.transport for node in self.nodes]

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < self.num_nodes:
            raise ConfigError(f"unknown node {node_id}")
        return self.nodes[node_id]

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the simulation; returns final simulated time (us)."""
        return self.sim.run(until=until, max_events=max_events)
