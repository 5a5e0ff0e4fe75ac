"""The cluster interconnect facade.

``Network`` wires ``num_nodes`` uplinks into a :class:`Switch` and
delivers messages to per-node handler callbacks.  This is the only
networking API the rest of the library uses::

    net = Network(sim, num_nodes=8)
    net.attach(0, handler_fn)          # handler_fn(Message) -> None
    net.send(Message(src=0, dst=1, ...))
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.network.link import Link, LinkConfig
from repro.network.message import Message
from repro.network.stats import TrafficStats
from repro.network.switch import Switch
from repro.sim import Simulator

__all__ = ["Network"]


class Network:
    """Star-topology interconnect: node uplinks -> switch -> downlinks."""

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        link_config: Optional[LinkConfig] = None,
        switch_latency_us: float = 10.0,
    ) -> None:
        if num_nodes < 2:
            raise NetworkError(f"a network needs >= 2 nodes, got {num_nodes}")
        self.sim = sim
        self.num_nodes = num_nodes
        self.link_config = link_config or LinkConfig()
        self.stats = TrafficStats()
        self._handlers: dict[int, Callable[[Message], None]] = {}
        #: Cluster incarnation: bumped by crash recovery.  Messages are
        #: stamped at send time; deliveries from an older incarnation
        #: (in-flight traffic of a rolled-back execution) are dropped.
        self.incarnation = 0
        #: Nodes currently crashed: their links are silent both ways.
        self._down: set[int] = set()
        #: Nodes currently fenced by the membership layer: suspected
        #: (e.g. partitioned) but not declared dead.  Data-plane traffic
        #: touching a fenced node is dropped — its writes must not leak
        #: into the cluster, nor the cluster's into it — while control
        #: traffic (acks, heartbeats, membership) still flows, so the
        #: node can prove it healed and rejoin without a full rollback.
        self._fenced: set[int] = set()
        self.switch = Switch(
            sim,
            num_nodes,
            self.link_config,
            self._deliver,
            latency_us=switch_latency_us,
            on_drop=self._on_switch_drop,
        )
        self.uplinks: list[Link] = [
            Link(sim, self.link_config, self.switch.forward, f"up[{node}]", switch_latency_us)
            for node in range(num_nodes)
        ]

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery callback for ``node_id``."""
        if not 0 <= node_id < self.num_nodes:
            raise NetworkError(f"unknown node {node_id}")
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} already attached")
        self._handlers[node_id] = handler

    def send(self, message: Message) -> bool:
        """Inject a message at its source uplink.

        Returns False if the message was dropped before reaching the
        wire (uplink queue full, or an injected fault — possible only
        for droppable messages).  A drop at the switch downlink is
        recorded in stats but not reported to the sender — exactly like
        a real datagram network.
        """
        self._check_destination(message)
        message.incarnation = self.incarnation
        return self._inject(message)

    # -- node up/down state ------------------------------------------------

    def mark_down(self, node_id: int) -> None:
        """Silence a node's links in both directions (crash-stop)."""
        if not 0 <= node_id < self.num_nodes:
            raise NetworkError(f"unknown node {node_id}")
        self._down.add(node_id)

    def mark_up(self, node_id: int) -> None:
        self._down.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def fence_node(self, node_id: int) -> None:
        """Reject a suspect's data-plane traffic, keep its control plane."""
        if not 0 <= node_id < self.num_nodes:
            raise NetworkError(f"unknown node {node_id}")
        self._fenced.add(node_id)

    def unfence_node(self, node_id: int) -> None:
        self._fenced.discard(node_id)

    def is_fenced(self, node_id: int) -> bool:
        return node_id in self._fenced

    def _check_destination(self, message: Message) -> None:
        if message.dst not in self._handlers:
            raise NetworkError(f"destination node {message.dst} not attached")

    def _inject(self, message: Message) -> bool:
        """Hand the message to its source uplink, with send accounting.

        A message counts as *sent* only once the uplink accepts it; an
        uplink-queue drop is recorded as a drop, not a send.
        """
        message.sent_at = self.sim.now
        accepted = self.uplinks[message.src].send(message)
        if accepted:
            self.stats.record_send(message)
            if self.sim.trace_on:
                tr = self.sim.trace
                # In-flight span, closed at delivery; a dropped message
                # leaves an unterminated async slice (by design).
                tr.async_begin(
                    self.sim.now,
                    "network",
                    f"msg:{message.kind._value_}",
                    message.src,
                    f"m{message.msg_id}",
                    dst=message.dst,
                    bytes=message.size_bytes,
                    seq=message.seq,
                )
        else:
            self._drop(message, "uplink")
        return accepted

    def _drop(self, message: Message, at: str, **span) -> None:
        """The one reporter of a lost datagram, wherever the fabric lost
        it: the drop counter and the ``msg_drop`` instant.  ``span``
        carries ``msg=`` when the in-flight span had opened (the drop
        leaves it unterminated)."""
        self.stats.record_drop(message)
        if self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now,
                "network",
                "msg_drop",
                message.src,
                kind=message.kind.value,
                dst=message.dst,
                at=at,
                **span,
            )

    def _on_switch_drop(self, message: Message) -> None:
        self._drop(message, "switch", msg=f"m{message.msg_id}")

    def _deliver(self, message: Message) -> None:
        fenced = (
            message.src in self._fenced or message.dst in self._fenced
        ) and not message.kind.is_control
        if (
            message.incarnation != self.incarnation
            or message.src in self._down
            or message.dst in self._down
            or fenced
        ):
            # Traffic from a rolled-back incarnation, touching a crashed
            # node, or data-plane traffic touching a fenced suspect: the
            # wire eats it silently (for fenced nodes the transport keeps
            # retrying until the membership layer resolves the suspicion).
            if message.incarnation != self.incarnation:
                reason = "stale"
            elif fenced:
                reason = "fenced"
            else:
                reason = "down"
            self._drop(message, reason, msg=f"m{message.msg_id}")
            return
        message.delivered_at = self.sim.now
        self.stats.record_delivery(message)
        if self.sim.trace_on:
            tr = self.sim.trace
            tr.async_end(
                self.sim.now,
                "network",
                f"msg:{message.kind._value_}",
                message.dst,
                f"m{message.msg_id}",
                src=message.src,
                # Redundant with the matching async b, but lets the PAG
                # reconstruct the wire edge even when a truncated trace
                # dropped the begin event (the validator flags that).
                sent_at=message.sent_at,
            )
        self._handlers[message.dst](message)

    # -- inspection --------------------------------------------------------

    def dropped_at_switch(self) -> int:
        return self.switch.dropped

    def total_drops(self) -> int:
        """All drops (uplink + switch downlink); stats records both."""
        return self.stats.total_drops
