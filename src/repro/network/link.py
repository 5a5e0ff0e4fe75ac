"""Point-to-point link model with serialization delay and finite queue.

A link transmits one message at a time at a fixed bandwidth.  Messages
queue FIFO behind the transmitter.  The queue is finite in *bytes*; when
it is full, an arriving message is dropped (the ATM switch has no
retransmission; the reliable transport above it retransmits whatever the
DSM protocol needs to arrive).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.errors import NetworkError
from repro.network.message import Message
from repro.sim import Simulator

__all__ = ["LinkConfig", "Link"]

ATM_CELL_PAYLOAD = 48
ATM_CELL_SIZE = 53


class LinkConfig:
    """Physical parameters of a link.

    Defaults model the paper's 155 Mbps OC-3 ATM fabric: AAL5/UDP/IP
    framing (~60 bytes per datagram) plus 53/48 cell expansion.
    """

    def __init__(
        self,
        bandwidth_mbps: float = 155.0,
        propagation_us: float = 1.0,
        header_bytes: int = 60,
        # The ASX-200 class switch buffers ~13K cells; a 256 KB port
        # queue is the per-port share of that.
        queue_capacity_bytes: int = 256 * 1024,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_mbps}")
        if queue_capacity_bytes <= 0:
            raise NetworkError("queue capacity must be positive")
        if propagation_us < 0:
            raise NetworkError(f"propagation delay must be >= 0, got {propagation_us}")
        if header_bytes < 0:
            raise NetworkError(f"header bytes must be >= 0, got {header_bytes}")
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_us = propagation_us
        self.header_bytes = header_bytes
        self.queue_capacity_bytes = queue_capacity_bytes

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes actually occupying the wire, including framing."""
        datagram = payload_bytes + self.header_bytes
        cells = math.ceil(datagram / ATM_CELL_PAYLOAD)
        return cells * ATM_CELL_SIZE

    def serialization_us(self, payload_bytes: int) -> float:
        """Time to clock the message onto the wire, in microseconds."""
        bits = self.wire_bytes(payload_bytes) * 8
        return bits / self.bandwidth_mbps  # Mbps == bits per microsecond


def _settled(name: str) -> property:
    """A ``Link`` counter, read after booking the departures due by now."""

    def read(link: "Link"):
        link._settle()
        return getattr(link, name)

    return property(read)


class Link:
    """One simplex link: FIFO queue + transmitter + propagation delay.

    An output-queued FIFO with the wire to itself: a message's departure
    is known the moment it is accepted (``max(now, busy_until) +
    serialization``), so ``send`` computes it and schedules the one
    delivery.  Queue occupancy and the statistics are settled lazily
    from a deque of pending departures.
    """

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        sink: Callable[[Message], None],
        name: str = "",
        sink_latency_us: float = 0.0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.sink = sink
        self.name = name
        #: Fixed latency between the far end of the wire and ``sink`` (an
        #: uplink's one delivery event carries the switch's forwarding delay).
        self.sink_latency_us = sink_latency_us
        self._busy_until = 0.0
        #: Accepted, not yet departed: (depart_time, wire_bytes, serialization).
        self._pending: deque[tuple[float, int, float]] = deque()
        self._queued_bytes = 0
        self._messages_sent = 0
        self._bytes_sent = 0
        self._busy_time = 0.0
        self.messages_dropped = 0

    def _settle(self) -> None:
        """Book every departure up to and including the current time."""
        pending = self._pending
        now = self.sim.now
        while pending and pending[0][0] <= now:
            _depart, wire, serialization = pending.popleft()
            self._queued_bytes -= wire
            self._messages_sent += 1
            self._bytes_sent += wire
            self._busy_time += serialization

    queued_bytes = _settled("_queued_bytes")
    messages_sent = _settled("_messages_sent")
    bytes_sent = _settled("_bytes_sent")
    busy_time = _settled("_busy_time")

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def send(self, message: Message) -> bool:
        """Enqueue a message; returns False if it was dropped.

        A message is dropped when the queue (plus the message itself)
        would exceed capacity.
        """
        config = self.config
        wire = config.wire_bytes(message.size_bytes)
        now = self.sim.now
        if self._pending:
            self._settle()
        if self._queued_bytes + wire > config.queue_capacity_bytes:
            self.messages_dropped += 1
            return False
        serialization = wire * 8 / config.bandwidth_mbps  # = config.serialization_us(size)
        # The same float additions, in the same order, as a transmitter
        # that slept ``serialization`` and then scheduled the delivery.
        busy_until = self._busy_until
        depart = (busy_until if busy_until > now else now) + serialization
        self._busy_until = depart
        self._queued_bytes += wire
        self._pending.append((depart, wire, serialization))
        self.sim.schedule_at(
            (depart + config.propagation_us) + self.sink_latency_us, self.sink, message
        )
        return True
