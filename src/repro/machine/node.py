"""The workstation node model.

A :class:`Node` bundles the per-machine state: one CPU (a unit
:class:`~repro.sim.resources.Resource`), the local page store, the time
breakdown counters, and the network attachment.  Protocol layers (DSM,
threads, prefetching) hang their state off the node and charge CPU time
through :meth:`Node.occupy`.

CPU arbitration: message handlers acquire the CPU at higher priority
than application threads, approximating SIGIO-driven upcalls — an
arriving request is serviced as soon as the current compute quantum
yields.  Blocked threads never hold the CPU, so a node that is stalled
on a remote miss services incoming requests immediately (the "spinning"
case of the single-threaded DSM).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.machine.timing import CostModel
from repro.memory import PageStore
from repro.metrics.counters import Category, EventCounters, TimeBreakdown
from repro.network import Message, Network, ReliableTransport, TransportConfig
from repro.sim import Event, Resource, Simulator, spawn

__all__ = ["Node", "HANDLER_PRIORITY", "THREAD_PRIORITY"]

HANDLER_PRIORITY = 0
THREAD_PRIORITY = 1


class Node:
    """One simulated workstation."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        costs: CostModel,
        page_size: int,
        transport: TransportConfig,
        seed: int,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.costs = costs
        self.pages = PageStore(page_size)
        self.breakdown = TimeBreakdown()
        self.events = EventCounters()
        self.cpu = Resource(sim, capacity=1, name=f"cpu[{node_id}]")
        # The handler processes' name and cancellation group, built once
        # rather than per arriving message.
        self._group = f"node{node_id}"
        self._handler_name = f"handler[{node_id}]"
        #: Set by the scheduler: multithreaded nodes pay an extra signal
        #: cost per asynchronous message arrival.
        self.mt_mode = False
        self._dispatch: Optional[Callable[[Message], Generator]] = None
        #: Optional hook invoked synchronously for every message arriving
        #: at this node, before any handler runs.  The failure detector
        #: piggybacks on it: any delivered traffic proves the sender was
        #: recently alive, so explicit heartbeats only fill silences.
        self.message_observer: Optional[Callable[[Message], None]] = None
        #: The reliable transport: messages of a tracked kind are
        #: retransmitted on timeout, acked and deduplicated on receipt;
        #: ``seed`` (the run's) keys its timeout jitter.
        self.transport = ReliableTransport(self, transport, seed)
        network.attach(node_id, self._on_message)

    def reset_cpu(self) -> None:
        """Replace the CPU resource (crash rollback).

        Cancelled handlers/threads may have left acquisitions or queued
        waiters behind; a fresh resource discards them wholesale instead
        of unwinding the queue entry by entry.
        """
        self.cpu = Resource(self.sim, capacity=1, name=f"cpu[{self.node_id}]")

    # -- CPU charging -----------------------------------------------------

    def occupy(
        self, duration: float, category: Category, priority: int = THREAD_PRIORITY
    ) -> Generator[Event, Any, None]:
        """Hold the CPU for ``duration`` us, charged to ``category``.

        Usage: ``yield from node.occupy(30.0, Category.DSM)``.
        """
        if duration <= 0:
            return
        # Read per call (crash rollback swaps the resource); the release
        # below goes to the one that granted.  A free CPU is granted in
        # place; only contention allocates an acquire event, whose
        # priority lets handlers overtake queued threads.
        cpu = self.cpu
        if not cpu.try_acquire():
            yield cpu.acquire(priority)
        try:
            started = self.sim.now
            # A hold: one heap entry, no event object.  The kernel takes
            # floats only; callers may charge an int (``Compute(100)``).
            yield float(duration)
            # The charge and its slice, inline: ``charge`` is this pair's
            # twin for time that did not hold the CPU, and the hottest
            # function of a run does not pay a call to share it.
            self.breakdown.charge(category, duration)
            if self.sim.trace_on:
                tr = self.sim.trace
                # The start is captured *before* the hold, not derived
                # as ``now - duration``: float subtraction would not
                # round-trip, and the critical-path builder matches slice
                # boundaries against message timestamps bit-exactly.
                # ``_value_`` is the member's string without the
                # descriptor call ``Enum.value`` makes.
                tr.slice(started, duration, "cpu", category._value_, self.node_id)
        finally:
            cpu.release()

    def charge(self, category: Category, duration: float, started: float) -> None:
        """Charge ``duration`` us that began at ``started`` without holding
        the CPU (idle, checkpoint, recovery, downtime).

        One cpu slice per charge, here and in :meth:`occupy`: the
        PhaseTimeline audit rebuilds the TimeBreakdown from exactly
        these events.  A zero charge leaves no slice.
        """
        self.breakdown.charge(category, duration)
        if duration > 0 and self.sim.trace_on:
            self.sim.trace.slice(started, duration, "cpu", category._value_, self.node_id)

    # -- messaging ---------------------------------------------------------

    def set_message_handler(self, dispatch: Callable[[Message], Generator]) -> None:
        """Register the protocol dispatcher.

        ``dispatch(message)`` must be a generator; it runs as a process
        after the receive cost has been charged.
        """
        self._dispatch = dispatch

    def send_message(self, message: Message) -> Generator[Event, Any, bool]:
        """Charge the send cost, then inject the message into the network.

        A message of a tracked kind goes through the transport (which
        owns retransmission; the call returns once the first copy is in
        flight).  Returns whether the network accepted the datagram
        (False = dropped before the wire, meaningful only for untracked
        kinds).
        """
        yield from self.occupy(self.costs.msg_send_cpu, Category.DSM)
        if message.kind.is_tracked:
            return self.transport.send_tracked(message)
        return self.network.send(message)

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            # End-to-end checksum mismatch: discard before the liveness
            # observer or any protocol code sees the frame — a mangled
            # message is not evidence its sender is alive, and it is
            # never acked, so the reliable transport retransmits it.
            spawn(
                self.sim,
                self._discard_corrupt(message),
                name=f"checksum[{self.node_id}]",
                group=self._group,
            )
            return
        if self.message_observer is not None:
            self.message_observer(message)
        spawn(self.sim, self._handle(message), name=self._handler_name, group=self._group)

    def _charge_receive(self) -> Generator[Event, Any, None]:
        recv_cost = self.costs.msg_recv_cpu
        if self.mt_mode:
            recv_cost += self.costs.async_arrival_extra
        return self.occupy(recv_cost, Category.DSM, priority=HANDLER_PRIORITY)

    def _discard_corrupt(self, message: Message) -> Generator[Event, Any, None]:
        # The frame must be read to be checksummed: pay the receive cost.
        yield from self._charge_receive()
        self.events.corruption_detected += 1
        if self.sim.trace_on:
            tr = self.sim.trace
            tr.instant(
                self.sim.now,
                "network",
                "msg_checksum_fail",
                self.node_id,
                kind=message.kind.value,
                src=message.src,
            )

    def _handle(self, message: Message) -> Generator[Event, Any, None]:
        yield from self._charge_receive()
        deliver = yield from self.transport.on_receive(message)
        if not deliver or self._dispatch is None:
            return  # an ack, a suppressed duplicate, or no protocol attached
        yield from self._dispatch(message)
