"""Deterministic, seed-driven fault injection for the interconnect.

The paper's platform runs over *unreliable* UDP/AAL5 datagrams; the base
protocol survives loss only because a retransmitting transport sits
above the wire (Section 3).  This module supplies the loss:
:class:`FaultyNetwork` wraps the star interconnect and perturbs traffic
according to a :class:`FaultPlan` —

- probabilistic message **drop** (the datagram vanishes in the fabric);
- probabilistic **duplication** (a ghost copy follows the original);
- **reordering** via random injection jitter (a delayed message can be
  overtaken by later ones on the same uplink);
- timed **link-degradation windows**: a bandwidth cut and/or latency
  spike over an interval of simulated time, optionally scoped to nodes;
- timed **per-node stall windows**: a node's NIC goes quiet — nothing
  leaves it and nothing is delivered to it until the window ends;
- timed **link partitions**: a set of links (or everything crossing a
  node-group boundary) is severed — all traffic on it vanishes, with
  no random draw;
- timed **bit-corruption windows**: a transmission arrives with
  ``Message.corrupted`` set; the receiver's end-to-end checksum
  discards it before protocol code can apply it as a garbage diff, and
  the reliable transport retransmits.

Every decision draws from one named stream of the experiment's
:class:`~repro.sim.rng.RandomSource`, so a (seed, plan) pair replays
bit-for-bit.  Every injected fault is recorded in
:class:`~repro.network.stats.TrafficStats` by message kind.

No message is exempt: protocol messages arrive because
:class:`~repro.network.transport.ReliableTransport` retransmits them.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from repro.errors import FaultConfigError
from repro.network.link import LinkConfig
from repro.network.message import Message
from repro.network.network import Network
from repro.sim import RandomSource, Simulator

__all__ = [
    "LinkDegradation",
    "NodeStall",
    "NodeCrash",
    "LinkPartition",
    "BitCorruption",
    "FaultPlan",
    "FaultyNetwork",
]


def _check_window(what: str, start_us: float, end_us: float) -> None:
    if start_us < 0:
        raise FaultConfigError(f"{what}: start_us must be >= 0, got {start_us}")
    if end_us <= start_us:
        raise FaultConfigError(
            f"{what}: window must have end_us > start_us, got [{start_us}, {end_us}]"
        )


def _check_prob(what: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultConfigError(f"{what} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkDegradation:
    """A timed window during which affected traffic runs degraded.

    ``bandwidth_factor`` scales effective bandwidth (0.25 = quartered:
    every affected message pays 3x its serialization time extra);
    ``extra_latency_us`` is a flat added latency.  ``nodes`` scopes the
    window to messages touching those nodes (as source or destination);
    ``None`` degrades the whole fabric.
    """

    start_us: float
    end_us: float
    bandwidth_factor: float = 1.0
    extra_latency_us: float = 0.0
    nodes: Optional[frozenset[int]] = None

    def __post_init__(self) -> None:
        _check_window("degradation", self.start_us, self.end_us)
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultConfigError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.extra_latency_us < 0:
            raise FaultConfigError(
                f"extra_latency_us must be >= 0, got {self.extra_latency_us}"
            )
        if self.bandwidth_factor == 1.0 and self.extra_latency_us == 0.0:
            raise FaultConfigError("degradation window degrades nothing")
        if self.nodes is not None:
            object.__setattr__(self, "nodes", frozenset(self.nodes))
            if any(node < 0 for node in self.nodes):
                raise FaultConfigError(f"negative node id in degradation: {self.nodes}")

    def applies(self, message: Message, now: float) -> bool:
        if not self.start_us <= now < self.end_us:
            return False
        return self.nodes is None or message.src in self.nodes or message.dst in self.nodes

    def extra_delay_us(self, message: Message, config: LinkConfig) -> float:
        slowdown = 1.0 / self.bandwidth_factor - 1.0
        return self.extra_latency_us + config.serialization_us(message.size_bytes) * slowdown


@dataclass(frozen=True)
class NodeStall:
    """A timed window during which one node's NIC is unresponsive.

    Messages the node tries to send, and messages arriving for it, are
    held and released when the window ends (modelling a paused process
    or a swamped host, not packet loss).
    """

    node: int
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultConfigError(f"stall node id must be >= 0, got {self.node}")
        _check_window("stall", self.start_us, self.end_us)

    def hold_us(self, node: int, now: float) -> float:
        if node == self.node and self.start_us <= now < self.end_us:
            return self.end_us - now
        return 0.0


@dataclass(frozen=True)
class NodeCrash:
    """A scheduled crash-stop failure of one node.

    At ``at_us`` the node's links go silent, its in-flight simulation
    processes are cancelled, and its threads freeze.  Recovery (the
    :mod:`repro.ft` layer) later rolls the cluster back to the last
    coordinated checkpoint and resumes.  Node 0 cannot crash: it hosts
    the barrier manager and the failure-detection coordinator (the
    paper's platform has the same asymmetry — the manager workstation is
    the trusted base).
    """

    node: int
    at_us: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultConfigError(f"crash node id must be >= 0, got {self.node}")
        if self.at_us <= 0:
            raise FaultConfigError(f"crash time must be > 0, got {self.at_us}")


def _normalize_links(what: str, raw) -> frozenset[tuple[int, int]]:
    links = frozenset((int(src), int(dst)) for src, dst in raw)
    if not links:
        raise FaultConfigError(f"{what} must name at least one link")
    if any(src < 0 or dst < 0 for src, dst in links):
        raise FaultConfigError(f"negative node id in {what}: {sorted(links)}")
    if any(src == dst for src, dst in links):
        raise FaultConfigError(f"self-link in {what}: {sorted(links)}")
    return links


@dataclass(frozen=True)
class LinkPartition:
    """A timed window during which part of the fabric is unreachable.

    Scope is exactly one of:

    - ``nodes``: a group cut off from the rest of the cluster — every
      link *crossing* the group boundary is severed in both directions
      (a switch split); traffic within the group, and within the rest,
      still flows;
    - ``links``: an explicit set of severed directed ``(src, dst)``
      pairs (an asymmetric cable fault).

    Severed traffic vanishes without consuming a single random draw:
    partitions are window-deterministic, so adding one to a plan can
    never perturb the fault stream any other link sees.  The
    :mod:`repro.ft` layer is what must tell this apart from a crash:
    heartbeats stop exactly as if the peer died.
    """

    start_us: float
    end_us: float
    nodes: Optional[frozenset[int]] = None
    links: Optional[frozenset[tuple[int, int]]] = None

    def __post_init__(self) -> None:
        _check_window("partition", self.start_us, self.end_us)
        if (self.nodes is None) == (self.links is None):
            raise FaultConfigError(
                "partition: exactly one of nodes/links must be given"
            )
        if self.nodes is not None:
            nodes = frozenset(int(node) for node in self.nodes)
            if not nodes:
                raise FaultConfigError("partition nodes must name at least one node")
            if any(node < 0 for node in nodes):
                raise FaultConfigError(f"negative node id in partition nodes: {sorted(nodes)}")
            object.__setattr__(self, "nodes", nodes)
        if self.links is not None:
            object.__setattr__(
                self, "links", _normalize_links("partition links", self.links)
            )

    def severs(self, src: int, dst: int, now: float) -> bool:
        if not self.start_us <= now < self.end_us:
            return False
        if self.nodes is not None:
            return (src in self.nodes) != (dst in self.nodes)
        return (src, dst) in self.links

    def involves(self, node: int) -> bool:
        """Whether the partition cuts this node off from someone."""
        if self.nodes is not None:
            return node in self.nodes
        return any(node in pair for pair in self.links)


@dataclass(frozen=True)
class BitCorruption:
    """A timed window of per-transmission bit-flip probability.

    A corrupted transmission is still delivered — the fabric does not
    know it mangled the frame — but arrives with ``Message.corrupted``
    set.  The receiving node's end-to-end checksum discards it (after
    paying the receive CPU cost: the frame must be read to be checked)
    before any protocol code or liveness observer sees it, so a flipped
    bit can never be applied as a garbage diff nor count as evidence
    that the sender is alive.  The reliable transport retransmits the
    unacked frame; corruption costs latency, not correctness.

    ``links`` scopes the window to directed pairs; ``None`` corrupts
    the whole fabric.  Corruption draws come from the same per-link
    streams as loss, and are only consumed while a window covering the
    link is active — plans without corruption replay bit-for-bit
    against older versions of this module.
    """

    start_us: float
    end_us: float
    prob: float
    links: Optional[frozenset[tuple[int, int]]] = None

    def __post_init__(self) -> None:
        _check_window("corruption", self.start_us, self.end_us)
        if not 0.0 < self.prob <= 1.0:
            raise FaultConfigError(
                f"corruption prob must be in (0, 1], got {self.prob}"
            )
        if self.links is not None:
            object.__setattr__(
                self, "links", _normalize_links("corruption links", self.links)
            )

    def applies(self, src: int, dst: int, now: float) -> bool:
        if not self.start_us <= now < self.end_us:
            return False
        return self.links is None or (src, dst) in self.links


#: The plan's fault schedules: each field and the type of its entries.
_SCHEDULES = (
    ("degradations", LinkDegradation),
    ("stalls", NodeStall),
    ("crashes", NodeCrash),
    ("partitions", LinkPartition),
    ("corruptions", BitCorruption),
)


@dataclass(frozen=True)
class FaultPlan:
    """Everything the fault injector may do to traffic, in one place."""

    #: Per-message probability that a droppable datagram vanishes.
    drop_prob: float = 0.0
    #: Per-message probability that a ghost duplicate is also delivered.
    duplicate_prob: float = 0.0
    #: Per-message probability of injection jitter (enables reordering).
    reorder_prob: float = 0.0
    #: Jitter magnitude: delay drawn uniformly from [0, jitter_us].
    jitter_us: float = 0.0
    degradations: tuple[LinkDegradation, ...] = ()
    stalls: tuple[NodeStall, ...] = ()
    #: Crash-stop failures, executed by the repro.ft layer (the network
    #: only carries the schedule; a plan with crashes auto-enables FT).
    crashes: tuple[NodeCrash, ...] = ()
    #: Timed partitions severing links or node groups (auto-enables FT,
    #: like crashes: someone has to fence and rejoin the cut-off nodes).
    partitions: tuple[LinkPartition, ...] = ()
    #: Timed bit-corruption windows.
    corruptions: tuple[BitCorruption, ...] = ()
    #: Scope the probabilistic faults (drop/duplicate/reorder) to these
    #: directed ``(src, dst)`` links; ``None`` means fabric-wide.
    #: Out-of-scope traffic draws nothing from the fault streams.
    only_links: Optional[frozenset[tuple[int, int]]] = None

    def __post_init__(self) -> None:
        _check_prob("drop_prob", self.drop_prob)
        _check_prob("duplicate_prob", self.duplicate_prob)
        _check_prob("reorder_prob", self.reorder_prob)
        if self.jitter_us < 0:
            raise FaultConfigError(f"jitter_us must be >= 0, got {self.jitter_us}")
        if self.reorder_prob > 0 and self.jitter_us == 0:
            raise FaultConfigError("reorder_prob > 0 requires jitter_us > 0")
        if self.only_links is not None:
            object.__setattr__(self, "only_links", _normalize_links("only_links", self.only_links))
        for name, kind in _SCHEDULES:
            object.__setattr__(self, name, tuple(getattr(self, name)))
            for item in getattr(self, name):
                if not isinstance(item, kind):
                    raise FaultConfigError(f"not a {kind.__name__}: {item!r}")
        # A node that is both crashed and partitioned is ambiguous: the
        # detector cannot fence what is already dead, and recovery could
        # revive a node into a still-severed fabric.  The crash "window"
        # is [at_us, infinity) — the node stays down until recovery, so
        # any partition of that node reaching past the crash instant is
        # rejected.
        for crash in self.crashes:
            for part in self.partitions:
                if part.end_us > crash.at_us and part.involves(crash.node):
                    raise FaultConfigError(
                        f"crashes/partitions: node {crash.node} crashes at "
                        f"{crash.at_us} but a partition window "
                        f"[{part.start_us}, {part.end_us}) still involves it"
                    )

    @property
    def is_noop(self) -> bool:
        return (
            self.drop_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.reorder_prob == 0.0
            and not any(getattr(self, name) for name, _kind in _SCHEDULES)
        )

    def stall_hold_us(self, node: int, now: float) -> float:
        return max((stall.hold_us(node, now) for stall in self.stalls), default=0.0)

    def severed(self, src: int, dst: int, now: float) -> bool:
        return any(part.severs(src, dst, now) for part in self.partitions)

    def corruption_prob(self, src: int, dst: int, now: float) -> float:
        """Combined corruption probability on a directed link right now
        (overlapping windows flip bits independently)."""
        prob = 0.0
        for window in self.corruptions:
            if window.applies(src, dst, now):
                prob = 1.0 - (1.0 - prob) * (1.0 - window.prob)
        return prob

    def validate_topology(self, num_nodes: int) -> None:
        """Cross-check every node and link id against the cluster size.

        Plans are built before the cluster exists, so ``__post_init__``
        can only reject negative ids; the network calls this once it
        knows ``num_nodes``.
        """

        def check_node(what: str, node: int) -> None:
            if node >= num_nodes:
                raise FaultConfigError(
                    f"{what}: unknown node {node} "
                    f"(cluster has {num_nodes} nodes)"
                )

        def check_links(what: str, links) -> None:
            for src, dst in links:
                if src >= num_nodes or dst >= num_nodes:
                    raise FaultConfigError(
                        f"{what}: unknown link ({src}, {dst}) "
                        f"(cluster has {num_nodes} nodes)"
                    )

        if self.only_links is not None:
            check_links("only_links", self.only_links)
        for window in self.degradations:
            if window.nodes is not None:
                for node in window.nodes:
                    check_node("degradations.nodes", node)
        for stall in self.stalls:
            check_node("stalls.node", stall.node)
        for crash in self.crashes:
            check_node("crashes.node", crash.node)
        for part in self.partitions:
            if part.nodes is not None:
                for node in part.nodes:
                    check_node("partitions.nodes", node)
            if part.links is not None:
                check_links("partitions.links", part.links)
        for window in self.corruptions:
            if window.links is not None:
                check_links("corruptions.links", window.links)

    # -- serialization (chaos reproducers live on disk as JSON) ------------

    def to_dict(self) -> dict:
        return {item.name: _plain(getattr(self, item.name)) for item in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return _parse(cls, data)


def _plain(value):
    """A plan field as JSON: a schedule as a list of dicts, an id set
    sorted (a link as a ``[src, dst]`` list)."""
    if isinstance(value, tuple):
        return [
            {item.name: _plain(getattr(entry, item.name)) for item in fields(entry)}
            for entry in value
        ]
    if isinstance(value, frozenset):
        return sorted(list(item) if isinstance(item, tuple) else item for item in value)
    return value


def _parse(kind: type, data: dict):
    """:func:`_plain`'s inverse for a plan or one schedule entry: a field
    left out takes its default, a required one left out raises KeyError."""
    schedules = dict(_SCHEDULES)
    args = {}
    for item in fields(kind):
        name = item.name
        if name not in data and item.default is not MISSING:
            continue
        raw = data[name]
        if name in schedules:
            args[name] = tuple(_parse(schedules[name], entry) for entry in raw)
        elif raw is None:
            args[name] = None
        elif name == "node":
            args[name] = int(raw)
        elif name == "nodes":
            args[name] = frozenset(int(node) for node in raw)
        elif name.endswith("links"):
            args[name] = frozenset((int(src), int(dst)) for src, dst in raw)
        else:
            args[name] = float(raw)
    return kind(**args)


class FaultyNetwork(Network):
    """The star interconnect with a :class:`FaultPlan` applied to it.

    Faults act at the injection boundary (between the sender's NIC and
    its uplink) and at the delivery boundary (for destination stalls):

    - an injected *drop* consumes the message before the wire; the send
      returns False, so senders that watch the return value (the
      prefetch engine's ENOBUFS-style throttle) observe it, while
      fire-and-forget senders remain oblivious — the reliable transport
      recovers via its timeout either way;
    - a *duplicate* injects a ghost copy after the original;
    - *delay*, *degrade* and *stall* faults postpone injection (or, for
      a stalled destination, delivery) without loss.
    """

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        plan: FaultPlan,
        rng: RandomSource,
        link_config: Optional[LinkConfig] = None,
        switch_latency_us: float = 10.0,
    ) -> None:
        if not isinstance(plan, FaultPlan):
            raise FaultConfigError(f"not a FaultPlan: {plan!r}")
        plan.validate_topology(num_nodes)
        super().__init__(sim, num_nodes, link_config=link_config, switch_latency_us=switch_latency_us)
        self.plan = plan
        # Fault decisions draw from a *per-directed-link* stream so one
        # link's traffic volume cannot shift the draws another link
        # sees: each (src, dst) pair lazily gets its own named stream,
        # looked up by name once.
        self._link_rng = functools.cache(
            lambda src, dst: rng.stream(f"network.faults[{src}->{dst}]")
        )

    # -- send path ---------------------------------------------------------

    def send(self, message: Message) -> bool:
        self._check_destination(message)
        message.incarnation = self.incarnation
        plan = self.plan
        now = self.sim.now
        if plan.partitions and plan.severed(message.src, message.dst, now):
            # A severed link consumes no random draw: the fate of other
            # links' traffic (and of this link's traffic outside the
            # window) is byte-identical with and without the partition.
            self.stats.record_injected("partition", message)
            self._drop(message, "partition")
            return False
        in_scope = plan.only_links is None or (message.src, message.dst) in plan.only_links
        rng = self._link_rng(message.src, message.dst) if in_scope else None
        if in_scope and plan.drop_prob > 0 and rng.random() < plan.drop_prob:
            self.stats.record_injected("drop", message)
            self._drop(message, "fault")
            return False
        delay = 0.0
        if in_scope and plan.reorder_prob > 0 and rng.random() < plan.reorder_prob:
            jitter = float(rng.uniform(0.0, plan.jitter_us))
            if jitter > 0:
                self.stats.record_injected("delay", message)
                delay += jitter
        for window in plan.degradations:
            if window.applies(message, now):
                self.stats.record_injected("degrade", message)
                delay += window.extra_delay_us(message, self.link_config)
        hold = plan.stall_hold_us(message.src, now)
        if hold > 0:
            self.stats.record_injected("stall", message)
            delay += hold
        if in_scope and plan.corruptions:
            # Draw only while a window covers this link, so plans
            # without corruption consume the same stream positions as
            # before this fault type existed.
            prob = plan.corruption_prob(message.src, message.dst, now)
            if prob > 0 and rng.random() < prob:
                message.corrupted = True
                self._inject_fault("corrupt", message)
        if in_scope and plan.duplicate_prob > 0 and rng.random() < plan.duplicate_prob:
            self._inject_fault("duplicate", message)
            ghost_delay = delay + float(rng.uniform(0.0, max(plan.jitter_us, 1.0)))
            self.sim.schedule(ghost_delay, self._inject, message.clone())
        if delay > 0:
            self.sim.schedule(delay, self._inject_delayed, message, now)
            return True  # fate decided later; injection faults are not drops
        return self._inject(message)

    def _inject_fault(self, fault: str, message: Message) -> None:
        """Count a fault that leaves the datagram on the wire (``corrupt``,
        ``duplicate``) and trace it as ``msg_<fault>``."""
        self.stats.record_injected(fault, message)
        if self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now,
                "network",
                f"msg_{fault}",
                message.src,
                kind=message.kind.value,
                dst=message.dst,
            )

    def _inject_delayed(self, message: Message, sent_at: float) -> None:
        """Inject a fault-delayed message, backdating ``sent_at`` to the
        original send call so the injected delay shows up as latency."""
        self._inject(message)
        message.sent_at = sent_at

    # -- delivery path -----------------------------------------------------

    def _deliver(self, message: Message) -> None:
        hold = self.plan.stall_hold_us(message.dst, self.sim.now)
        if hold > 0:
            self.stats.record_injected("stall", message)
            self.sim.schedule(hold, super()._deliver, message)
            return
        super()._deliver(message)
