"""Unit tests for the link model: serialization, queueing, drops."""

import random
from collections import deque

import pytest

from repro.errors import NetworkError
from repro.network import LinkConfig, Message, MessageKind
from repro.network.link import ATM_CELL_PAYLOAD, ATM_CELL_SIZE, Link
from repro.sim import Simulator, spawn


def make_msg(size, tracked=True):
    kind = MessageKind.DIFF_REQUEST if tracked else MessageKind.PREFETCH_REQUEST
    return Message(src=0, dst=1, kind=kind, size_bytes=size)


def test_wire_bytes_accounts_for_headers_and_cells():
    cfg = LinkConfig(header_bytes=60)
    # 4 bytes payload + 60 header = 64 -> 2 cells -> 106 wire bytes
    assert cfg.wire_bytes(4) == 2 * ATM_CELL_SIZE
    # exactly one cell payload
    assert cfg.wire_bytes(ATM_CELL_PAYLOAD - 60) if ATM_CELL_PAYLOAD > 60 else True


def test_serialization_time_matches_bandwidth():
    cfg = LinkConfig(bandwidth_mbps=155.0, header_bytes=60)
    payload = 4096
    expected_us = cfg.wire_bytes(payload) * 8 / 155.0
    assert cfg.serialization_us(payload) == pytest.approx(expected_us)
    # A 4KB page takes on the order of 200+ microseconds at OC-3 rates.
    assert 150 < cfg.serialization_us(payload) < 400


def test_invalid_configs_rejected():
    with pytest.raises(NetworkError):
        LinkConfig(bandwidth_mbps=0)
    with pytest.raises(NetworkError):
        LinkConfig(queue_capacity_bytes=0)


def test_link_delivers_after_serialization_and_propagation():
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=2.0, header_bytes=0)
    delivered = []
    link = Link(sim, cfg, lambda m: delivered.append((m, sim.now)))
    msg = make_msg(100)
    assert link.send(msg)
    sim.run()
    wire_us = cfg.wire_bytes(100) * 8 / 100.0
    assert delivered[0][1] == pytest.approx(wire_us + 2.0)


def test_link_serializes_back_to_back_messages():
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=0.0, header_bytes=0)
    times = []
    link = Link(sim, cfg, lambda m: times.append(sim.now))
    for _ in range(3):
        link.send(make_msg(1000))
    sim.run()
    per_msg = cfg.serialization_us(1000)
    assert times == pytest.approx([per_msg, 2 * per_msg, 3 * per_msg])


def test_unreliable_dropped_when_queue_full():
    sim = Simulator()
    cfg = LinkConfig(queue_capacity_bytes=1000, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    # Fill the queue with one large message.
    assert link.send(make_msg(800))
    assert not link.send(make_msg(500, tracked=False))
    assert link.messages_dropped == 1


def test_tracked_kinds_drop_when_full_too():
    """The link knows no kind: a full queue drops a diff request as it
    drops a prefetch (the transport above retransmits the former)."""
    sim = Simulator()
    cfg = LinkConfig(queue_capacity_bytes=1000, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    accepted = [link.send(make_msg(800)) for _ in range(10)]
    assert accepted == [True] + [False] * 9
    assert link.messages_dropped == 9


def test_queue_drains_allowing_later_unreliable_sends():
    sim = Simulator()
    cfg = LinkConfig(queue_capacity_bytes=2000, header_bytes=0, propagation_us=0.0)
    link = Link(sim, cfg, lambda m: None)
    assert link.send(make_msg(1500))
    assert not link.send(make_msg(1000, tracked=False))
    sim.run()  # drain
    assert link.send(make_msg(1000, tracked=False))


def test_link_statistics():
    sim = Simulator()
    cfg = LinkConfig(header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    link.send(make_msg(100))
    link.send(make_msg(200))
    sim.run()
    assert link.messages_sent == 2
    assert link.bytes_sent == cfg.wire_bytes(100) + cfg.wire_bytes(200)
    assert link.busy_time > 0
    assert 0 < link.utilization(sim.now) <= 1.0


def test_negative_propagation_rejected():
    with pytest.raises(NetworkError):
        LinkConfig(propagation_us=-1.0)


def test_negative_header_bytes_rejected():
    with pytest.raises(NetworkError):
        LinkConfig(header_bytes=-8)


def test_utilization_under_back_to_back_sends():
    """Three back-to-back messages keep the link busy the whole run, so
    utilization is exactly 1; idle time afterwards dilutes it."""
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=0.0, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    for _ in range(3):
        assert link.send(make_msg(1000))
    sim.run()
    per_msg = cfg.serialization_us(1000)
    assert link.busy_time == pytest.approx(3 * per_msg)
    assert link.utilization(sim.now) == pytest.approx(1.0)
    # Half as much idle time again halves the utilization figure.
    assert link.utilization(sim.now * 2) == pytest.approx(0.5)


def test_sink_latency_is_added_after_propagation():
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=2.0, header_bytes=0)
    times = []
    link = Link(sim, cfg, lambda m: times.append(sim.now), sink_latency_us=10.0)
    link.send(make_msg(100))
    sim.run()
    assert times == [(cfg.serialization_us(100) + 2.0) + 10.0]
    assert sim.events_handled == 1  # one delivery event, nothing else


def test_accounting_settles_at_departure_not_at_delivery():
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=50.0, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    link.send(make_msg(1000))
    wire, ser = cfg.wire_bytes(1000), cfg.serialization_us(1000)
    assert (link.queued_bytes, link.messages_sent, link.busy_time) == (wire, 0, 0.0)
    sim.run(until=ser / 2)
    assert (link.queued_bytes, link.messages_sent) == (wire, 0)
    sim.run(until=ser)  # the last bit is on the wire; delivery is 50 us away
    assert (link.queued_bytes, link.messages_sent, link.bytes_sent) == (0, 1, wire)
    assert link.busy_time == ser


class ReferenceLink:
    """The model ``Link`` computes in closed form, spelled out as events:
    a transmitter process sleeps each message's serialization time, books
    the departure, and schedules the arrival and then the sink."""

    def __init__(self, sim, config, sink, sink_latency_us):
        self.sim, self.config, self.sink, self.latency = sim, config, sink, sink_latency_us
        self.queue, self.idle, self.departs_at = deque(), None, 0.0
        self.queued_bytes = self.messages_sent = self.bytes_sent = self.messages_dropped = 0
        self.busy_time = 0.0
        spawn(sim, self._transmitter(), daemon=True)

    def send(self, message):
        wire = self.config.wire_bytes(message.size_bytes)
        if self.queued_bytes + wire > self.config.queue_capacity_bytes:
            self.messages_dropped += 1
            return False
        self.queued_bytes += wire
        self.queue.append(message)
        if self.idle is not None and not self.idle.triggered:
            self.idle.succeed()
        return True

    def _transmitter(self):
        while True:
            if not self.queue:
                self.idle = self.sim.event()
                yield self.idle
            message = self.queue.popleft()
            serialization = self.config.serialization_us(message.size_bytes)
            self.departs_at = self.sim.now + serialization
            yield self.sim.timeout(serialization)
            wire = self.config.wire_bytes(message.size_bytes)
            self.queued_bytes -= wire
            self.messages_sent += 1
            self.bytes_sent += wire
            self.busy_time += serialization
            self.sim.schedule(self.config.propagation_us, self._arrive, message)

    def _arrive(self, message):
        self.sim.schedule(self.latency, self.sink, message)


@pytest.mark.parametrize("latency", [0.0, 10.0])
@pytest.mark.parametrize("seed", range(12))
def test_closed_form_link_matches_reference_fifo(seed, latency):
    """Random traffic (mixed sizes and kinds, bursts into a small
    queue, sends at exactly a departure timestamp) through the reference
    model, then the recorded script through ``Link``: delivery times must
    be bit-equal, and drops, occupancy and final statistics equal."""
    rng = random.Random(seed)
    cfg = LinkConfig(
        bandwidth_mbps=rng.choice([10.0, 155.0, 622.0]),
        propagation_us=rng.choice([0.0, 1.0, 3.7]),
        header_bytes=rng.choice([0, 60]),
        queue_capacity_bytes=6000,
    )

    # Phase A: drive the reference, recording what was sent and when.  Every
    # send runs from the zero-delay queue, i.e. after all heap events of its
    # timestamp: a send at a departure time sees that message gone.
    sim = Simulator()
    ref_log = []
    ref = ReferenceLink(sim, cfg, lambda m: ref_log.append((m.msg_id, sim.now)), latency)
    script, ref_seen, ties = [], [], []

    def step(remaining):
        msg = make_msg(rng.choice([0, 1, 40, 48, 400, 1500, 4096]), tracked=rng.random() < 0.4)
        script.append((sim.now, msg))
        ref_seen.append((ref.queued_bytes, ref.send(msg)))
        if remaining == 0:
            return
        roll = rng.random()
        if roll < 0.45:
            when = sim.now  # burst
        elif roll < 0.65 and ref.departs_at > sim.now:
            when = ref.departs_at  # exactly as the message in service departs
            ties.append(when)
        elif roll < 0.92:
            when = sim.now + rng.uniform(0.0, 60.0)
        else:
            when = sim.now + rng.uniform(500.0, 5000.0)  # let the queue drain
        sim.schedule_at(when, sim.schedule, 0.0, step, remaining - 1)

    sim.schedule(0.0, step, 300)
    sim.run()

    # Phase B: the same script through the closed-form link.
    sim2 = Simulator()
    log = []
    link = Link(sim2, cfg, lambda m: log.append((m.msg_id, sim2.now)), sink_latency_us=latency)
    seen = []
    for when, msg in script:
        sim2.schedule_at(
            when, sim2.schedule, 0.0, lambda m=msg: seen.append((link.queued_bytes, link.send(m)))
        )
    sim2.run()

    assert seen == ref_seen
    assert log == ref_log  # same messages, same order, bit-equal times
    # The traffic did hit capacity, and did send at departure timestamps.
    assert 0 < ref.messages_dropped < len(script) and len(ties) > 10
    assert (link.messages_sent, link.bytes_sent, link.messages_dropped, link.queued_bytes) == (
        ref.messages_sent, ref.bytes_sent, ref.messages_dropped, 0
    )
    assert link.busy_time == ref.busy_time
