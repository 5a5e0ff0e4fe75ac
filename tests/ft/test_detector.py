"""Unit tests for the failure detector's evidence handling.

Death is a two-step verdict: silence opens a suspicion, and only a
suspicion that ages ``SUSPICION_TTL_US`` with ``SUSPICION_QUORUM``
reporters — while the suspect stays silent — matures into a death.  Any
delivered message clears the record.
"""

from repro.ft import detector
from repro.ft.detector import COORDINATOR, FailureDetector
from repro.network.message import Message, MessageKind


class FakeTrace:
    enabled = False


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.trace = FakeTrace()
        self.trace_on = False


class FakeFt:
    """Just enough of FtManager for the detector's bookkeeping paths."""

    def __init__(self, num_nodes=4):
        self.sim = FakeSim()
        self.num_nodes = num_nodes
        self.active = True


def make_detector():
    ft = FakeFt()
    return ft, FailureDetector(ft)


def heartbeat(src):
    return Message(src=src, dst=COORDINATOR, kind=MessageKind.HEARTBEAT, size_bytes=16)


def test_any_delivered_traffic_is_liveness_evidence():
    ft, det = make_detector()
    ft.sim.now = 42.0
    det.observe(COORDINATOR, heartbeat(2))
    assert det.last_heard[2] == 42.0
    # Traffic delivered to other nodes is not coordinator evidence.
    ft.sim.now = 99.0
    det.observe(1, heartbeat(3))
    assert det.last_heard[3] == 0.0


def test_silence_opens_suspicion_then_matures_into_death():
    ft, det = make_detector()  # 50 ms suspicion timeout, 25 ms TTL
    ft.sim.now = 60_000.0
    det.observe(COORDINATOR, heartbeat(1))
    det.observe(COORDINATOR, heartbeat(2))
    det.last_heard[3] = 5_000.0  # silent since t=5ms
    # First sighting of the silence only opens the suspicion...
    assert det._collect_dead() == []
    assert det.suspicions == 1
    assert 3 in det.suspects
    # ...which matures once it has aged the TTL (still silent).
    ft.sim.now = 60_000.0 + 25_000.0
    assert det._collect_dead() == [3]


def test_retry_exhaustion_alone_never_kills_a_live_node():
    """Regression: the pre-TTL detector declared a node dead on the
    first transport give-up, so a reachable-but-slow peer (a long
    NodeStall) was executed while still alive.  A give-up is now only a
    reporter vote: while the suspect keeps talking to the coordinator it
    can never mature, and its next message clears the record."""
    ft, det = make_detector()
    ft.sim.now = 10_000.0
    for node in det.last_heard:
        det.last_heard[node] = ft.sim.now  # nobody is silent
    det.on_give_up(reporter=1, dst=3, message=heartbeat(1))
    assert 3 in det.suspects
    assert det._collect_dead() == []  # not silent => cannot mature
    # Evidence of life clears the suspicion entirely.
    ft.sim.now = 11_000.0
    det.observe(COORDINATOR, heartbeat(3))
    assert 3 not in det.suspects
    assert det.suspicions_cleared == 1


def test_suspicion_needs_quorum_of_reporters(monkeypatch):
    monkeypatch.setattr(detector, "SUSPICION_TTL_US", 0.0)
    monkeypatch.setattr(detector, "SUSPICION_QUORUM", 3)
    ft, det = make_detector()
    ft.sim.now = 60_000.0
    det.observe(COORDINATOR, heartbeat(1))
    det.observe(COORDINATOR, heartbeat(2))
    det.last_heard[3] = 1_000.0
    # Coordinator silence is one reporter; quorum=3 needs two more.
    assert det._collect_dead() == []
    det.on_give_up(reporter=1, dst=3, message=heartbeat(1))
    assert det._collect_dead() == []
    det.on_give_up(reporter=2, dst=3, message=heartbeat(2))
    assert det._collect_dead() == [3]


def test_give_up_on_coordinator_or_dead_node_ignored():
    ft, det = make_detector()
    det.on_give_up(reporter=1, dst=COORDINATOR, message=heartbeat(1))
    assert not det.suspects
    det.mark_dead(3)
    det.on_give_up(reporter=1, dst=3, message=heartbeat(1))
    assert not det.suspects


def test_mark_alive_and_reset_clear_suspicion():
    ft, det = make_detector()
    det.on_give_up(reporter=1, dst=2, message=heartbeat(1))
    det.mark_dead(2)
    assert 2 in det.down
    assert 2 not in det.suspects
    ft.sim.now = 70_000.0
    det.mark_alive(2)
    assert 2 not in det.down
    assert det.last_heard[2] == 70_000.0
    det.on_give_up(reporter=1, dst=3, message=heartbeat(1))
    det.reset_liveness()
    assert not det.suspects
    assert all(t == 70_000.0 for t in det.last_heard.values())


def test_has_quorum_tracks_recently_heard_majority():
    ft, det = make_detector()  # 50 ms suspicion timeout
    ft.sim.now = 60_000.0
    # Everyone silent beyond the timeout: the coordinator is alone.
    assert not det.has_quorum()
    det.observe(COORDINATOR, heartbeat(1))
    # Coordinator + node 1 = 2 of 4: still no strict majority.
    assert not det.has_quorum()
    det.observe(COORDINATOR, heartbeat(2))
    assert det.has_quorum()
    # Quorum is over the *current membership*: confirming a death
    # shrinks the denominator, so the surviving majority stays live
    # (coordinator + node 1 is 2 of the 3 remaining members)...
    det.mark_dead(2)
    assert det.has_quorum()
    # ...but the fresh clock of a removed node never counts toward it.
    det.observe(COORDINATOR, heartbeat(2))
    det.mark_dead(3)
    ft.sim.now = 130_000.0  # node 1 now silent too: coordinator alone
    assert not det.has_quorum()


def test_membership_views_follow_broadcasts():
    ft, det = make_detector()
    down = Message(
        src=COORDINATOR, dst=1, kind=MessageKind.FT_DOWN, size_bytes=32,
        payload={"node": 3},
    )
    up = Message(
        src=COORDINATOR, dst=1, kind=MessageKind.FT_UP, size_bytes=32,
        payload={"node": 3},
    )
    det.handle_membership(1, down)
    assert det.views[1] == {3}
    det.handle_membership(1, up)
    assert det.views[1] == set()
    rejoin = Message(
        src=COORDINATOR, dst=1, kind=MessageKind.FT_REJOIN, size_bytes=32,
        payload={"down": [2, 3]},
    )
    det.handle_membership(1, rejoin)
    assert det.views[1] == {2, 3}
