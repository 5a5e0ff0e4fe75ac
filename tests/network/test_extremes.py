"""Deterministic peak/min watermarks on the transport (extremes).

Aggregates report where a run *landed*; the watermarks record where it
*went* — max pacing backlog, deepest congestion-window excursion, and
the largest RTO ever armed — without needing the telemetry plane on.
"""

from repro.machine import Cluster
from repro.network import FaultPlan, Message, MessageKind, TransportConfig
from repro.network.stats import TransportExtremes
from repro.sim import RandomSource, spawn


def test_extremes_unit_semantics():
    ext = TransportExtremes()
    # min_cwnd stays -1 ("never halved") until the first observation.
    assert ext.as_dict() == {"max_backlog": 0, "min_cwnd": -1.0, "max_rto_us": 0.0}
    ext.observe_backlog(3)
    ext.observe_backlog(1)
    ext.observe_cwnd(4.125)
    ext.observe_cwnd(7.0)  # higher than the watermark: ignored
    ext.observe_rto(1500.4567)
    ext.observe_rto(900.0)
    assert ext.as_dict() == {
        "max_backlog": 3,
        "min_cwnd": 4.125,
        "max_rto_us": 1500.457,  # rounded to 3 decimals
    }


def test_health_snapshot_carries_extremes_under_loss():
    cluster = Cluster(
        num_nodes=2,
        fault_plan=FaultPlan(drop_prob=0.3),
        transport=TransportConfig(adaptive=True),
        rng=RandomSource(11),
    )
    for n in range(2):
        cluster.node(n).set_message_handler(lambda m: iter(()))
    for i in range(30):
        spawn(
            cluster.sim,
            cluster.node(0).send_message(
                Message(
                    src=0,
                    dst=1,
                    kind=MessageKind.LOCK_REQUEST,
                    size_bytes=64,
                    payload={"i": i},
                )
            ),
        )
    cluster.run()
    snap = cluster.transports[0].health_snapshot()
    extremes = snap["extremes"]
    # 30% loss forces retransmissions: windows halved, RTOs backed off.
    assert extremes["min_cwnd"] >= 1.0
    assert extremes["min_cwnd"] <= snap["peers"]["1"]["cwnd"]
    assert extremes["max_rto_us"] >= snap["peers"]["1"]["rto_us"]
    assert extremes["max_backlog"] >= 0

    # Watermarks are deterministic alongside everything else.
    def rerun():
        c = Cluster(
            num_nodes=2,
            fault_plan=FaultPlan(drop_prob=0.3),
            transport=TransportConfig(adaptive=True),
            rng=RandomSource(11),
        )
        for n in range(2):
            c.node(n).set_message_handler(lambda m: iter(()))
        for i in range(30):
            spawn(
                c.sim,
                c.node(0).send_message(
                    Message(
                        src=0,
                        dst=1,
                        kind=MessageKind.LOCK_REQUEST,
                        size_bytes=64,
                        payload={"i": i},
                    )
                ),
            )
        c.run()
        return c.transports[0].health_snapshot()["extremes"]

    assert rerun() == extremes
