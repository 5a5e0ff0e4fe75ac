"""The message plane under the DSM host (``DsmNode.post``): what one
post does, that the priorities its callers no longer spell out cannot
drift, and that demand and prefetch requests share one diff server."""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.dsm.hlrc import HlrcBackend
from repro.dsm.protocol import LrcBackend
from repro.dsm.sc import ScBackend
from repro.metrics.counters import Category
from repro.network import (
    PRIORITY_DEMAND,
    PRIORITY_NOTICE,
    PRIORITY_PREFETCH,
    Message,
    MessageKind,
)
from repro.sim import spawn


def _capture_at(runtime, node_id):
    """Replace a node's protocol dispatch with a recorder."""
    arrived = []
    runtime.cluster.node(node_id).set_message_handler(lambda m: arrived.append(m) or ())
    return arrived


def test_post_builds_labels_and_sends_once():
    # Two untracked kinds: no ack follows, so every span below is a post.
    runtime = DsmRuntime(RunConfig(num_nodes=2, trace=True))
    dsm = runtime.dsm_nodes[0]
    arrived = _capture_at(runtime, 1)

    def sender():
        yield from dsm.post(1, MessageKind.HEARTBEAT, 16, {"n": 1}, "probe", page=3)
        yield from dsm.post(1, MessageKind.PREFETCH_REPLY, 24, {"n": 2})

    spawn(dsm.sim, sender())
    dsm.sim.run()

    labelled, bare = arrived
    assert (labelled.src, labelled.dst, labelled.size_bytes) == (0, 1, 16)
    assert labelled.payload == {"n": 1} and bare.payload == {"n": 2}
    # Source and class are not the caller's business: the kind's default.
    assert (labelled.priority, bare.priority) == (PRIORITY_NOTICE, PRIORITY_PREFETCH)

    events = list(runtime.tracer.events)
    spans = [e for e in events if e.name.startswith("msg:") and e.ph == "b"]
    edges = [e for e in events if e.name == "pag_edge"]
    assert [s.id for s in spans] == [f"m{labelled.msg_id}", f"m{bare.msg_id}"]
    # One label per labelled post, naming the span the network opens for
    # it; ``role=None`` leaves the message bare rather than labelled None.
    assert [e.args for e in edges] == [{"msg": spans[0].id, "role": "probe", "page": 3}]
    # The label is stamped at construction, the span after the send charge.
    assert edges[0].ts < spans[0].ts
    # The send cost, once per post, on the sender.
    assert dsm.node.breakdown.times[Category.DSM] == 2 * dsm.node.costs.msg_send_cpu


SYNC_KINDS = (
    MessageKind.LOCK_REQUEST,
    MessageKind.LOCK_FORWARD,
    MessageKind.LOCK_GRANT,
    MessageKind.BARRIER_ARRIVE,
    MessageKind.BARRIER_RELEASE,
)


@pytest.mark.parametrize(
    "kind",
    sorted({*LrcBackend.handlers, *HlrcBackend.handlers, *ScBackend.handlers, *SYNC_KINDS}),
    ids=lambda kind: kind.value,
)
def test_every_posted_kind_defaults_to_demand(kind):
    """``post`` passes no priority, and the call sites used to say
    ``PRIORITY_DEMAND``: the default table must keep saying it."""
    assert Message(src=0, dst=1, kind=kind, size_bytes=0).priority == PRIORITY_DEMAND


def test_demand_and_prefetch_requests_share_one_diff_server():
    runtime = DsmRuntime(RunConfig(num_nodes=2, prefetch=True))
    dsm = runtime.dsm_nodes[0]
    replies = _capture_at(runtime, 1)
    page_id = 5
    request = {"page_id": page_id, "t_have": 0, "vc": (0, 0), "request_id": 9}

    def scenario():
        # One dirty page: the first request flushes it, both ship the diff.
        yield from dsm.backend.op_write_touch(page_id)
        dsm.node.pages.page(page_id)[:16] = 7
        for kind in (MessageKind.PREFETCH_REQUEST, MessageKind.DIFF_REQUEST):
            served = dsm.diff_requests_served
            yield from dsm.dispatch(Message(1, 0, kind, 36, dict(request)))
            # Only the demand request counts as a diff request served.
            assert dsm.diff_requests_served - served == (kind is MessageKind.DIFF_REQUEST)

    spawn(dsm.sim, scenario())
    dsm.sim.run()

    prefetch, demand = replies
    assert len(demand.payload["diffs"]) == 1
    assert demand.payload["diffs"][0].diff.modified_bytes == 16
    assert demand.payload["notices"] and demand.payload["covers_through"] == 1
    assert prefetch.payload.keys() == demand.payload.keys()
    for key in ("page_id", "request_id", "covers_through", "notices"):
        assert prefetch.payload[key] == demand.payload[key], key
    # The very same stored diff (``==`` would compare numpy runs).
    assert prefetch.payload["diffs"][0] is demand.payload["diffs"][0]
    assert len(prefetch.payload["diffs"]) == 1
    assert prefetch.size_bytes == demand.size_bytes
    # They differ in kind, tracking (the demand reply got a sequence
    # number from the transport) and class, and in nothing else.
    assert (demand.kind, demand.seq, demand.priority) == (
        MessageKind.DIFF_REPLY,
        0,
        PRIORITY_DEMAND,
    )
    assert (prefetch.kind, prefetch.seq, prefetch.priority) == (
        MessageKind.PREFETCH_REPLY,
        -1,
        PRIORITY_PREFETCH,
    )
