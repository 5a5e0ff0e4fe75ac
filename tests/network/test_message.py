"""Unit tests for the message model."""

import pytest

from repro.network import Message, MessageKind
from repro.network.message import UNTRACKED


def test_message_ids_are_unique():
    a = Message(src=0, dst=1, kind=MessageKind.DIFF_REQUEST, size_bytes=64)
    b = Message(src=0, dst=1, kind=MessageKind.DIFF_REQUEST, size_bytes=64)
    assert a.msg_id != b.msg_id


def test_message_to_self_rejected():
    with pytest.raises(ValueError):
        Message(src=2, dst=2, kind=MessageKind.DIFF_REQUEST, size_bytes=64)


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, kind=MessageKind.DIFF_REQUEST, size_bytes=-1)


def test_latency_requires_delivery():
    msg = Message(src=0, dst=1, kind=MessageKind.DIFF_REPLY, size_bytes=10)
    with pytest.raises(ValueError):
        _ = msg.latency
    msg.sent_at = 1.0
    msg.delivered_at = 5.5
    assert msg.latency == pytest.approx(4.5)


def test_prefetch_kinds_flagged():
    assert MessageKind.PREFETCH_REQUEST.is_prefetch
    assert MessageKind.PREFETCH_REPLY.is_prefetch
    assert not MessageKind.DIFF_REQUEST.is_prefetch
    assert not MessageKind.BARRIER_ARRIVE.is_prefetch


def test_kind_says_whether_tracked():
    """The transport owns every kind but prefetch traffic and the
    control plane (acks, heartbeats, membership verdicts)."""
    untracked = {kind for kind in MessageKind if kind.is_prefetch or kind.is_control}
    assert UNTRACKED == untracked
    assert {kind for kind in MessageKind if not kind.is_tracked} == untracked
    assert MessageKind.DIFF_REPLY.is_tracked and MessageKind.SC_GRANT.is_tracked
