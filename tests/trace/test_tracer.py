"""Unit tests for the core tracer: collection and the null tracer."""

import pytest

from repro.api.runtime import RunConfig
from repro.errors import ConfigError
from repro.trace import NULL_TRACER, NullTracer, TraceEvent, Tracer


def test_default_tracer_collects_everything():
    tracer = Tracer()
    tracer.instant(1.0, "protocol", "page_fault", node=0, page=3)
    tracer.slice(2.0, 5.0, "cpu", "busy", node=1)
    tracer.begin(3.0, "sched", "stall:lock", node=0, tid=2)
    tracer.end(4.0, "sched", "stall:lock", node=0, tid=2)
    assert len(tracer) == 4
    phases = [event.ph for event in tracer]
    assert phases == ["i", "X", "B", "E"]


def test_slice_carries_duration_and_args():
    tracer = Tracer()
    tracer.slice(10.0, 2.5, "cpu", "dsm_overhead", node=3, page=7)
    (event,) = list(tracer)
    assert event.ts == 10.0
    assert event.dur == 2.5
    assert event.args == {"page": 7}
    assert event.as_dict()["dur"] == 2.5


def test_helpers_build_the_events_the_constructor_builds():
    """The helpers skip ``TraceEvent``'s keyword handling: each must
    still put every field in its place, and a row read back from a
    trace file is the same event."""
    tracer = Tracer()
    tracer.instant(1.0, "protocol", "pag_edge", 3, tid=2, msg="m1")
    tracer.slice(2.0, 0.5, "cpu", "busy", 1)
    tracer.begin(3.0, "sched", "stall:lock", 0, tid=4)
    tracer.end(4.0, "sched", "stall:lock", 0, tid=4, miss=True)
    tracer.async_begin(5.0, "network", "msg:ack", 0, "m7", dst=1)
    tracer.async_end(6.0, "network", "msg:ack", 1, "m7", tid=None, src=0)
    assert list(tracer) == [
        TraceEvent(1.0, "i", "protocol", "pag_edge", 3, tid=2, args={"msg": "m1"}),
        TraceEvent(2.0, "X", "cpu", "busy", 1, dur=0.5),
        TraceEvent(3.0, "B", "sched", "stall:lock", 0, tid=4),
        TraceEvent(4.0, "E", "sched", "stall:lock", 0, tid=4, args={"miss": True}),
        TraceEvent(5.0, "b", "network", "msg:ack", 0, id="m7", args={"dst": 1}),
        TraceEvent(6.0, "e", "network", "msg:ack", 1, id="m7", args={"src": 0}),
    ]
    assert all(type(event) is TraceEvent for event in tracer)
    assert [TraceEvent.from_row(event.as_dict()) for event in tracer] == list(tracer)


def test_async_pair_shares_id():
    tracer = Tracer()
    tracer.async_begin(1.0, "protocol", "diff_rtt", node=0, id="n0:dr5")
    tracer.async_end(9.0, "protocol", "diff_rtt", node=0, id="n0:dr5")
    begin, end = list(tracer)
    assert (begin.ph, end.ph) == ("b", "e")
    assert begin.id == end.id == "n0:dr5"


def test_config_rejects_bad_sink_capacity_and_categories():
    """The tracer keeps every event (the profile, the critical path and
    the sanitizer fold the whole stream): a bounded or filtered sink is
    not an option, and ``trace`` takes a bool only."""
    for option in ({"sink": "ring"}, {"ring_capacity": 100}, {"categories": frozenset({"cpu"})}):
        with pytest.raises(ConfigError):
            RunConfig(trace=option)


def test_null_tracer_is_disabled_and_collects_nothing():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    NULL_TRACER.emit(TraceEvent(0.0, "i", "cpu", "busy", 0))
    # Every helper records through ``emit``; none may reach the list.
    NULL_TRACER.instant(0.0, "cpu", "busy", node=0)
    NULL_TRACER.slice(0.0, 1.0, "cpu", "busy", node=0, page=1)
    NULL_TRACER.begin(0.0, "sched", "stall:lock", node=0, tid=1)
    NULL_TRACER.end(1.0, "sched", "stall:lock", node=0, tid=1)
    NULL_TRACER.async_begin(0.0, "network", "msg:ack", node=0, id="m1", dst=1)
    NULL_TRACER.async_end(1.0, "network", "msg:ack", node=1, id="m1")
    assert len(NULL_TRACER) == 0
    assert list(NULL_TRACER.events) == []


def test_simulator_defaults_to_null_tracer():
    from repro.sim import Simulator

    assert Simulator().trace is NULL_TRACER


def test_as_dict_omits_optional_fields():
    event = TraceEvent(1.0, "i", "protocol", "barrier_arrive", 2)
    row = event.as_dict()
    assert row == {"ts": 1.0, "ph": "i", "cat": "protocol", "name": "barrier_arrive", "node": 2}
    assert "dur" not in row and "tid" not in row and "id" not in row
