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
    NULL_TRACER.instant(0.0, "cpu", "busy", node=0)
    assert len(NULL_TRACER) == 0


def test_simulator_defaults_to_null_tracer():
    from repro.sim import Simulator

    assert Simulator().trace is NULL_TRACER


def test_as_dict_omits_optional_fields():
    event = TraceEvent(1.0, "i", "protocol", "barrier_arrive", 2)
    row = event.as_dict()
    assert row == {"ts": 1.0, "ph": "i", "cat": "protocol", "name": "barrier_arrive", "node": 2}
    assert "dur" not in row and "tid" not in row and "id" not in row
