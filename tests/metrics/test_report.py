"""RunReport aggregation, edge cases, and JSON serialization."""

import dataclasses

import pytest

from repro.metrics.counters import Category, EventCounters, TimeBreakdown
from repro.metrics.report import RunReport


def make_report(wall=1000.0, num_nodes=2, breakdowns=None, events=None, **kwargs):
    if breakdowns is None:
        breakdowns = []
        for _ in range(num_nodes):
            breakdown = TimeBreakdown()
            breakdown.charge(Category.BUSY, 400.0)
            breakdown.charge(Category.DSM, 100.0)
            breakdowns.append(breakdown)
    if events is None:
        events = [EventCounters() for _ in range(num_nodes)]
    defaults = dict(
        app_name="SOR",
        config_label="O",
        num_nodes=num_nodes,
        threads_per_node=1,
        wall_time_us=wall,
        node_breakdowns=breakdowns,
        node_events=events,
        total_messages=10,
        total_kbytes=4.0,
        message_drops=0,
    )
    defaults.update(kwargs)
    return RunReport(**defaults)


# -- EventCounters.merged_with ------------------------------------------------


def test_merged_with_sums_every_field():
    """Every dataclass field participates in the merge — a counter added
    later cannot be silently forgotten by the aggregation."""
    a, b = EventCounters(), EventCounters()
    for offset, spec in enumerate(dataclasses.fields(EventCounters)):
        setattr(a, spec.name, type(getattr(a, spec.name))(offset + 1))
        setattr(b, spec.name, type(getattr(b, spec.name))(2 * (offset + 1)))
    merged = a.merged_with(b)
    for offset, spec in enumerate(dataclasses.fields(EventCounters)):
        assert getattr(merged, spec.name) == 3 * (offset + 1), spec.name
    # Inputs unchanged.
    assert a.remote_misses == 1


def test_report_events_aggregates_all_nodes():
    events = [EventCounters(remote_misses=2, acks_sent=5), EventCounters(remote_misses=3)]
    report = make_report(events=events)
    total = report.events
    assert total.remote_misses == 5
    assert total.acks_sent == 5
    # as_dict covers the same field set.
    assert set(total.as_dict()) == {f.name for f in dataclasses.fields(EventCounters)}


# -- breakdown edge cases -----------------------------------------------------


def test_category_fraction_normal_and_zero_wall():
    report = make_report()
    # 2 nodes x 400us busy over 2 x 1000us wall.
    assert report.category_fraction(Category.BUSY) == pytest.approx(0.4)
    assert make_report(wall=0.0).category_fraction(Category.BUSY) == 0.0
    assert make_report(wall=-5.0).category_fraction(Category.BUSY) == 0.0


def test_category_fraction_empty_node_list():
    report = make_report(breakdowns=[], events=[])
    assert report.category_fraction(Category.BUSY) == 0.0
    assert report.breakdown.total == 0.0
    assert report.events.remote_misses == 0


def test_normalized_breakdown_self_baseline_and_explicit_baseline():
    report = make_report()
    own = report.normalized_breakdown()
    assert own["busy"] == pytest.approx(40.0)
    assert own["dsm_overhead"] == pytest.approx(10.0)
    # Against a 2x-slower baseline the same charges halve.
    slow = make_report(wall=2000.0)
    vs = report.normalized_breakdown(baseline=slow)
    assert vs["busy"] == pytest.approx(20.0)


def test_normalized_breakdown_zero_wall_returns_all_zero():
    report = make_report(wall=0.0)
    values = report.normalized_breakdown()
    assert set(values) == {category.value for category in Category}
    assert all(v == 0.0 for v in values.values())


def test_normalized_total_edge_cases():
    fast, slow = make_report(wall=500.0), make_report(wall=1000.0)
    assert fast.normalized_total(baseline=slow) == pytest.approx(50.0)
    assert fast.normalized_total() == pytest.approx(100.0)
    assert fast.normalized_total(baseline=make_report(wall=0.0)) == 0.0


def test_speedup_over_handles_zero_wall_times():
    fast, slow = make_report(wall=500.0), make_report(wall=1000.0)
    assert fast.speedup_over(slow) == pytest.approx(2.0)
    assert make_report(wall=0.0).speedup_over(slow) == 0.0
    assert fast.speedup_over(make_report(wall=0.0)) == 0.0


# -- JSON serialization -------------------------------------------------------


def test_json_round_trip_without_prefetch():
    report = make_report(injected_faults={"drop": 3}, traffic_by_kind={"diff_request": {"sends": 4}})
    clone = RunReport.from_json(report.to_json())
    assert clone.to_dict() == report.to_dict()
    assert clone.app_name == "SOR"
    assert clone.prefetch_stats is None
    assert clone.node_breakdowns[0].times[Category.BUSY] == 400.0
    assert isinstance(clone.node_events[0], EventCounters)
    assert clone.injected_faults == {"drop": 3}


def test_json_round_trip_with_prefetch_stats():
    from repro.prefetch.engine import PrefetchStats

    report = make_report(prefetch_stats=PrefetchStats(issued=7, hits=4, late=1))
    clone = RunReport.from_json(report.to_json(indent=2))
    assert isinstance(clone.prefetch_stats, PrefetchStats)
    assert clone.prefetch_stats.issued == 7
    assert clone.prefetch_stats.coverage_factor == report.prefetch_stats.coverage_factor


def test_from_dict_rejects_unknown_schema():
    data = make_report().to_dict()
    data["schema"] = 999
    with pytest.raises(ValueError):
        RunReport.from_dict(data)
    del data["schema"]
    with pytest.raises(ValueError):
        RunReport.from_dict(data)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_from_dict_rejects_older_schemas(version):
    """Only the current layout is read: no committed artifact carries an
    older one, so the upgrade paths went with the v1-v5 readers."""
    data = make_report().to_dict()
    data["schema"] = version
    with pytest.raises(ValueError, match=f"unsupported RunReport schema {version}"):
        RunReport.from_dict(data)


def test_typed_dicts_coerced_on_serialization():
    """injected_faults/traffic_by_kind serialize as str->int / str->dict
    even when callers hand in looser types."""
    report = make_report(
        injected_faults={"drop": 3.0}, traffic_by_kind={"diff_request": {"sends": 4}}
    )
    data = report.to_dict()
    assert data["injected_faults"] == {"drop": 3}
    assert isinstance(data["injected_faults"]["drop"], int)
    clone = RunReport.from_dict(data)
    assert clone.injected_faults == {"drop": 3}
    assert clone.traffic_by_kind["diff_request"]["sends"] == 4


def test_profile_section_round_trips():
    profile = {"version": 1, "histograms": {"x_us": {"count": 1}}, "counters": {}}
    report = make_report(profile=profile)
    clone = RunReport.from_json(report.to_json())
    assert clone.profile == profile
    # Absent by default.
    assert make_report().profile is None
    assert "profile" in make_report().to_dict()


def test_critpath_section_round_trips():
    section = {
        "version": 1,
        "wall_time_us": 10.0,
        "path_us": 10.0,
        "identity_exact": True,
        "blame_us": {"cpu": 10.0},
        "what_if_us": {"zero_latency_network": 8.0},
    }
    report = make_report(critpath=section)
    clone = RunReport.from_json(report.to_json())
    assert clone.critpath == section
    # Absent by default, but the key is always serialized.
    assert make_report().critpath is None
    assert "critpath" in make_report().to_dict()


def test_transport_health_section_round_trips():
    section = {
        "per_node": {"0": {"peers": {"1": {"srtt_us": 450.0, "cwnd": 8.0}}}},
        "cwnd_max": 64,
        "max_in_flight": 9,
        "paced": 12,
        "shed": 3,
        "parked_live": 0,
    }
    report = make_report(transport_health=section)
    clone = RunReport.from_json(report.to_json())
    assert clone.transport_health == section
    # Absent by default (static transport): the key serializes as None.
    assert make_report().transport_health is None
    assert "transport_health" in make_report().to_dict()


def test_telemetry_section_round_trips():
    section = {
        "version": 1,
        "interval_us": 5000.0,
        "windows": [5000.0, 10000.0],
        "nodes": {"0": {"gauges": {"sched.runnable": [1, 0]}, "deltas": {}}},
        "network": {"deltas": {"net.messages": [4, 2]}},
        "findings": [],
    }
    report = make_report(telemetry=section)
    clone = RunReport.from_json(report.to_json())
    assert clone.telemetry == section
    # Absent by default (telemetry off): the key serializes as None.
    assert make_report().telemetry is None
    assert "telemetry" in make_report().to_dict()
