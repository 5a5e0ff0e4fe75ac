"""Watchdog monitor units over synthetic telemetry sections."""

from repro.telemetry import run_watchdogs


def section(nodes, windows=None):
    count = max(
        (
            len(series)
            for entry in nodes.values()
            for group in ("gauges", "deltas")
            for series in entry.get(group, {}).values()
        ),
        default=0,
    )
    for entry in nodes.values():
        for peers in entry.get("peers", {}).values():
            for series in peers.values():
                count = max(count, len(series))
    ts = windows or [1000.0 * (i + 1) for i in range(count)]
    return {"version": 1, "interval_us": 1000.0, "windows": ts, "nodes": nodes}


def test_empty_section_yields_no_findings():
    assert run_watchdogs({"windows": [], "nodes": {}}) == []
    assert run_watchdogs(section({"0": {"gauges": {}, "deltas": {}}})) == []


def test_cwnd_pinned_requires_consecutive_floor_windows():
    make = lambda cwnd: section(
        {"0": {"gauges": {}, "deltas": {}, "peers": {"1": {"cwnd": cwnd}}}}
    )
    # Three floor windows: below the threshold.
    assert run_watchdogs(make([8, 1.0, 1.0, 1.0, 8, 8])) == []
    # Four consecutive: one finding with the coalesced window range.
    findings = run_watchdogs(make([8, 1.0, 1.0, 1.0, 1.0, 8]))
    assert [f["monitor"] for f in findings] == ["cwnd_pinned"]
    assert findings[0]["window_start"] == 1 and findings[0]["window_end"] == 4
    assert findings[0]["peer"] == 1
    assert findings[0]["t_start_us"] == 2000.0
    # cwnd 0.0 means "never contacted", not "pinned at the floor".
    assert run_watchdogs(make([0.0, 0.0, 0.0, 0.0, 0.0])) == []


def test_backlog_growth_requires_monotone_run():
    make = lambda backlog: section(
        {"0": {"gauges": {"transport.backlog": backlog}, "deltas": {}}}
    )
    # Growth with a plateau breaks the run.
    assert run_watchdogs(make([0, 1, 2, 2, 3, 4])) == []
    findings = run_watchdogs(make([0, 1, 2, 3, 4, 4]))
    assert [f["monitor"] for f in findings] == ["backlog_growth"]
    assert findings[0]["value"] == 4


def test_stall_spike_compares_against_median():
    # Cumulative stall gauge: mostly ~1000 us windows, one 40000 us jump.
    totals, acc = [], 0.0
    for delta in [1000, 1000, 1000, 40000, 1000, 1000]:
        acc += delta
        totals.append(acc)
    findings = run_watchdogs(
        section({"0": {"gauges": {"sched.stall_us_total": totals}, "deltas": {}}})
    )
    assert [f["monitor"] for f in findings] == ["stall_spike"]
    assert findings[0]["window_start"] == 3
    assert findings[0]["value"] == 40000
    # A uniform profile never spikes (every window IS the median).
    uniform = [1000.0 * (i + 1) for i in range(6)]
    assert (
        run_watchdogs(
            section({"0": {"gauges": {"sched.stall_us_total": uniform}, "deltas": {}}})
        )
        == []
    )


def test_shed_storm_threshold():
    make = lambda shed: section({"0": {"gauges": {}, "deltas": {"prefetch.shed": shed}}})
    assert run_watchdogs(make([0, 24, 0])) == []
    findings = run_watchdogs(make([0, 25, 40, 0]))
    assert [f["monitor"] for f in findings] == ["shed_storm"]
    assert findings[0]["value"] == 40  # peak of the coalesced storm


def test_zero_progress_needs_transport_churn():
    def make(busy_deltas, timeouts):
        totals, acc = [], 0.0
        for delta in busy_deltas:
            acc += delta
            totals.append(acc)
        return section(
            {
                "0": {
                    "gauges": {"sched.busy_us_total": totals},
                    "deltas": {
                        "transport.timeouts": timeouts,
                        "transport.retransmissions": [0] * len(timeouts),
                    },
                }
            }
        )

    # Stalled but quiet transport: blocked on something else, not livelock.
    assert run_watchdogs(make([100, 0, 0, 0, 100], [0, 0, 0, 0, 0])) == []
    # Stalled while the transport churns: livelock evidence.
    findings = run_watchdogs(make([100, 0, 0, 0, 100], [0, 2, 1, 3, 0]))
    assert [f["monitor"] for f in findings] == ["zero_progress"]
    assert "livelock" in findings[0]["detail"]
    # Two windows only: below the run threshold.
    assert run_watchdogs(make([100, 0, 0, 100], [0, 2, 1, 0])) == []


def test_findings_sorted_deterministically():
    nodes = {
        "1": {"gauges": {"transport.backlog": [0, 1, 2, 3, 4]}, "deltas": {}},
        "0": {
            "gauges": {"transport.backlog": [0, 1, 2, 3, 4]},
            "deltas": {"prefetch.shed": [0, 99, 0, 0, 0]},
        },
    }
    findings = run_watchdogs(section(nodes))
    assert [(f["monitor"], f["node"]) for f in findings] == [
        ("backlog_growth", 0),
        ("backlog_growth", 1),
        ("shed_storm", 0),
    ]
    assert findings == run_watchdogs(section(nodes))
