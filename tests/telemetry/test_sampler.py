"""The flight recorder's house invariants.

Telemetry is a fold over the run's trace: off, it adds nothing to the
report; on, it only turns event collection on (the report core
unchanged, the series identical across repeats, job counts and whichever
other planes share the tracer), and its integer delta series reconcile
*exactly* with the end-of-run counter totals.
"""

import json

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import Sor
from repro.errors import ConfigError
from repro.metrics.report import RunReport
from repro.network import FaultPlan, TransportConfig
from repro.parallel import RunSpec, run_specs
from repro.telemetry import (
    DELTA_METRICS,
    GAUGE_METRICS,
    NETWORK_METRICS,
    PEER_METRICS,
    TelemetryConfig,
)


def run_sor(telemetry=None, **overrides):
    config = dict(num_nodes=4, threads_per_node=2, telemetry=telemetry)
    config.update(overrides)
    return DsmRuntime(RunConfig(**config)).execute(Sor(rows=48, cols=48, iterations=4))


@pytest.fixture(scope="module")
def sampled():
    """One telemetry run shared by the read-only assertions."""
    runtime = DsmRuntime(
        RunConfig(num_nodes=4, threads_per_node=2, telemetry=TelemetryConfig(interval_us=2000.0))
    )
    report = runtime.execute(Sor(rows=48, cols=48, iterations=4))
    return runtime, report


def test_config_rejects_nonpositive_interval():
    with pytest.raises(ConfigError):
        TelemetryConfig(interval_us=0)
    with pytest.raises(ConfigError):
        TelemetryConfig(interval_us=-5.0)


@pytest.mark.parametrize("width", [float("nan"), float("inf")])
def test_config_rejects_nan_and_infinite_interval(width):
    with pytest.raises(ConfigError):
        TelemetryConfig(interval_us=width)


def test_runconfig_coerces_bool_telemetry():
    assert RunConfig(num_nodes=2, telemetry=True).telemetry == TelemetryConfig()
    assert RunConfig(num_nodes=2, telemetry=False).telemetry is None
    with pytest.raises(ConfigError):
        RunConfig(num_nodes=2, telemetry="yes")


def test_disabled_run_has_no_section_and_telemetry_alone_traces():
    runtime = DsmRuntime(RunConfig(num_nodes=2))
    assert runtime.tracer.enabled is False
    report = runtime.execute(Sor(rows=24, cols=24, iterations=2))
    assert report.telemetry is None
    # The section is folded from the events, so asking for it alone
    # records them.
    assert DsmRuntime(RunConfig(num_nodes=2, telemetry=True)).tracer.enabled is True


def test_report_core_byte_identical_with_or_without_telemetry():
    """The plane is a pure observer: apart from the telemetry section
    itself, the on/off reports serialize identically."""
    on = run_sor(telemetry=TelemetryConfig(interval_us=2000.0)).to_dict()
    off = run_sor().to_dict()
    assert on.pop("telemetry") is not None
    assert off.pop("telemetry") is None
    assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


def test_series_identical_across_repeats(sampled):
    _runtime, first = sampled
    second = run_sor(telemetry=TelemetryConfig(interval_us=2000.0))
    assert first.to_json() == second.to_json()
    # The other planes share the tracer and add no event of their own.
    every_plane = run_sor(
        telemetry=TelemetryConfig(interval_us=2000.0),
        trace=True,
        profile=True,
        critpath=True,
        sanitizer=True,
    )
    assert every_plane.telemetry == first.telemetry


def test_window_boundaries_are_monotone_multiples(sampled):
    _runtime, report = sampled
    section = report.telemetry
    windows = section["windows"]
    assert windows == sorted(windows)
    # All but the tail land exactly on interval multiples (multiplied,
    # not accumulated, so no float drift).
    for index, boundary in enumerate(windows[:-1]):
        assert boundary == 2000.0 * (index + 1)
    # The tail flush covers through the drained clock, past the last
    # scheduler's finish time.
    assert windows[-1] >= report.wall_time_us
    # Every series is window-aligned.
    for entry in section["nodes"].values():
        for name in GAUGE_METRICS:
            assert len(entry["gauges"][name]) == len(windows)
        for name in DELTA_METRICS:
            assert len(entry["deltas"][name]) == len(windows)
    for name in NETWORK_METRICS:
        assert len(section["network"]["deltas"][name]) == len(windows)


def test_delta_sums_reconcile_exactly_with_counter_totals(sampled):
    """The reconciliation invariant: integer delta series telescope to
    the end-of-run totals bit-for-bit, per node and cluster-wide."""
    runtime, report = sampled
    section = report.telemetry
    for node_key, entry in section["nodes"].items():
        node = int(node_key)
        events = report.node_events[node]
        dsm = runtime.dsm_nodes[node]
        deltas = entry["deltas"]
        assert sum(deltas["sched.ctx_switches"]) == events.context_switches
        assert sum(deltas["mem.remote_misses"]) == events.remote_misses
        assert sum(deltas["sync.lock_misses"]) == events.remote_lock_misses
        assert sum(deltas["sync.barrier_waits"]) == events.barrier_waits
        assert sum(deltas["dsm.faults"]) == dsm.faults
        assert sum(deltas["dsm.diff_requests"]) == dsm.diff_requests_served
        assert sum(deltas["transport.retransmissions"]) == events.retransmissions
        assert sum(deltas["transport.timeouts"]) == events.transport_timeouts
        assert sum(deltas["transport.paced"]) == events.messages_paced
    net = section["network"]["deltas"]
    assert sum(net["net.messages"]) == report.total_messages
    assert sum(net["net.drops"]) == report.message_drops
    assert sum(net["net.retransmits"]) == report.retransmissions


def test_barrier_epochs_recorded(sampled):
    _runtime, report = sampled
    for entry in report.telemetry["nodes"].values():
        epochs = entry["epochs"]
        assert epochs, "every node crosses barriers in SOR"
        # The tail epoch is closed synthetically at finalize.
        assert epochs[-1]["barrier"] == -1
        for epoch in epochs:
            assert epoch["end_us"] >= epoch["start_us"]
            assert epoch["stall_us"] >= 0
            assert epoch["stall_ratio"] >= 0
        # Real episodes carry the barrier id and episode counter.
        real = [e for e in epochs if e["barrier"] != -1]
        assert real and all(e["episode"] >= 0 for e in real)


def test_adaptive_run_records_peer_series():
    report = run_sor(
        telemetry=TelemetryConfig(interval_us=2000.0),
        threads_per_node=1,
        transport=TransportConfig(adaptive=True),
    )
    section = report.telemetry
    windows = len(section["windows"])
    for node_key, entry in section["nodes"].items():
        peers = entry["peers"]
        assert sorted(peers) == sorted(
            str(n) for n in range(4) if n != int(node_key)
        )
        for track in peers.values():
            for metric in PEER_METRICS:
                assert len(track[metric]) == windows
    # Static transports carry no peer estimator state: no peer series.
    static = run_sor(telemetry=TelemetryConfig(interval_us=2000.0), threads_per_node=1)
    for entry in static.telemetry["nodes"].values():
        assert "peers" not in entry


def test_section_rides_jobs_boundary_bit_for_bit():
    """--jobs N: the telemetry section crosses the worker JSON boundary
    unchanged, so fanned-out sweeps equal serial ones byte-for-byte."""
    spec = RunSpec(
        index=0,
        app_name="SOR",
        preset="small",
        label="O",
        config=RunConfig(
            num_nodes=2, threads_per_node=1, telemetry=TelemetryConfig(interval_us=2000.0)
        ),
    )
    specs = [
        spec,
        RunSpec(**{**vars(spec), "index": 1}),
    ]
    serial = run_specs(specs, jobs=1)
    fanned = run_specs(specs, jobs=2)
    assert [r.to_json() for r in fanned] == [r.to_json() for r in serial]
    assert serial[0].telemetry is not None
    clone = RunReport.from_json(serial[0].to_json())
    assert clone.telemetry == serial[0].telemetry
    assert clone.to_json() == serial[0].to_json()


def test_lossy_adaptive_run_is_still_deterministic():
    def run():
        return DsmRuntime(
            RunConfig(
                num_nodes=4,
                threads_per_node=1,
                transport=TransportConfig(adaptive=True),
                fault_plan=FaultPlan(drop_prob=0.05),
                telemetry=TelemetryConfig(interval_us=2000.0),
            )
        ).execute(Sor(rows=48, cols=48, iterations=4))

    assert run().to_json() == run().to_json()
