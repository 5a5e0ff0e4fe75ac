"""Chaos integration tests: every benchmark must survive a lossy,
reordering, duplicating network and still compute the right answer.

The reliable transport (sequence numbers, acks, timeout/retry/backoff,
duplicate suppression) is what makes this true; these tests are the
end-to-end proof that the DSM protocol needs nothing from the wire
beyond best-effort datagrams — the paper's actual UDP/AAL5 substrate.
"""

import numpy as np
import pytest

from repro import DsmRuntime, RunConfig
from repro.apps import APP_ORDER, make_app
from repro.network import FaultPlan, TransportConfig
from repro.network import transport as reliable

#: A plainly hostile network: one in twenty datagrams vanishes, some are
#: duplicated, a fifth are jittered enough to reorder.
CHAOS_PLAN = FaultPlan(
    drop_prob=0.05,
    duplicate_prob=0.02,
    reorder_prob=0.2,
    jitter_us=200.0,
)


def run(app_name, fault_plan=None, seed=42, **config_kwargs):
    config = RunConfig(
        num_nodes=4,
        seed=seed,
        fault_plan=fault_plan,
        **config_kwargs,
    )
    runtime = DsmRuntime(config)
    app = make_app(app_name, preset="small")
    app.use_prefetch = config.prefetch
    report = runtime.execute(app)
    runtime.app = app
    return runtime, report


@pytest.mark.parametrize("app_name", APP_ORDER)
def test_every_app_survives_chaos(app_name):
    """Each benchmark completes AND verifies (the app checks its own
    numerical results against a sequential reference) under loss."""
    _, report = run(app_name, fault_plan=CHAOS_PLAN)
    assert report.wall_time_us > 0
    # The network really was hostile...
    assert sum(report.injected_faults.values()) > 0
    assert report.injected_faults.get("drop", 0) > 0
    # ...and the transport really did the recovering.
    assert report.retransmissions > 0
    assert report.events.transport_timeouts >= report.retransmissions
    assert report.events.acks_sent > 0


def test_chaos_results_identical_to_fault_free_run():
    """Loss changes timing, never answers: the final grid is
    bit-identical with and without the fault plan."""
    clean_rt, clean = run("SOR")
    chaos_rt, chaos = run("SOR", fault_plan=CHAOS_PLAN)
    clean_grid = clean_rt.read_matrix(clean_rt.app.grid)
    chaos_grid = chaos_rt.read_matrix(chaos_rt.app.grid)
    assert np.array_equal(clean_grid, chaos_grid)
    # The chaos run paid for its recovery in time and messages.
    assert chaos.retransmissions > 0
    assert chaos.total_messages > clean.total_messages


def test_chaos_run_is_deterministic():
    """Same seed + same plan => bit-for-bit the same simulation."""

    def fingerprint():
        runtime, report = run("SOR", fault_plan=CHAOS_PLAN, seed=7)
        return (
            report.wall_time_us,
            report.total_messages,
            report.retransmissions,
            tuple(sorted(report.injected_faults.items())),
            runtime.cluster.sim.events_handled,
            report.events.duplicates_suppressed,
        )

    assert fingerprint() == fingerprint()


def test_different_seeds_draw_different_faults():
    _, a = run("SOR", fault_plan=CHAOS_PLAN, seed=1)
    _, b = run("SOR", fault_plan=CHAOS_PLAN, seed=2)
    assert a.injected_faults != b.injected_faults or a.wall_time_us != b.wall_time_us


def test_transport_disabled_still_works_on_clean_network():
    """Legacy mode: no transport, magically reliable links."""
    _, report = run("SOR", transport=None)
    assert report.retransmissions == 0
    assert report.events.acks_sent == 0


def test_prefetch_chaos_loses_requests_but_stays_correct(monkeypatch):
    """Prefetch traffic is unreliable end-to-end: drops are never
    retransmitted by the transport; the real access retries (once,
    reliably) and the miss is classified 'too late'."""
    # At 30% loss each attempt succeeds with ~half probability
    # (request and ack must both survive); give retries headroom.
    monkeypatch.setattr(reliable, "TIMEOUT_US", 3_000.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 30)
    runtime, report = run("SOR", fault_plan=FaultPlan(drop_prob=0.3), prefetch=True)
    stats = report.prefetch_stats
    assert stats is not None
    # Losses were observed by the senders (injected drops are
    # sender-visible) and nothing retried them at the transport.
    assert stats.drops_observed > 0
    assert report.traffic_by_kind["prefetch_request"]["retransmits"] == 0
    assert report.traffic_by_kind["prefetch_reply"]["retransmits"] == 0
    # Dropped prefetches surface as late misses, not wrong data.
    assert stats.late > 0


def test_prefetch_throttle_reduces_requests_under_heavy_loss(monkeypatch):
    """The drop-driven cool-off measurably cuts prefetch requests when
    the network is eating them (the paper's RADIX mitigation)."""
    _, clean = run("SOR", prefetch=True)
    monkeypatch.setattr(reliable, "TIMEOUT_US", 3_000.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 40)
    _, lossy = run("SOR", fault_plan=FaultPlan(drop_prob=0.5), prefetch=True)
    assert lossy.prefetch_stats.throttled > 0
    assert lossy.prefetch_stats.request_messages < clean.prefetch_stats.request_messages


def test_degradation_and_stall_windows_slow_but_do_not_break():
    from repro.network import LinkDegradation, NodeStall

    plan = FaultPlan(
        degradations=(
            LinkDegradation(start_us=0.0, end_us=20_000.0, bandwidth_factor=0.5),
        ),
        stalls=(NodeStall(node=1, start_us=0.0, end_us=15_000.0),),
    )
    _, clean = run("SOR")
    _, slowed = run("SOR", fault_plan=plan)
    assert slowed.wall_time_us > clean.wall_time_us
    assert slowed.injected_faults.get("degrade", 0) > 0
    assert slowed.injected_faults.get("stall", 0) > 0


def test_tight_timeout_budget_still_converges(monkeypatch):
    """An aggressive timeout with many retries trades extra duplicate
    suppression for liveness — and stays correct."""
    monkeypatch.setattr(reliable, "TIMEOUT_US", 1_500.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 20)
    _, report = run("SOR", fault_plan=CHAOS_PLAN)
    assert report.retransmissions > 0


def test_adaptive_transport_survives_combined_hazards_and_verifies():
    """Loss + bit corruption + a degradation window at once, on the
    adaptive transport: the app still computes the right answer (the
    run() helper verifies) and the recovery stays bounded — AIMD and
    the estimator must not let the hazards compound into a storm."""
    from repro.network import BitCorruption, LinkDegradation

    plan = FaultPlan(
        drop_prob=0.05,
        corruptions=(BitCorruption(start_us=0.0, end_us=500_000.0, prob=0.05),),
        degradations=(
            LinkDegradation(
                start_us=10_000.0, end_us=40_000.0, extra_latency_us=8_000.0
            ),
        ),
    )
    _, report = run("SOR", fault_plan=plan, transport=TransportConfig(adaptive=True))
    assert report.retransmissions > 0
    assert report.events.corruption_detected > 0
    # Bounded: a handful of recoveries per hazard event, not per message.
    hazards = report.injected_faults.get("drop", 0) + report.events.corruption_detected
    assert report.retransmissions <= 4 * hazards
    health = report.transport_health
    assert health is not None
    assert health["max_in_flight"] <= health["cwnd_max"]


def test_adaptive_off_is_byte_identical_to_default_transport():
    """The adaptive layer disabled must leave no trace: the whole
    RunReport serializes identically to a run on the default config."""
    _, default = run("SOR", fault_plan=CHAOS_PLAN)
    _, explicit = run(
        "SOR", fault_plan=CHAOS_PLAN, transport=TransportConfig(adaptive=False)
    )
    assert explicit.to_json(indent=2) == default.to_json(indent=2)


def test_adaptive_run_is_deterministic_end_to_end():
    """Same seed + same plan on the adaptive transport: byte-identical
    reports across runs."""
    _, first = run("FFT", fault_plan=CHAOS_PLAN, transport=TransportConfig(adaptive=True))
    _, second = run("FFT", fault_plan=CHAOS_PLAN, transport=TransportConfig(adaptive=True))
    assert first.to_json(indent=2) == second.to_json(indent=2)
