"""End-to-end crash/recovery: a node dies mid-run, the cluster rolls
back to the last coordinated barrier checkpoint, and the application
still verifies — deterministically."""

from collections import Counter

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.dsm.backend import BACKEND_NAMES
from repro.metrics.counters import Category
from repro.network.faults import FaultPlan, NodeCrash
from tests.drf import Replay

NODES = 4


def run_once(app_name, plan=None, sanitizer=False, seed=11):
    config = RunConfig(
        num_nodes=NODES, seed=seed, fault_plan=plan, sanitizer=sanitizer
    )
    return DsmRuntime(config).execute(make_app(app_name, "small"))


def crash_plan(baseline, frac=0.5, node=2, **plan_kwargs):
    return FaultPlan(
        crashes=(NodeCrash(node=node, at_us=baseline.wall_time_us * frac),),
        **plan_kwargs,
    )


@pytest.mark.parametrize("app_name", ["SOR", "FFT", "RADIX", "WATER-NSQ", "WATER-SP"])
def test_crash_recovers_and_verifies(app_name):
    baseline = run_once(app_name)
    report = run_once(app_name, plan=crash_plan(baseline))  # verify=True inside
    ft = report.extra["ft"]
    assert ft["crashes"] == 1
    assert ft["detections"] == 1
    assert ft["recoveries"] == 1
    assert report.wall_time_us > baseline.wall_time_us


def test_recovery_costs_appear_as_categories():
    baseline = run_once("SOR")
    report = run_once("SOR", plan=crash_plan(baseline))
    times = report.breakdown.times
    assert times[Category.CHECKPOINT] > 0
    assert times[Category.RECOVERY] > 0
    assert times[Category.DOWNTIME] > 0
    ft = report.extra["ft"]
    assert ft["checkpoints"] >= 1
    assert ft["checkpoint_bytes"] > 0
    assert ft["heartbeats"] > 0
    # Downtime spans crash -> rollback: at least the suspicion timeout.
    assert ft["downtime_us"] >= 50_000.0


def test_crash_runs_are_deterministic():
    baseline = run_once("SOR")
    plan = crash_plan(baseline)
    first = run_once("SOR", plan=plan)
    second = run_once("SOR", plan=plan)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("app_name", ["SOR", "WATER-NSQ"])
def test_sanitizer_does_not_perturb_recovery(app_name):
    baseline = run_once(app_name)
    plan = crash_plan(baseline)
    plain = run_once(app_name, plan=plan)
    checked = run_once(app_name, plan=plan, sanitizer=True)
    assert plain.to_json() == checked.to_json()


def test_crash_under_message_loss():
    """Chaos: 5% datagram loss plus a crash, sanitizer on throughout."""
    baseline = run_once("SOR")
    plan = crash_plan(baseline, drop_prob=0.05)
    report = run_once("SOR", plan=plan, sanitizer=True)
    assert report.extra["ft"]["recoveries"] == 1
    assert report.message_drops > 0


def test_crash_before_first_barrier_uses_initial_checkpoint():
    """A crash before any barrier rolls back to the initial checkpoint."""
    plan = FaultPlan(crashes=(NodeCrash(node=1, at_us=40.0),))
    report = run_once("SOR", plan=plan)
    assert report.extra["ft"]["recoveries"] == 1


def test_two_crashes_two_recoveries():
    baseline = run_once("SOR")
    wall = baseline.wall_time_us
    plan = FaultPlan(
        crashes=(
            NodeCrash(node=2, at_us=wall * 0.3),
            NodeCrash(node=3, at_us=wall * 1.1),
        )
    )
    report = run_once("SOR", plan=plan)
    ft = report.extra["ft"]
    assert ft["crashes"] == 2
    assert ft["recoveries"] == 2


@pytest.mark.parametrize("protocol", BACKEND_NAMES)
@pytest.mark.parametrize("frac", [0.5, 0.7])
def test_span_ids_stay_unique_across_a_rollback(protocol, frac):
    """Perfetto pairs async ``b``/``e`` by ``(name, id)``: a span left
    open by the crash must not share its id with a post-recovery one,
    so the request-id counter is not part of the rolled-back state."""

    def traced(plan=None):
        config = RunConfig(
            num_nodes=NODES, seed=11, protocol=protocol, fault_plan=plan, trace=True
        )
        runtime = DsmRuntime(config)
        report = runtime.execute(make_app("SOR", "small"))  # verify=True inside
        return report, runtime.tracer.events

    baseline, _ = traced()
    plan = crash_plan(baseline, frac=frac)
    report, events = traced(plan)
    assert report.extra["ft"]["recoveries"] == 1
    begun = Counter((event.name, event.id) for event in events if event.ph == "b")
    assert [key for key, count in begun.items() if count > 1] == []
    assert traced(plan)[0].to_json() == report.to_json()


def test_sc_done_resent_after_a_rollback_ends_no_later_transaction():
    """DESIGN.md §8 bug 8, the first a generated program found.

    The checkpoint cut catches an ``SC_DONE`` in flight.  After the
    rollback the transport re-sends it, the restored receive window has
    never seen it, and it used to end whatever transaction the page's
    directory was running then: two writers overlapped, lock adds were
    lost (counters 17, 16, 15 for 20) and barrier cells came out one
    phase stale.
    """
    cells, locks, table = 8, 3, [[] for _ in range(NODES)]
    for phase in range(5):
        for tid, ops in enumerate(table):
            ops += [("barrier",)] * bool(phase) + [("compute", 1000.0)]
            ops += [("add", cells + lock, lock, 1) for lock in range(locks)]
            for cell in range((tid - phase) % NODES, cells, NODES):
                ops += [("read", cell), ("write", cell, 1000 * (phase + 1) + cell)]
    plan = {
        "crashes": [{"node": 1, "at_us": 60347.3}],
        "corruptions": [{"start_us": 16433.5, "end_us": 86669.1, "prob": 0.052}],
        "duplicate_prob": 0.0284,
        "reorder_prob": 0.1394,
        "jitter_us": 464.7,
    }
    config = RunConfig(num_nodes=NODES, protocol="sc", seed=5, fault_plan=FaultPlan.from_dict(plan))
    report = DsmRuntime(config).execute(Replay(table, cells + locks))  # verify=True inside
    assert report.extra["ft"]["recoveries"] == 1
