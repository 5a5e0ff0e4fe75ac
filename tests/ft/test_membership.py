"""End-to-end membership: fencing, targeted rejoin, and partition
tolerance.  A node that goes quiet (stall or partition) is fenced, not
killed; when it proves itself alive again it rejoins with a targeted
re-sync and the run completes without a rollback.  Only a partition
that outlives the grace period costs a recovery."""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.network.faults import FaultPlan, LinkPartition, NodeStall

NODES = 4


def run_once(app_name="SOR", plan=None, seed=11):
    config = RunConfig(
        num_nodes=NODES,
        seed=seed,
        fault_plan=plan,
        sanitizer=True,
        ft=True,
    )
    return DsmRuntime(config).execute(make_app(app_name, "small"))


def test_give_up_on_stalled_node_fences_instead_of_killing():
    """Regression: transport retry exhaustion against a live-but-silent
    node must never be treated as a crash.  The 140 ms stall far
    outlives every retry budget; the node is fenced, rejoins when the
    stall lifts, and the run finishes with zero recoveries."""
    plan = FaultPlan(stalls=(NodeStall(node=1, start_us=10_000.0, end_us=150_000.0),))
    report = run_once(plan=plan)
    ft = report.extra["ft"]
    assert ft["fences"] == 1
    assert ft["rejoins"] == 1
    assert ft["recoveries"] == 0
    assert ft["crashes"] == 0


def test_short_stall_survives_suspicion_grace():
    """A stall shorter than suspicion timeout + TTL never even fences."""
    plan = FaultPlan(stalls=(NodeStall(node=1, start_us=10_000.0, end_us=40_000.0),))
    report = run_once(plan=plan)
    ft = report.extra["ft"]
    assert ft["fences"] == 0
    assert ft["recoveries"] == 0


def test_partition_heals_and_node_rejoins_without_rollback():
    """Isolate node 2 for 130 ms — long enough to be fenced and to span
    multiple barrier episodes — then heal.  The node rejoins via
    targeted re-sync; nobody rolls back; the app verifies."""
    plan = FaultPlan(
        partitions=(LinkPartition(start_us=20_000.0, end_us=150_000.0, nodes={2}),)
    )
    report = run_once(plan=plan)
    ft = report.extra["ft"]
    assert ft["fences"] >= 1
    assert ft["rejoins"] >= 1
    assert ft["recoveries"] == 0
    # The outage is visible in the wall clock.
    assert report.wall_time_us > 150_000.0


def test_partition_heal_is_deterministic():
    plan = FaultPlan(
        partitions=(LinkPartition(start_us=20_000.0, end_us=150_000.0, nodes={2}),)
    )
    first = run_once(plan=plan)
    second = run_once(plan=plan)
    assert first.to_json() == second.to_json()


def test_partition_beyond_grace_rolls_back():
    """A cut that outlives partition_grace_us forces the coordinator to
    give up on a heal and roll the cluster back."""
    plan = FaultPlan(
        partitions=(LinkPartition(start_us=20_000.0, end_us=400_000.0, nodes={2}),)
    )
    report = run_once(plan=plan)
    ft = report.extra["ft"]
    assert ft["fences"] >= 1
    assert ft["recoveries"] >= 1


def test_minority_coordinator_stands_down():
    """Cut the coordinator away from the other three nodes: it can hear
    only a minority, so it must not fence anyone while isolated.  After
    the heal the run completes without declaring the majority dead."""
    plan = FaultPlan(
        partitions=(LinkPartition(start_us=20_000.0, end_us=120_000.0, nodes={0}),)
    )
    report = run_once(plan=plan)
    ft = report.extra["ft"]
    # The majority (3 healthy nodes) was never rolled back wholesale.
    assert ft["recoveries"] == 0
    assert report.wall_time_us > 120_000.0


@pytest.mark.parametrize("app_name", ["FFT", "LU-CONT"])
def test_partition_heal_verifies_across_apps(app_name):
    plan = FaultPlan(
        partitions=(LinkPartition(start_us=20_000.0, end_us=150_000.0, nodes={1}),)
    )
    report = run_once(app_name=app_name, plan=plan)
    assert report.extra["ft"]["recoveries"] == 0
