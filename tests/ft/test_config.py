"""Validation of the fault-tolerance configuration surface, and the
relations the FT and transport timing constants keep."""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.errors import ConfigError, FailureError, FaultConfigError
from repro.ft import detector, manager
from repro.network import transport
from repro.network.faults import FaultPlan, LinkPartition, NodeCrash


def test_defaults_are_valid():
    """The relations the FT and transport timing constants must keep."""
    # Suspicion must exceed two heartbeat periods or every node is
    # permanently suspect.
    assert 0 < detector.HEARTBEAT_PERIOD_US
    assert detector.SUSPICION_TIMEOUT_US > 2 * detector.HEARTBEAT_PERIOD_US
    assert detector.SUSPICION_TTL_US >= 0 and detector.SUSPICION_QUORUM >= 1
    assert manager.PARTITION_GRACE_US >= 0 and manager.RESTART_DELAY_US >= 0
    assert manager.CHECKPOINT_EVERY >= 1
    assert manager.CHECKPOINT_CPU_PER_BYTE >= 0 and manager.RESTORE_CPU_PER_BYTE >= 0
    # The base timeout is also the adaptive estimator's first RTO.
    assert 0 < transport.MIN_RTO_US <= transport.TIMEOUT_US <= transport.MAX_RTO_US
    assert 1 <= transport.CWND_INIT <= transport.CWND_MAX
    assert transport.MAX_RETRIES >= 0 and transport.GIVE_UP_US > 0
    assert 0.0 <= transport.JITTER_FRAC <= 1.0


def test_crash_event_validation():
    with pytest.raises(FaultConfigError):
        NodeCrash(node=-1, at_us=100.0)
    with pytest.raises(FaultConfigError):
        NodeCrash(node=1, at_us=0.0)


def test_node_zero_cannot_crash():
    plan = FaultPlan(crashes=(NodeCrash(node=0, at_us=1000.0),))
    with pytest.raises(FailureError, match="node 0 cannot crash"):
        DsmRuntime(RunConfig(num_nodes=2, fault_plan=plan))


def test_crash_of_unknown_node_rejected():
    plan = FaultPlan(crashes=(NodeCrash(node=7, at_us=1000.0),))
    with pytest.raises(ConfigError, match="unknown node"):
        DsmRuntime(RunConfig(num_nodes=4, fault_plan=plan))


def test_crash_plan_auto_enables_ft():
    plan = FaultPlan(crashes=(NodeCrash(node=1, at_us=1000.0),))
    config = RunConfig(num_nodes=2, fault_plan=plan)
    assert config.ft is True
    runtime = DsmRuntime(config)
    assert runtime.ft is not None


def test_no_crashes_means_no_ft_layer():
    runtime = DsmRuntime(RunConfig(num_nodes=2, fault_plan=FaultPlan(drop_prob=0.01)))
    assert runtime.ft is None


def test_partition_plan_auto_enables_ft():
    cut = LinkPartition(start_us=1000.0, end_us=2000.0, nodes={1})
    assert RunConfig(num_nodes=2, fault_plan=FaultPlan(partitions=(cut,))).ft is True


def test_ft_is_a_switch():
    assert DsmRuntime(RunConfig(num_nodes=2, ft=True)).ft is not None
    with pytest.raises(ConfigError, match="ft must be a bool"):
        RunConfig(ft="on")
