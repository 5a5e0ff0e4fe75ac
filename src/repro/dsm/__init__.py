"""TreadMarks-style lazy release consistency protocol."""

from repro.dsm.barriers import BarrierSubsystem
from repro.dsm.interval import DiffStore, IntervalManager, StoredDiff
from repro.dsm.locks import LockState, LockSubsystem
from repro.dsm.pagestate import PageCoherence
from repro.dsm.protocol import DsmNode
from repro.dsm.vclock import VectorClock
from repro.dsm.writenotice import IntervalRecord, WriteNoticeLog

__all__ = [
    "BarrierSubsystem",
    "DiffStore",
    "DsmNode",
    "IntervalManager",
    "IntervalRecord",
    "LockState",
    "LockSubsystem",
    "PageCoherence",
    "StoredDiff",
    "VectorClock",
    "WriteNoticeLog",
]
