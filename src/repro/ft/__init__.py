"""Fault tolerance for the DSM: crash-stop failures, failure detection,
coordinated barrier-epoch checkpointing, recovery, and the checkpoint-cut
sanitizer.

The package layers *above* the message-level fault injection in
:mod:`repro.network.faults`: that module loses and delays messages, this
one loses whole machines.  See ``README.md`` (Fault tolerance) for the
model.
"""

from repro.ft.checkpoint import ClusterCheckpoint, NodeCheckpoint
from repro.ft.detector import FailureDetector
from repro.ft.manager import FtManager
from repro.ft.sanitizer import check_events

__all__ = [
    "ClusterCheckpoint",
    "FailureDetector",
    "FtManager",
    "NodeCheckpoint",
    "check_events",
]
