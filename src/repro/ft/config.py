"""Configuration for the fault-tolerance layer."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FtConfig"]


@dataclass(frozen=True)
class FtConfig:
    """Turns the fault-tolerance layer on (``RunConfig(ft=FtConfig())``).

    Its timings are module constants: detection in
    :mod:`repro.ft.detector`, checkpointing and recovery in
    :mod:`repro.ft.manager`.
    """

    #: TEST-ONLY: plant the split-brain bug the chaos harness must
    #: catch — the barrier manager treats fenced nodes as arrived
    #: (completing barriers without them) and the checkpoint stand-down
    #: guard is skipped, so a cut spanning the membership split can
    #: commit.  Never enable outside the chaos/invariant tests.
    split_brain_bug: bool = False
