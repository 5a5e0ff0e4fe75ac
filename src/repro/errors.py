"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class NetworkError(ReproError):
    """The network model was used incorrectly (bad node id, bad size...)."""


class PagedMemoryError(ReproError):
    """Paged-memory misuse (out-of-range address, bad allocation...)."""


class ProtocolError(ReproError):
    """The DSM coherence protocol reached an invalid state."""


class ProgramError(ReproError):
    """An application program misused the DSM API (e.g. releasing a lock
    it does not hold, unbalanced barrier arrivals)."""


class ConfigError(ReproError):
    """An experiment or system configuration is invalid."""


class FaultConfigError(ConfigError, ValueError):
    """A fault-injection plan is malformed (bad probability, window,
    unknown link, overlapping crash/partition...).  A
    :class:`ConfigError`, and also a :class:`ValueError`: plan
    validation failures name the offending field, and callers building
    plans from user input can catch the builtin type."""


class FailureError(ReproError):
    """The fault-tolerance layer hit an unrecoverable condition (e.g. a
    crash scheduled for a node that cannot fail, or a recovery attempted
    with no checkpoint available)."""


class CheckpointError(ReproError):
    """A checkpoint could not be taken or restored consistently."""
