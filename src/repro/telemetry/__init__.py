"""Deterministic sim-time telemetry: flight recorder, watchdogs, rendering.

``repro.telemetry`` is the time-resolved view of a run: per-node time
series of gauges and counter deltas, folded from the run's trace after
the run (:func:`section_from_events`), watchdog monitors
(:func:`run_watchdogs`) that grade those series for mid-run pathologies
the end-of-run aggregates hide, and offline renderers
(``python -m repro.telemetry``) for self-contained dashboards.  Like the
profile and the critical path, ``RunConfig(telemetry=...)`` only turns
on event collection: the simulator takes no hook of its own, so the
report core is byte-identical with the plane on or off.
"""

from repro.telemetry.sampler import (
    DELTA_METRICS,
    GAUGE_METRICS,
    NETWORK_METRICS,
    PEER_METRICS,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryConfig,
    section_from_events,
)
from repro.telemetry.watchdog import run_watchdogs

__all__ = [
    "TelemetryConfig",
    "section_from_events",
    "run_watchdogs",
    "TELEMETRY_SCHEMA_VERSION",
    "GAUGE_METRICS",
    "DELTA_METRICS",
    "PEER_METRICS",
    "NETWORK_METRICS",
]
