"""Deterministic sim-time telemetry: flight recorder, watchdogs, rendering.

``repro.telemetry`` is the observability plane over the simulator: an
opt-in windowed sampler (:class:`TelemetrySampler`) that records
per-node time series into the RunReport, watchdog monitors
(:func:`run_watchdogs`) that grade those series for mid-run pathologies
the end-of-run aggregates hide, and offline renderers
(``python -m repro.telemetry``) for self-contained dashboards.  Like
the tracer and sanitizer, the default is a NULL object
(:data:`NULL_TELEMETRY`) whose cost is one cached-boolean check in the
run loop — disabled runs are byte-identical to a build without the
plane at all.
"""

from repro.telemetry.sampler import (
    DELTA_METRICS,
    GAUGE_METRICS,
    NETWORK_METRICS,
    NULL_TELEMETRY,
    PEER_METRICS,
    TELEMETRY_SCHEMA_VERSION,
    NullTelemetry,
    TelemetryConfig,
    TelemetrySampler,
)
from repro.telemetry.watchdog import run_watchdogs

__all__ = [
    "TelemetryConfig",
    "TelemetrySampler",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "run_watchdogs",
    "TELEMETRY_SCHEMA_VERSION",
    "GAUGE_METRICS",
    "DELTA_METRICS",
    "PEER_METRICS",
    "NETWORK_METRICS",
]
