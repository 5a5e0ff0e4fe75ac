"""Deep profiling: latency histograms and hot-entity attribution.

- :mod:`repro.profile.histogram` — deterministic log-bucketed
  :class:`Histogram` (p50/p90/p99/max, mergeable across nodes);
- :mod:`repro.profile.registry` — named histograms + counters per node;
- :mod:`repro.profile.profiler` — :func:`profile_from_events`, a fold
  over a run's trace into hot page/lock/barrier tables and the
  RunReport ``profile`` section.

Enable per run with ``RunConfig(profile=True)`` or ``--profile`` on the
CLIs: the run records an in-memory trace and folds it at report time.
The simulator holds no profiling hooks, so a profiled run's other
report sections are byte-identical to an unprofiled one's.
``python -m repro.explain`` tabulates, and with ``--tolerance`` gates,
the metrics of profiled report and bench JSON files.
"""

from repro.profile.histogram import SUBBUCKETS, Histogram
from repro.profile.profiler import (
    PROFILE_SCHEMA_VERSION,
    Profile,
    ProfileConfig,
    fold_events,
    profile_from_events,
)
from repro.profile.registry import MetricsRegistry

__all__ = [
    "Histogram",
    "SUBBUCKETS",
    "MetricsRegistry",
    "Profile",
    "ProfileConfig",
    "fold_events",
    "profile_from_events",
    "PROFILE_SCHEMA_VERSION",
]
