"""Structured event tracing, timeline reconstruction, and exporters.

Enable with ``RunConfig(trace=True)``, or
``--trace out.json`` on the ``repro.apps`` / ``repro.experiments``
CLIs; open the exported JSON in https://ui.perfetto.dev or
``chrome://tracing``; ``python -m repro.trace.validate`` checks one.
"""

from repro.trace.export import chrome_trace, write_chrome_trace, write_jsonl
from repro.trace.timeline import PhaseTimeline
from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PhaseTimeline",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
