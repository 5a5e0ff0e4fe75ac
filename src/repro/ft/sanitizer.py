"""The checkpoint-cut check: a reader of the trace.

:func:`check_events` folds a run's events after the run (DESIGN.md
§6.19).  ``RunConfig(sanitizer=True)`` records an in-memory trace for
it, and ``DsmRuntime.execute`` folds it after the run, before the report
and verification (over the partial trace, if the run raised).

It checks one invariant, under every protocol:

- **checkpoint cut spans every node** — a committed checkpoint's barrier
  episode holds an arrival from every node, gathered since the last
  rollback: a cut never spans a membership split.  Read from the
  manager's ``barrier_gather`` instants and the ``ft`` ``checkpoint``
  and ``recover`` instants, so it checks what the coordinator
  committed, not how its guard decided.

A violation raises :class:`~repro.errors.ProtocolError`.

The fold reads the trace after the run, so enabling it cannot perturb
the run: sanitizer-on and sanitizer-off runs produce bit-identical
reports and traces.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ProtocolError

__all__ = ["check_events"]

#: Every name :func:`check_events` reads; the fold drops every other
#: event before it reads ``args``.
_READS = frozenset(("barrier_gather", "checkpoint", "recover"))


def check_events(events: Iterable[Any], num_nodes: int) -> None:
    """Fold a run's trace events, in stream order; raise a
    :class:`~repro.errors.ProtocolError` at the first committed
    checkpoint whose barrier episode lacks a node's arrival.

    ``checkpoint`` is the ``ft`` instant, not the ``cpu`` slice of its
    cost; a ``recover`` forgets the discarded execution's arrivals.
    """
    gathered: dict[tuple[int, int], set[int]] = {}
    for event in events:
        if event.name not in _READS:
            continue
        _ts, _ph, cat, name, node, _tid, _dur, _eid, args = event
        if name == "barrier_gather":
            gathered.setdefault((args["barrier"], args["episode"]), set()).add(args["src"])
        elif name == "checkpoint" and cat == "ft":
            arrivals = sorted(gathered.get((args["barrier"], args["episode"]), ()))
            if len(arrivals) < num_nodes:
                raise ProtocolError(
                    f"sanitizer: checkpoint cut spans every node violated on node {node}: "
                    f"barrier {args['barrier']} episode {args['episode']} arrivals {arrivals}"
                )
        elif name == "recover":
            gathered.clear()
