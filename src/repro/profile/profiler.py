"""The run profile: latency distributions plus hot-entity attribution,
folded from the run's trace.

The aggregate counters (:mod:`repro.metrics`) answer "how much time",
the tracer (:mod:`repro.trace`) answers "in what order"; the profile
answers the paper's attribution questions — *which* pages miss, *which*
locks serialize, *which* barriers skew, and what the latency
distributions look like — without hand-reading a Perfetto trace.

It is a reader of the trace, like :mod:`repro.critpath`: the simulator
holds no profiling hooks, and :func:`fold_events` reads a run's event
stream once, in stream order, into

- **cluster-wide** log-bucketed latency histograms (page-fault service
  time, diff-fetch and home-fetch round trips, stalls, lock
  acquire/hold/wait, barrier arrival skew and waits, prefetch lead time,
  transport retransmit delay, RTT and RTO), each sample tagged with the
  node whose event it is, and named counters (transport pacing and
  give-ups, shed prefetches);
- **hot-entity tables** keyed by page id / lock id / barrier id:
  faults, diffs and bytes fetched, twin creations, and wait time per
  entity — the data behind the paper's per-application analyses (OCEAN
  boundary pages, RADIX permutation-phase traffic, ...).

``RunConfig(profile=...)`` records an in-memory trace for it, the way
``critpath=True`` does.  Each sample is taken at the event emitted where
the fact happened, and a duration is one subtraction of two instants the
trace carries (an instant's ``since`` argument, or its span's begin), so
every float sum accumulates in the order the run produced its terms.

The profile is *monotone*: a crash rollback never rewinds it, so a
recovered run's profile includes the discarded execution's work — redone
work is real work, exactly like the event counters.  What a rollback
does to a sample in progress:

- a stall span still open at the ``recover`` instant (the rollback) is
  not sampled; the restart closes it in the trace after that instant;
- a barrier arrival still waiting at ``recover`` is not sampled: its
  thread rejoins the restored episode without arriving again;
- a page fault, round trip or lock wait cut off by the rollback never
  emits its closing event, so it is not sampled either (a lock wait's
  start rides on its close);
- a barrier's skew window is *kept*: opened by the episode's first
  gather, it closes when the episode completes, so an episode re-run
  after a rollback measures its skew from the first gather before it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.errors import ConfigError
from repro.profile.histogram import Histogram

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "ProfileConfig",
    "Profile",
    "fold_events",
    "profile_from_events",
]

#: Version of the ``profile`` section embedded in RunReport JSON.
PROFILE_SCHEMA_VERSION = 1

#: Ranking key per entity kind: primary metric (descending), with the
#: remaining metrics and the entity id as deterministic tie-breaks.
_RANK_METRIC = {"page": "stall_us", "lock": "wait_us", "barrier": "wait_us"}


@dataclass(frozen=True)
class ProfileConfig:
    """How a run's profile is reported."""

    #: Entries per hot-entity table in the report's profile section.
    top_n: int = 10

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {self.top_n}")


class Profile:
    """Distributions and per-entity attribution of one run."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        #: name -> the cluster-wide distribution.
        self.histograms: defaultdict[str, Histogram] = defaultdict(Histogram)
        #: name -> the cluster-wide event count.
        self.counters: Counter[str] = Counter()
        #: kind -> entity id -> metric -> value; kinds are "page",
        #: "lock", "barrier".
        self.entities: dict[str, dict[int, dict[str, float]]] = {
            "page": {},
            "lock": {},
            "barrier": {},
        }

    def top(self, kind: str, n: int = 10) -> list[tuple[int, dict[str, float]]]:
        """The top-n entities of a kind, ranked by the kind's primary
        metric descending, deterministic under ties."""
        metric = _RANK_METRIC[kind]
        ranked = sorted(
            self.entities[kind].items(),
            key=lambda item: (-item[1].get(metric, 0.0), item[0]),
        )
        return ranked[:n]

    def to_dict(self, space: Any = None, top_n: int = 10) -> dict:
        """The versioned ``profile`` section for :class:`RunReport`.

        ``space`` (a :class:`~repro.memory.address.SharedAddressSpace`)
        is optional; when given, hot pages are annotated with the name
        of the segment they fall in — "which array is hot", not just
        "which page id".
        """
        histograms: dict[str, dict] = {}
        for name, histogram in sorted(self.histograms.items()):
            entry: dict[str, Any] = histogram.to_dict()
            entry.update(
                p50=histogram.quantile(0.50),
                p90=histogram.quantile(0.90),
                p99=histogram.quantile(0.99),
                mean=histogram.mean,
            )
            histograms[name] = entry
        return {
            "version": PROFILE_SCHEMA_VERSION,
            "num_nodes": self.num_nodes,
            "histograms": histograms,
            "counters": dict(sorted(self.counters.items())),
            "hot_pages": [
                {"page": page_id, "segment": _segment_name(space, page_id), **_rounded(stats)}
                for page_id, stats in self.top("page", top_n)
            ],
            "hot_locks": [
                {"lock": lock_id, **_rounded(stats)} for lock_id, stats in self.top("lock", top_n)
            ],
            "hot_barriers": [
                {"barrier": barrier_id, **_rounded(stats)}
                for barrier_id, stats in self.top("barrier", top_n)
            ],
        }


def _rounded(stats: dict[str, float]) -> dict[str, float]:
    """Stable key order; integral metrics rendered as ints."""
    out: dict[str, float] = {}
    for metric in sorted(stats):
        value = stats[metric]
        out[metric] = int(value) if float(value).is_integer() else value
    return out


def _segment_name(space: Any, page_id: int) -> Optional[str]:
    if space is None:
        return None
    addr = page_id * space.page_size
    for segment in space.segments():
        if segment.base <= addr < segment.end:
            return segment.name
    return None


#: Async spans whose length is a histogram of the same name (``<span>_us``).
_SPANS = ("page_fault", "diff_rtt", "home_fetch")
#: Instants that close a duration begun at their ``since`` argument, and
#: the histogram it is sampled into (``since < 0``: nothing to sample).
_SINCE = {
    "lock_acquire": "lock_acquire_us",
    "lock_release": "lock_hold_us",
    "retransmit": "retransmit_delay_us",
    "prefetch_take": "prefetch_lead_us",
}
#: Instants that count one page fact, and the hot-page metric it adds to.
_PAGE_COUNTS = {
    "twin_create": "twins",
    "diff_serve": "diffs_served",
    "page_serve": "pages_served",
    "home_update": "home_updates",
    "sc_invalidate": "invalidations",
}
#: A barrier episode's completion instants: the first closes its skew window.
_COMPLETIONS = ("barrier_release", "checkpoint", "checkpoint_stood_down")
#: Every name a branch of :func:`fold_events` reads (a new branch adds its
#: name here); the fold drops every other event before it reads ``args``.
_READS = frozenset(
    (*_SPANS, *_SINCE, *_PAGE_COUNTS, *_COMPLETIONS, "stall:memory", "stall:lock",
     "stall:barrier", "diff_apply", "page_install", "sc_txn", "lock_wait", "lock_handoff",
     "barrier_arrive", "barrier_resume", "barrier_gather", "recover", "transport_paced",
     "prefetch_shed", "retries_exhausted", "rto_update")
)


def fold_events(events: Iterable[Any], num_nodes: int) -> Profile:
    """Fold a run's trace events, in stream order."""
    profile = Profile(num_nodes)
    histograms, counters, tables = profile.histograms, profile.counters, profile.entities
    opened: dict = {}  # open async spans (faults, round trips): id -> (begin, args)
    stalls: dict = {}  # open stall spans: (node, tid) -> begin
    arrivals: dict = {}  # waiting barrier arrivals: (node, barrier, episode) -> instants
    gathers: dict = {}  # open skew windows: (barrier, episode) -> first gather

    def add(kind: str, entity_id: int, metric: str, amount: float = 1.0) -> None:
        stats = tables[kind].setdefault(entity_id, {})
        stats[metric] = stats.get(metric, 0.0) + amount

    for event in events:
        if event.name not in _READS or event.ph == "X":  # a CPU slice (one is ``checkpoint``)
            continue
        ts, ph, _cat, name, node, tid, _dur, eid, args = event
        args = args or {}
        if name in _SPANS and ph == "b":
            opened[eid] = (ts, args)
            if name != "diff_rtt":
                add("page", args["page"], "faults" if name == "page_fault" else "home_fetches")
        elif name in _SPANS:
            begun, begin_args = opened.pop(eid)
            histograms[f"{name}_us"].record(ts - begun, node)
            if name == "page_fault":
                add("page", begin_args["page"], "stall_us", ts - begun)
                if args["remote"]:
                    add("page", begin_args["page"], "remote_faults")
        elif name.startswith("stall:"):
            key = (node, tid)
            if ph == "B":
                stalls[key] = ts
            elif key in stalls:  # else closed by the restart after ``recover``
                histograms[f"stall_{name[6:]}_us"].record(ts - stalls.pop(key), node)
        elif name in _PAGE_COUNTS:
            add("page", args["page"], _PAGE_COUNTS[name])
        elif name in ("diff_apply", "page_install"):
            add("page", args["page"], "diffs" if name == "diff_apply" else "page_fetches")
            add("page", args["page"], "bytes", args["bytes"])
        elif name == "sc_txn" and ph == "b" and args["mode"] == "write":
            # A write fault runs exactly one ownership transaction.
            add("page", args["page"], "write_faults")
        elif name in _SINCE and args["since"] >= 0:
            histograms[_SINCE[name]].record(ts - args["since"], node)
            if name == "lock_acquire":
                add("lock", args["lock"], "acquires")
            elif name == "lock_release":
                add("lock", args["lock"], "hold_us", ts - args["since"])
        elif (name == "lock_wait" and ph == "e") or name == "lock_handoff":
            waited = ts - args["since"]
            histograms["lock_wait_us"].record(waited, node)
            histograms["lock_acquire_us"].record(waited, node)
            add("lock", args["lock"], "wait_us", waited)
            add("lock", args["lock"], "acquires")
            if name == "lock_handoff":
                add("lock", args["lock"], "handoffs")
        elif name == "barrier_arrive":
            arrivals.setdefault((node, args["barrier"], args["episode"]), []).append(ts)
        elif name == "barrier_resume":
            for arrived in arrivals.pop((node, args["barrier"], args["episode"]), ()):
                histograms["barrier_wait_us"].record(ts - arrived, node)
                add("barrier", args["barrier"], "wait_us", ts - arrived)
                add("barrier", args["barrier"], "waits")
        elif name == "barrier_gather":
            gathers.setdefault((args["barrier"], args["episode"]), ts)
        elif name in _COMPLETIONS and (args["barrier"], args["episode"]) in gathers:
            skew = ts - gathers.pop((args["barrier"], args["episode"]))
            histograms["barrier_skew_us"].record(skew, node)
            add("barrier", args["barrier"], "skew_us", skew)
            add("barrier", args["barrier"], "episodes")
        elif name == "recover":
            stalls.clear()
            arrivals.clear()
        elif name in ("transport_paced", "prefetch_shed"):
            counters[name] += 1
        elif name == "retries_exhausted":
            counters["transport_retries_exhausted"] += 1
            counters[f"transport_retries_exhausted:{args['kind']}"] += 1
        elif name == "rto_update":
            histograms["transport_rtt_us"].record(args["sample"], node)
            histograms["transport_rto_us"].record(args["rto"], node)
    return profile


def profile_from_events(
    events: Iterable[Any], space: Any = None, num_nodes: int = 1, top_n: int = 10
) -> dict:
    """The ``profile`` report section of a run, folded from its trace."""
    return fold_events(events, num_nodes).to_dict(space, top_n)
