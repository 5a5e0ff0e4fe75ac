"""The run profiler: latency distributions plus hot-entity attribution.

The aggregate counters (:mod:`repro.metrics`) answer "how much time",
the tracer (:mod:`repro.trace`) answers "in what order"; this module
answers the paper's attribution questions — *which* pages miss, *which*
locks serialize, *which* barriers skew, and what the latency
distributions look like — without hand-reading a Perfetto trace.

A :class:`Profiler` is attached to the :class:`~repro.sim.Simulator`
(as ``sim.profile``), mirroring the ``NULL_TRACER`` / ``NULL_SANITIZER``
pattern: the default is :data:`NULL_PROFILER` whose ``enabled`` is
False, so unprofiled runs pay one attribute check per hook site and
build nothing.  When enabled it collects:

- **per-node** :class:`~repro.profile.registry.MetricsRegistry` objects
  holding log-bucketed latency histograms (page-fault service time,
  diff-fetch RTT, lock acquire/hold/wait, barrier arrival skew and
  waits, prefetch lead time, transport retransmit delay) and named
  counters (sanitizer violations, transport give-ups);
- **hot-entity tables** keyed by page id / lock id / barrier id:
  faults, diffs and bytes fetched, twin creations, and wait time per
  entity — the data behind the paper's per-application analyses (OCEAN
  boundary pages, RADIX permutation-phase traffic, ...).

Observation discipline: hooks only read ``sim.now`` and append to plain
Python structures — no RNG draws, no simulator scheduling, no protocol
state.  A profiled run therefore produces a byte-identical
:class:`~repro.metrics.report.RunReport` core (determinism guard test).
Profiler state is *monotone*: a crash rollback never rewinds it, so the
profile of a recovered run includes the discarded execution's work —
redone work is real work, exactly like the event counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.errors import ConfigError
from repro.profile.registry import MetricsRegistry

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "ProfileConfig",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
]

#: Version of the ``profile`` section embedded in RunReport JSON.
PROFILE_SCHEMA_VERSION = 1

#: Ranking key per entity kind: primary metric (descending), with the
#: remaining metrics and the entity id as deterministic tie-breaks.
_RANK_METRIC = {"page": "stall_us", "lock": "wait_us", "barrier": "wait_us"}


@dataclass(frozen=True)
class ProfileConfig:
    """How a run's profiler reports its data."""

    #: Entries per hot-entity table in the report's profile section.
    top_n: int = 10

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {self.top_n}")


class Profiler:
    """Collects distributions and per-entity attribution for one run."""

    enabled = True

    def __init__(self, config: Optional[ProfileConfig] = None, num_nodes: int = 1) -> None:
        self.config = config or ProfileConfig()
        self.num_nodes = num_nodes
        self.registries = [MetricsRegistry() for _ in range(num_nodes)]
        #: kind -> entity id -> metric -> value; kinds are "page",
        #: "lock", "barrier".
        self.entities: dict[str, dict[int, dict[str, float]]] = {
            "page": {},
            "lock": {},
            "barrier": {},
        }
        #: Open measurement spans (first-begin wins), e.g. barrier
        #: episode arrival windows.  Transient bookkeeping only — a span
        #: orphaned by a crash rollback simply never records.
        self._spans: dict[Hashable, float] = {}

    # -- recording ---------------------------------------------------------

    def node(self, node_id: int) -> MetricsRegistry:
        return self.registries[node_id]

    def observe(self, node_id: int, name: str, value: float) -> None:
        self.registries[node_id].observe(name, value)

    def count(self, node_id: int, name: str, n: int = 1) -> None:
        self.registries[node_id].count(name, n)

    def entity_add(self, kind: str, entity_id: int, metric: str, amount: float = 1.0) -> None:
        table = self.entities[kind]
        stats = table.get(entity_id)
        if stats is None:
            stats = {}
            table[entity_id] = stats
        stats[metric] = stats.get(metric, 0.0) + amount

    def span_begin(self, key: Hashable, now: float) -> None:
        """Open a measurement span; the first begin for a key wins."""
        self._spans.setdefault(key, now)

    def span_end(self, key: Hashable, now: float) -> Optional[float]:
        """Close a span; returns its duration, or None if never opened."""
        started = self._spans.pop(key, None)
        if started is None:
            return None
        return now - started

    # -- queries -----------------------------------------------------------

    def merged(self) -> MetricsRegistry:
        """Cluster-wide registry: the per-node registries folded in node
        order (the result is order-independent; see the merge tests)."""
        return MetricsRegistry.merge(self.registries)

    def top(self, kind: str, n: Optional[int] = None) -> list[tuple[int, dict[str, float]]]:
        """The top-n entities of a kind, ranked by the kind's primary
        metric descending, deterministic under ties."""
        metric = _RANK_METRIC[kind]
        table = self.entities[kind]
        ranked = sorted(
            table.items(),
            key=lambda item: (-item[1].get(metric, 0.0), item[0]),
        )
        return ranked[: n if n is not None else self.config.top_n]

    # -- report section ----------------------------------------------------

    def to_dict(self, space: Any = None) -> dict:
        """The versioned ``profile`` section for :class:`RunReport`.

        ``space`` (a :class:`~repro.memory.address.SharedAddressSpace`)
        is optional; when given, hot pages are annotated with the name
        of the segment they fall in — "which array is hot", not just
        "which page id".
        """
        merged = self.merged()
        histograms: dict[str, dict] = {}
        for name in sorted(merged.histograms):
            histogram = merged.histograms[name]
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
            "counters": merged.to_dict()["counters"],
            "hot_pages": [
                {"page": page_id, "segment": _segment_name(space, page_id), **_rounded(stats)}
                for page_id, stats in self.top("page")
            ],
            "hot_locks": [
                {"lock": lock_id, **_rounded(stats)} for lock_id, stats in self.top("lock")
            ],
            "hot_barriers": [
                {"barrier": barrier_id, **_rounded(stats)}
                for barrier_id, stats in self.top("barrier")
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


class NullProfiler(Profiler):
    """The default profiler: collects nothing, costs one attribute check.

    Hook sites are written as::

        pf = self.sim.profile
        if pf.enabled:
            pf.observe(...)

    so with the null profiler installed the per-hook cost is a boolean
    load and branch.  The recording methods are still no-ops (not
    errors) as a second line of defence.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(ProfileConfig(), num_nodes=1)

    def observe(self, node_id: int, name: str, value: float) -> None:  # pragma: no cover
        pass

    def count(self, node_id: int, name: str, n: int = 1) -> None:  # pragma: no cover
        pass

    def entity_add(  # pragma: no cover - defensive
        self, kind: str, entity_id: int, metric: str, amount: float = 1.0
    ) -> None:
        pass

    def span_begin(self, key: Hashable, now: float) -> None:  # pragma: no cover
        pass

    def span_end(self, key: Hashable, now: float) -> Optional[float]:  # pragma: no cover
        return None


#: Shared do-nothing profiler; installed on every Simulator by default.
NULL_PROFILER = NullProfiler()
