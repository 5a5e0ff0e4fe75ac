"""The critical path's fault-service rule, checked against its definition.

A ``dsm_overhead`` charge is ``fault_service`` exactly when some page fault
on its node has ``start <= slice.start <= end`` (a fault never closed ends
at +inf), and its entity is the page of the innermost such fault: the one
opened last.  Of faults opened at one instant, the innermost is the one
whose close comes last in the stream, and a fault still open at the end
closes after every closed one (still-open faults among themselves: the one
opened last).  The traces here are hand-built from a seeded generator, so
nested and overlapping faults, equal timestamps, duplicate intervals,
never-closed faults and faults without a page all occur; the analyzer's
own tests only see the two recorded runs.
"""

import math
import random

import pytest

from repro.critpath import build_pag
from repro.trace import TraceEvent

#: A coarse grid, so that starts, ends and slice boundaries often coincide.
GRID = tuple(float(t) for t in range(0, 40, 2))


def random_trace(rng, nodes=2):
    """(events, faults): the stream, and per fault (node, start, end, page, id)."""
    faults = []
    for node in range(nodes):
        for index in range(rng.randint(0, 7)):
            if faults and faults[-1][0] == node and rng.random() < 0.2:
                _, start, end, page, _ = faults[-1]  # a duplicate interval
            else:
                start = rng.choice(GRID)
                end = math.inf if rng.random() < 0.15 else start + rng.choice((0.0, 2.0, 4.0, 9.0))
                page = None if rng.random() < 0.15 else rng.randrange(6)
            faults.append((node, start, end, page, f"n{node}:f{index}"))
    events = []  # (ts, tie-break, event)
    for node, start, end, page, fid in faults:
        args = {} if page is None and rng.random() < 0.5 else {"page": page}
        begin = TraceEvent(start, "b", "protocol", "page_fault", node, id=fid, args=args or None)
        events.append((start, rng.random(), begin))
        if end != math.inf:
            close = TraceEvent(end, "e", "protocol", "page_fault", node, id=fid)
            events.append((end, rng.random(), close))
    for node in range(nodes):
        t = 0.0
        while t < GRID[-1] + 8:
            dur = rng.choice((0.0, 1.0, 2.0, 3.0))
            name = rng.choice(("dsm_overhead", "dsm_overhead", "busy"))
            events.append((t, rng.random(), TraceEvent(t, "X", "cpu", name, node, dur=dur)))
            t += dur + rng.choice((0.0, 0.0, 1.0))
    events.sort(key=lambda item: item[:2])
    stream = [event for _, _, event in events]
    # A zero-length fault must still open before it closes.
    for _, start, end, _, fid in faults:
        if start == end:
            where = [i for i, ev in enumerate(stream) if ev.id == fid]
            if stream[where[0]].ph == "e":
                stream[where[0]], stream[where[1]] = stream[where[1]], stream[where[0]]
    return stream, faults


def expected(stream, faults, node, start):
    """(category, entity) of a dsm_overhead charge on ``node`` at ``start``."""
    closed_at = {ev.id: i for i, ev in enumerate(stream) if ev.ph == "e"}
    opened_at = {ev.id: i for i, ev in enumerate(stream) if ev.ph == "b"}
    covering = [f for f in faults if f[0] == node and f[1] <= start <= f[2]]
    if not covering:
        return "dsm", None

    def order(fault):
        fid = fault[4]
        return (fault[1], closed_at.get(fid, len(stream) + opened_at[fid]))

    page = max(covering, key=order)[3]
    return "fault_service", None if page is None else f"page:{page}"


@pytest.mark.parametrize("seed", range(300))
def test_fault_service_matches_its_definition(seed):
    stream, faults = random_trace(random.Random(seed))
    pag = build_pag(stream)
    for node, chain in pag.slices.items():
        for sl in chain:
            if sl.name == "dsm_overhead":
                assert (sl.category, sl.entity) == expected(stream, faults, node, sl.start), (
                    f"node {node} slice at {sl.start}"
                )
            else:
                assert (sl.category, sl.entity) == ("cpu", None)


def test_the_generator_reaches_every_case():
    """Not vacuous: over the seeds, every case the rule has to get right occurs."""
    seen = set()
    for seed in range(300):
        stream, faults = random_trace(random.Random(seed))
        for a in faults:
            if a[2] == math.inf:
                seen.add("open at end")
            if a[3] is None:
                seen.add("no page")
            for b in faults:
                if a is b or a[0] != b[0]:
                    continue
                if a[1:4] == b[1:4]:
                    seen.add("duplicate")
                elif a[1] == b[1]:
                    seen.add("equal starts")
                elif a[1] < b[1] and b[2] <= a[2]:
                    seen.add("nested")
                elif a[1] < b[1] <= a[2] < b[2]:
                    seen.add("overlapping")
        pag = build_pag(stream)
        for node, chain in pag.slices.items():
            for sl in chain:
                if sl.category == "fault_service":
                    covering = [f for f in faults if f[0] == node and f[1] <= sl.start <= f[2]]
                    if len({f[3] for f in covering}) > 1:
                        seen.add("service under faults on different pages")
                    if any(sl.start in (f[1], f[2]) for f in covering):
                        seen.add("slice starts at a fault boundary")
    assert seen == {
        "open at end", "no page", "duplicate", "equal starts", "nested", "overlapping",
        "service under faults on different pages", "slice starts at a fault boundary",
    }
