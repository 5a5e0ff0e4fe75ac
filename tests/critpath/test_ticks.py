"""Tick arithmetic against ``Fraction``: the exactness argument, tested.

The simulator's traces keep timestamps within a few binades of each
other; these tests do not.  Steps of ``2**-60`` sit next to ``1e9``,
subnormals next to exact integers, and JSONL rows carry ``int``
timestamps, so the common denominator runs from ``2**0`` to ``2**1074``.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from repro.critpath import analyze_events, analyze_pag, build_pag
from repro.critpath.ticks import TickScale
from repro.trace import TraceEvent
from tests.critpath.reference import analyze_pag as reference_analyze_pag

#: Durations and gaps spanning the whole float range, plus ints.
WILD = (
    5e-324, 2.0**-1022, 2.0**-60, 2.0**-60 * 3, 1e-7, 0.1, 1 / 3, 1.5,
    3, 7, 4096.0, 1e9, 10**9, 123456789.125, 2.0**52 + 1, 0.0, 0,
)


def wild_stamps(rng, count):
    return [rng.choice(WILD) * rng.choice((1, 1, 3, 0.5, 2**20)) for _ in range(count)]


# -- the scale itself --------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_ticks_are_the_exact_rationals_scaled(seed):
    rng = random.Random(seed)
    stamps = wild_stamps(rng, 40)
    ticks = TickScale(stamps)
    scale = Fraction(2) ** ticks.shift
    for x in stamps:
        assert ticks.of[x] == Fraction(x) * scale
        assert ticks.to_float(ticks.of[x]) == x
        assert ticks.to_fraction(ticks.of[x]) == Fraction(x)
    # shift is the largest denominator exponent: no smaller grid holds them.
    assert any(ticks.of[x] & 1 for x in stamps) or ticks.shift == 0
    for _ in range(200):
        a, b = rng.choice(stamps), rng.choice(stamps)
        ta, tb = ticks.of[a], ticks.of[b]
        fa, fb = Fraction(a), Fraction(b)
        assert (ta < tb, ta == tb) == (fa < fb, fa == fb)
        assert ticks.to_fraction(ta - tb) == fa - fb
        assert ticks.to_float(ta - tb) == float(fa - fb)
        assert ticks.to_float(ta + tb) == float(fa + fb)
    total = sum(ticks.of[x] for x in stamps)
    exact = sum((Fraction(x) for x in stamps), Fraction(0))
    assert ticks.to_fraction(total) == exact
    assert ticks.to_float(total) == float(exact)


def test_int_and_float_twins_share_a_tick():
    ticks = TickScale([3, 0.25, 1e9])
    assert ticks.shift == 2
    assert ticks.of[3] == ticks.of[3.0] == 12
    assert ticks.of[10**9] == 4 * 10**9


def test_shift_is_bounded_by_the_float_format():
    ticks = TickScale([5e-324, 1.7976931348623157e308])
    assert ticks.shift == 1074
    assert ticks.of[5e-324] == 1
    assert ticks.to_float(ticks.of[1.7976931348623157e308]) == 1.7976931348623157e308


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_stamp_is_an_error(bad):
    with pytest.raises(ValueError, match="non-finite timestamp"):
        TickScale([0.0, bad, 1.0])


# -- hand-built PAGs ---------------------------------------------------------


def hand_built_trace(rng, nodes=3):
    """Events made from JSONL-style rows: per-node occupancy chains from
    wild floats, wires between charge boundaries, a retransmitted send
    with its timeout, barrier releases and finish markers."""
    rows = []
    bounds = {}
    for node in range(nodes):
        t = rng.choice((0.0, 0, 2.0**-60))
        edges = []
        for _ in range(rng.randint(2, 9)):
            dur = rng.choice(WILD)
            name = rng.choice(("busy", "busy", "dsm_overhead", "mt_overhead"))
            rows.append(
                {"ph": "X", "cat": "cpu", "name": name, "node": node, "ts": t, "dur": dur}
            )
            edges.append((t, t + dur))
            t = t + dur
            if rng.random() < 0.4:
                t = t + rng.choice(WILD)  # a gap some arrival may explain
        bounds[node] = edges
        rows.append({"ph": "i", "cat": "sched", "name": "sched_finish", "node": node, "ts": t})
        if rng.random() < 0.5:
            rows.append(
                {"ph": "X", "cat": "cpu", "name": "sync_idle", "node": node, "ts": 0.0, "dur": 2.5}
            )
    msg = 0
    for _ in range(rng.randint(2, 10)):
        src, dst = rng.sample(range(nodes), 2)
        send = rng.choice(bounds[src])[1]
        later = [start for start, _end in bounds[dst] if start >= send]
        if not later:
            continue
        deliver = rng.choice(later)
        msg += 1
        kind = rng.choice(("diff_request", "page_reply", "lock_grant", "ack"))
        mid = f"m{msg}"
        rows.append(
            {"ph": "b", "cat": "network", "name": f"msg:{kind}", "node": src, "ts": send,
             "id": mid, "args": {"dst": dst, "seq": msg}}
        )
        rows.append(
            {"ph": "e", "cat": "network", "name": f"msg:{kind}", "node": dst, "ts": deliver,
             "id": mid, "args": {}}
        )
        if rng.random() < 0.3:
            rows.append(
                {"ph": "i", "cat": "protocol", "name": "pag_edge", "node": src, "ts": send,
                 "args": {"msg": mid, "page": msg}}
            )
        if rng.random() < 0.3 and deliver > send:
            # The same (src, dst, seq) sent again at a later charge start,
            # announced by a transport timeout at that instant.
            again = [start for start, _end in bounds[src] if start > send]
            if again:
                resend = rng.choice(again)
                rows.append(
                    {"ph": "i", "cat": "network", "name": "transport_timeout", "node": src,
                     "ts": resend, "args": {"dst": dst, "seq": msg}}
                )
                rows.append(
                    {"ph": "b", "cat": "network", "name": f"msg:{kind}", "node": src,
                     "ts": resend, "id": mid + "r", "args": {"dst": dst, "seq": msg}}
                )
                rows.append(
                    {"ph": "i", "cat": "network", "name": "retransmit", "node": src,
                     "ts": resend, "args": {"msg": mid + "r"}}
                )
    for _ in range(rng.randint(0, 3)):
        node = rng.randrange(nodes)
        rows.append(
            {"ph": "i", "cat": "sync", "name": "barrier_release", "node": node,
             "ts": rng.choice(bounds[node])[0]}
        )
    return [TraceEvent.from_row(row) for row in rows]


@pytest.mark.parametrize("seed", range(150))
def test_hand_built_pags_match_the_fraction_analyzer(seed):
    events = hand_built_trace(random.Random(seed))
    pag = build_pag(events)
    new, ref = analyze_pag(pag), reference_analyze_pag(pag)
    assert new.to_dict() == ref.to_dict()
    assert new.blame == ref.blame and new.what_if == ref.what_if
    assert sum(new.blame.values(), Fraction(0)) == new.path_length == ref.path_length
    # The events survive the JSONL round trip the offline CLI reads them through.
    reread = [TraceEvent.from_row(json.loads(json.dumps(ev.as_dict()))) for ev in events]
    assert analyze_events(reread).to_dict() == new.to_dict()


def test_hand_built_traces_reach_large_shifts():
    """The generator above is only a test of wide exponents if it makes them."""
    shifts = set()
    for seed in range(150):
        pag = build_pag(hand_built_trace(random.Random(seed)))
        stamps = [s.start for c in pag.slices.values() for s in c]
        stamps += [s.end for c in pag.slices.values() for s in c]
        shifts.add(TickScale(stamps).shift)
    assert max(shifts) == 1074 and min(shifts) < 80


# -- degenerate traces -------------------------------------------------------


def test_trace_whose_only_timestamp_is_zero():
    rows = [TraceEvent(0.0, "i", "sched", "sched_finish", 0)]
    result = analyze_events(rows)
    section = result.to_dict()
    assert section == reference_analyze_pag(build_pag(rows)).to_dict()
    assert section["wall_time_us"] == 0.0 and section["path_us"] == 0.0
    assert section["identity_exact"] and section["epochs_exact"]
    assert section["what_if_us"]["compute_floor"] == 0.0


def test_empty_trace():
    section = analyze_events([]).to_dict()
    assert section == reference_analyze_pag(build_pag([])).to_dict()
    assert section["segments"] == 0 and section["per_node"] == []
    assert section["identity_exact"] is True


@pytest.mark.parametrize("field", ["ts", "dur"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_slice_raises(field, bad):
    row = {"ph": "X", "cat": "cpu", "name": "busy", "node": 0, "ts": 1.0, "dur": 2.0}
    row[field] = bad
    with pytest.raises(ValueError, match="non-finite timestamp"):
        analyze_events([TraceEvent.from_row(row)])


def test_non_finite_wire_raises():
    rows = [
        {"ph": "X", "cat": "cpu", "name": "busy", "node": 0, "ts": 0.0, "dur": 2.0},
        {"ph": "b", "cat": "network", "name": "msg:ack", "node": 0, "ts": 2.0,
         "id": "m1", "args": {"dst": 1, "seq": 1}},
        {"ph": "e", "cat": "network", "name": "msg:ack", "node": 1, "ts": math.nan,
         "id": "m1", "args": {}},
    ]
    with pytest.raises(ValueError, match="non-finite timestamp"):
        analyze_events([TraceEvent.from_row(row) for row in rows])

