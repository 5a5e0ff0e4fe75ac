"""Watchdog monitors: deterministic grading of telemetry time series.

End-of-run aggregates cannot distinguish a run that was healthy
throughout from one that spent half its life livelocked and then
recovered — the totals look the same.  The watchdogs walk the completed
per-node series (pure post-processing, like the critical-path analyzer)
and emit *findings* for mid-run pathologies:

- ``cwnd_pinned`` — a peer's congestion window sat at the AIMD floor
  for N consecutive windows (sustained multiplicative-decrease
  pressure; the final snapshot usually shows it recovered);
- ``backlog_growth`` — a node's transport pacing backlog grew
  monotonically for N consecutive windows (the queue is not draining);
- ``stall_spike`` — a window's stall time jumped past ``factor`` times
  the node's median window stall (a phase-local convoy the whole-run
  average dilutes away);
- ``shed_storm`` — prefetches shed under backpressure at or above the
  storm threshold within one window;
- ``zero_progress`` — N consecutive windows with zero busy progress on
  a node while its transport kept timing out or retransmitting:
  livelock evidence.

Every threshold is a module constant (read at use time, so a test can
``monkeypatch`` one) and every input is a deterministic series, so the
findings are identical across repeats and ``--jobs N``.  Consecutive
flagged windows coalesce into one finding; findings are sorted by
(monitor, node, peer, start window).
"""

from __future__ import annotations

import statistics

__all__ = ["run_watchdogs"]

#: cwnd values at or below this count as "at the floor" (the AIMD
#: multiplicative decrease clamps at 1.0).
CWND_FLOOR = 1.0

#: Consecutive floor windows before a cwnd_pinned finding.
CWND_FLOOR_WINDOWS = 4

#: Consecutive strictly-increasing backlog windows before a
#: backlog_growth finding.
BACKLOG_GROWTH_WINDOWS = 4

#: A window's stall time must exceed ``median * factor`` ...
STALL_SPIKE_FACTOR = 8.0

#: ... and this absolute floor (us) to count as a spike — a 9 us
#: window over a 1 us median is noise, not a convoy.
STALL_SPIKE_MIN_US = 20_000.0

#: Prefetches shed in one window at/above this is a shed storm.
SHED_STORM = 25

#: Consecutive zero-busy windows (with transport distress) before a
#: zero_progress finding.
ZERO_PROGRESS_WINDOWS = 3


def _coalesce(flags: list[bool], min_run: int) -> list[tuple[int, int]]:
    """Maximal runs of True of length >= min_run, as (start, end) inclusive."""
    runs: list[tuple[int, int]] = []
    start = None
    for index, flag in enumerate(flags):
        if flag and start is None:
            start = index
        elif not flag and start is not None:
            if index - start >= min_run:
                runs.append((start, index - 1))
            start = None
    if start is not None and len(flags) - start >= min_run:
        runs.append((start, len(flags) - 1))
    return runs


def run_watchdogs(section: dict) -> list[dict]:
    """Grade a telemetry section; returns the (possibly empty) findings."""
    ts = section.get("windows") or []
    findings: list[dict] = []

    def report(monitor, node, flags, min_run, value, detail, peer=None) -> None:
        """One finding per coalesced run of flagged windows; ``value``
        and ``detail`` are functions of the run's (start, end)."""
        for start, end in _coalesce(flags, min_run):
            record = {
                "monitor": monitor,
                "node": node,
                "window_start": start,
                "window_end": end,
                "t_start_us": ts[start],
                "t_end_us": ts[end],
                "value": value(start, end),
                "detail": detail(start, end),
            }
            if peer is not None:
                record["peer"] = peer
            findings.append(record)

    def windowed(total: list) -> list:
        return [value - before for before, value in zip([0.0, *total], total)]

    for node_key in sorted(section.get("nodes", {}) if ts else (), key=int):
        node = int(node_key)
        entry = section["nodes"][node_key]
        gauges = entry.get("gauges", {})
        deltas = entry.get("deltas", {})

        # cwnd pinned at the AIMD floor for N consecutive windows.
        for peer_key in sorted(entry.get("peers", {}), key=int):
            cwnd = entry["peers"][peer_key].get("cwnd", [])
            report(
                "cwnd_pinned",
                node,
                [0.0 < value <= CWND_FLOOR for value in cwnd],
                CWND_FLOOR_WINDOWS,
                lambda start, end: end - start + 1,
                lambda start, end: (
                    f"cwnd <= {CWND_FLOOR:g} toward peer {peer_key} for {end - start + 1} windows"
                ),
                peer=int(peer_key),
            )

        # Monotone pacing-backlog growth: the queue is not draining.
        backlog = gauges.get("transport.backlog", [])
        report(
            "backlog_growth",
            node,
            [bool(i) and backlog[i] > backlog[i - 1] for i in range(len(backlog))],
            BACKLOG_GROWTH_WINDOWS,
            lambda start, end: backlog[end],
            lambda start, end: (
                f"pacing backlog grew every window for "
                f"{end - start + 1} windows (now {backlog[end]})"
            ),
        )

        # Stall-ratio spikes vs the node's own median window.
        stall = windowed(gauges.get("sched.stall_us_total", []))
        positive = [value for value in stall if value > 0]
        median = statistics.median(positive) if positive else 0.0
        threshold = max(STALL_SPIKE_MIN_US, median * STALL_SPIKE_FACTOR)
        report(
            "stall_spike",
            node,
            [value >= threshold and median > 0 for value in stall],
            1,
            lambda start, end: round(max(stall[start : end + 1]), 3),
            lambda start, end: (
                f"window stall {max(stall[start : end + 1]):.0f} us vs median "
                f"{median:.0f} us (threshold {threshold:.0f} us)"
            ),
        )

        # Prefetch-shed storms.
        shed = deltas.get("prefetch.shed", [])
        report(
            "shed_storm",
            node,
            [value >= SHED_STORM for value in shed],
            1,
            lambda start, end: max(shed[start : end + 1]),
            lambda start, end: (
                f"{max(shed[start : end + 1])} prefetches shed in one window "
                f"(storm threshold {SHED_STORM})"
            ),
        )

        # Zero-progress windows: no busy time while the transport churns.
        busy = windowed(gauges.get("sched.busy_us_total", []))
        timeouts = deltas.get("transport.timeouts", [])
        rexmits = deltas.get("transport.retransmissions", [])
        churn = [
            (timeouts[i] if i < len(timeouts) else 0) + (rexmits[i] if i < len(rexmits) else 0)
            for i in range(len(busy))
        ]
        report(
            "zero_progress",
            node,
            [busy[i] <= 0 and churn[i] > 0 for i in range(len(busy))],
            ZERO_PROGRESS_WINDOWS,
            lambda start, end: end - start + 1,
            lambda start, end: (
                f"no busy progress for {end - start + 1} windows while the transport "
                f"timed out/retransmitted "
                f"{sum(timeouts[start : end + 1]) + sum(rexmits[start : end + 1])} times "
                f"— livelock evidence"
            ),
        )
    findings.sort(
        key=lambda f: (f["monitor"], f["node"], f.get("peer", -1), f["window_start"])
    )
    return findings
