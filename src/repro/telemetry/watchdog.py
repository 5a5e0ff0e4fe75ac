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

Every threshold lives in :class:`WatchdogConfig` and every input is a
deterministic series, so the findings are identical across repeats and
``--jobs N``.  Consecutive flagged windows coalesce into one finding;
findings are sorted by (monitor, node, peer, start window).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WatchdogConfig", "run_watchdogs"]

#: cwnd values at or below this count as "at the floor" (the AIMD
#: multiplicative decrease clamps at 1.0).
CWND_FLOOR = 1.0


@dataclass(frozen=True)
class WatchdogConfig:
    """Deterministic grading thresholds."""

    #: Consecutive floor windows before a cwnd_pinned finding.
    cwnd_floor_windows: int = 4
    #: Consecutive strictly-increasing backlog windows before a
    #: backlog_growth finding.
    backlog_growth_windows: int = 4
    #: A window's stall time must exceed ``median * factor`` ...
    stall_spike_factor: float = 8.0
    #: ... and this absolute floor (us) to count as a spike — a 9 us
    #: window over a 1 us median is noise, not a convoy.
    stall_spike_min_us: float = 20_000.0
    #: Prefetches shed in one window at/above this is a shed storm.
    shed_storm: int = 25
    #: Consecutive zero-busy windows (with transport distress) before a
    #: zero_progress finding.
    zero_progress_windows: int = 3


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


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _finding(monitor, node, ts, start, end, value, detail, peer=None):
    record = {
        "monitor": monitor,
        "node": node,
        "window_start": start,
        "window_end": end,
        "t_start_us": ts[start],
        "t_end_us": ts[end],
        "value": value,
        "detail": detail,
    }
    if peer is not None:
        record["peer"] = peer
    return record


def run_watchdogs(section: dict, config: WatchdogConfig | None = None) -> list[dict]:
    """Grade a telemetry section; returns the (possibly empty) findings."""
    config = config or WatchdogConfig()
    ts = section.get("windows") or []
    if not ts:
        return []
    findings: list[dict] = []
    for node_key in sorted(section.get("nodes", {}), key=int):
        node = int(node_key)
        entry = section["nodes"][node_key]
        gauges = entry.get("gauges", {})
        deltas = entry.get("deltas", {})

        # cwnd pinned at the AIMD floor for N consecutive windows.
        for peer_key in sorted(entry.get("peers", {}), key=int):
            cwnd = entry["peers"][peer_key].get("cwnd", [])
            flags = [0.0 < value <= CWND_FLOOR for value in cwnd]
            for start, end in _coalesce(flags, config.cwnd_floor_windows):
                findings.append(
                    _finding(
                        "cwnd_pinned",
                        node,
                        ts,
                        start,
                        end,
                        end - start + 1,
                        f"cwnd <= {CWND_FLOOR:g} toward peer {peer_key} "
                        f"for {end - start + 1} windows",
                        peer=int(peer_key),
                    )
                )

        # Monotone pacing-backlog growth: the queue is not draining.
        backlog = gauges.get("transport.backlog", [])
        flags = [False] * len(backlog)
        for index in range(1, len(backlog)):
            flags[index] = backlog[index] > backlog[index - 1]
        for start, end in _coalesce(flags, config.backlog_growth_windows):
            findings.append(
                _finding(
                    "backlog_growth",
                    node,
                    ts,
                    start,
                    end,
                    backlog[end],
                    f"pacing backlog grew every window for "
                    f"{end - start + 1} windows (now {backlog[end]})",
                )
            )

        # Stall-ratio spikes vs the node's own median window.
        stall_total = gauges.get("sched.stall_us_total", [])
        stall_windows = [
            stall_total[i] - (stall_total[i - 1] if i else 0.0)
            for i in range(len(stall_total))
        ]
        median = _median([value for value in stall_windows if value > 0])
        threshold = max(config.stall_spike_min_us, median * config.stall_spike_factor)
        flags = [value >= threshold and median > 0 for value in stall_windows]
        for start, end in _coalesce(flags, 1):
            peak = max(stall_windows[start : end + 1])
            findings.append(
                _finding(
                    "stall_spike",
                    node,
                    ts,
                    start,
                    end,
                    round(peak, 3),
                    f"window stall {peak:.0f} us vs median {median:.0f} us "
                    f"(threshold {threshold:.0f} us)",
                )
            )

        # Prefetch-shed storms.
        shed = deltas.get("prefetch.shed", [])
        flags = [value >= config.shed_storm for value in shed]
        for start, end in _coalesce(flags, 1):
            peak = max(shed[start : end + 1])
            findings.append(
                _finding(
                    "shed_storm",
                    node,
                    ts,
                    start,
                    end,
                    peak,
                    f"{peak} prefetches shed in one window "
                    f"(storm threshold {config.shed_storm})",
                )
            )

        # Zero-progress windows: no busy time while the transport churns.
        busy_total = gauges.get("sched.busy_us_total", [])
        busy_windows = [
            busy_total[i] - (busy_total[i - 1] if i else 0.0)
            for i in range(len(busy_total))
        ]
        timeouts = deltas.get("transport.timeouts", [])
        rexmits = deltas.get("transport.retransmissions", [])
        flags = [
            busy_windows[i] <= 0
            and (
                (timeouts[i] if i < len(timeouts) else 0)
                + (rexmits[i] if i < len(rexmits) else 0)
            )
            > 0
            for i in range(len(busy_windows))
        ]
        for start, end in _coalesce(flags, config.zero_progress_windows):
            churn = sum(timeouts[start : end + 1]) + sum(rexmits[start : end + 1])
            findings.append(
                _finding(
                    "zero_progress",
                    node,
                    ts,
                    start,
                    end,
                    end - start + 1,
                    f"no busy progress for {end - start + 1} windows while the "
                    f"transport timed out/retransmitted {churn} times — "
                    f"livelock evidence",
                )
            )
    findings.sort(
        key=lambda f: (f["monitor"], f["node"], f.get("peer", -1), f["window_start"])
    )
    return findings
