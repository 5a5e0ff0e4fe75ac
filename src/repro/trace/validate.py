"""Chrome trace_event validation (library + CLI).

``python -m repro.trace.validate out.json`` checks that an exported
trace is well-formed before anyone wastes time loading a broken file
into Perfetto — CI runs this against a fresh SOR trace on every push.

Checks:

- top-level shape (``traceEvents`` array, required keys per event);
- timestamps are non-negative and sorted non-decreasing;
- ``B``/``E`` duration events balance as a proper stack per
  ``(pid, tid)`` track, with matching names;
- ``X`` events carry a non-negative ``dur``;
- async ``e`` events have a preceding ``b`` with the same ``(cat, id)``
  (an unterminated ``b`` is legal — that is what a dropped message
  looks like — but an orphan ``e`` is a bug);
- counter (``C``) events carry a non-empty ``args`` dict of finite
  numeric series values (booleans and nested objects are rejected) —
  a telemetry overlay with a malformed payload would render as an
  empty or garbage counter track.

Exit codes: 0 valid, 1 format violations, 2 load errors, dangling
causal edges, *or* malformed counter payloads — an orphan async ``e``
means a program-activity-graph wire edge references an event the file
does not hold (a recorder that discarded events says how many in
``otherData.events_dropped``, surfaced in the output), so critical-path
analysis of the file would be reconstructing from partial causality;
a malformed counter payload means the telemetry overlay cannot be
trusted, so dashboards rebuilt from the trace would be wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

__all__ = ["validate_chrome_trace", "main"]

_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")
_KNOWN_PHASES = frozenset("XBEibeMsftCNODP")


def validate_chrome_trace(trace: Any, max_errors: int = 20) -> list[str]:
    """Return a list of format violations (empty = valid)."""
    errors: list[str] = []

    def report(message: str) -> bool:
        errors.append(message)
        return len(errors) >= max_errors

    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' array"]
    last_ts: float = float("-inf")
    stacks: dict[tuple[Any, Any], list[tuple[str, float]]] = {}
    open_async: dict[tuple[Any, Any], int] = {}
    for index, event in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            if report(f"{where}: not an object"):
                return errors
            continue
        missing = [key for key in _REQUIRED_KEYS if key not in event]
        if missing:
            if report(f"{where}: missing keys {missing}"):
                return errors
            continue
        ph = event["ph"]
        ts = event["ts"]
        if ph not in _KNOWN_PHASES:
            if report(f"{where}: unknown phase {ph!r}"):
                return errors
        if not isinstance(ts, (int, float)) or ts < 0:
            if report(f"{where}: bad timestamp {ts!r}"):
                return errors
            continue
        if ph != "M":  # metadata is pinned at ts 0 ahead of the stream
            if ts < last_ts:
                if report(f"{where}: timestamp {ts} < previous {last_ts} (unsorted)"):
                    return errors
            last_ts = ts
        track = (event["pid"], event["tid"])
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                if report(f"{where}: X event with bad dur {dur!r}"):
                    return errors
        elif ph == "B":
            stacks.setdefault(track, []).append((event["name"], ts))
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                if report(f"{where}: E with no open B on track {track}"):
                    return errors
            else:
                name, begin_ts = stack.pop()
                if name != event["name"]:
                    if report(
                        f"{where}: E named {event['name']!r} closes B named {name!r} "
                        f"on track {track}"
                    ):
                        return errors
                if ts < begin_ts:
                    if report(f"{where}: E at {ts} before its B at {begin_ts}"):
                        return errors
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                if report(f"{where}: C counter without a non-empty args dict"):
                    return errors
            else:
                for series, value in args.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        if report(
                            f"{where}: C counter series {series!r} has "
                            f"non-numeric value {value!r}"
                        ):
                            return errors
                        break
        elif ph in ("b", "e"):
            if "id" not in event:
                if report(f"{where}: async {ph} without an id"):
                    return errors
                continue
            key = (event.get("cat"), event["id"])
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
            else:
                if open_async.get(key, 0) <= 0:
                    if report(f"{where}: async e with no open b for {key}"):
                        return errors
                else:
                    open_async[key] -= 1
    for track, stack in stacks.items():
        if stack:
            names = [name for name, _ in stack]
            if report(f"track {track}: {len(stack)} unclosed B events {names[:5]}"):
                return errors
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.validate",
        description="Validate a Chrome/Perfetto trace_event JSON file.",
    )
    parser.add_argument("trace", help="path to a trace JSON file")
    parser.add_argument(
        "--max-errors", type=int, default=20, help="stop after this many violations"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"ERROR: cannot load {args.trace}: {error}")
        return 2
    errors = validate_chrome_trace(trace, max_errors=args.max_errors)
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else []
    dropped = 0
    if isinstance(trace, dict):
        other = trace.get("otherData")
        if isinstance(other, dict):
            dropped = int(other.get("events_dropped", 0) or 0)
    if dropped:
        print(f"WARNING: {dropped} events dropped at collection")
    dangling = [e for e in errors if "async e with no open b" in e]
    bad_counters = [e for e in errors if "C counter" in e]
    if errors:
        print(f"INVALID: {args.trace} ({len(events)} events)")
        for error in errors:
            print(f"  - {error}")
        if dangling:
            print(
                f"  {len(dangling)} causal (PAG) edge(s) reference dropped/"
                "missing events — critical-path analysis would be partial"
            )
            return 2
        if bad_counters:
            print(
                f"  {len(bad_counters)} malformed counter payload(s) — the "
                "telemetry overlay cannot be trusted"
            )
            return 2
        return 1
    print(f"OK: {args.trace} ({len(events)} events, {dropped} dropped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
