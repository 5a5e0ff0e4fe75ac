"""The guard rule, counted: calls through the emitters that hold a guard.

    python3 benchmarks/results/report_once/guard_rule.py [REPO_ROOT] > guard_rule.txt

Wraps `repro.ft.detector.mark` (and the manager's import of it),
`ReliableTransport._mark`, `PrefetchEngine._mark`,
`FaultyNetwork._inject_fault` and `Network._drop` with call counters and runs
the paper's 32-cell matrix (8 apps x O/P/4T/4TP, `default` preset, 8 nodes,
every plane off).  A site may lose its own guard only if it runs at most once
per datagram lost, refused, mangled or duplicated, or once per membership
change or checkpoint — so per cell the first four together may be called no
more often than `transport_timeouts + retransmissions + duplicates_suppressed
+ prefetch drops_observed`.  Exits 1 if a cell breaks that.  `_drop` is
listed but not bounded: it is the merged reporter of a repeated fact (one call
per drop), not an emitter that swallowed a guard.
"""

import collections
import os
import sys

root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "../../..")
sys.path.insert(0, os.path.join(root, "src"))

from repro import DsmRuntime, RunConfig  # noqa: E402
from repro.apps import APP_ORDER  # noqa: E402
from repro.experiments.runner import make_configured_app, parse_label  # noqa: E402
from repro.ft import detector, manager  # noqa: E402
from repro.network.faults import FaultyNetwork  # noqa: E402
from repro.network.network import Network  # noqa: E402
from repro.network.transport import ReliableTransport  # noqa: E402
from repro.prefetch.engine import PrefetchEngine  # noqa: E402

calls = collections.Counter()


def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


detector.mark = manager.mark = counted("ft.mark", detector.mark)
ReliableTransport._mark = counted("transport._mark", ReliableTransport._mark)
PrefetchEngine._mark = counted("prefetch._mark", PrefetchEngine._mark)
FaultyNetwork._inject_fault = counted("_inject_fault", FaultyNetwork._inject_fault)
Network._drop = counted("_drop", Network._drop)

print(
    f"{'cell':18s} {'emitter calls':>13s} {'bound':>6s} {'_drop':>6s}"
    "  timeouts retransmits duplicates pf-drops"
)
broken = zero = 0
for app_name in APP_ORDER:
    for label in ("O", "P", "4T", "4TP"):
        calls.clear()
        threads_per_node, prefetch = parse_label(label)
        config = RunConfig(num_nodes=8, threads_per_node=threads_per_node, prefetch=prefetch)
        report = DsmRuntime(config).execute(make_configured_app(app_name, "default", label))
        events = report.events
        pf_drops = report.prefetch_stats.drops_observed if report.prefetch_stats else 0
        parts = (
            events.transport_timeouts,
            events.retransmissions,
            events.duplicates_suppressed,
            pf_drops,
        )
        made = sum(calls.values()) - calls["_drop"]
        zero += made == 0
        broken += made > sum(parts)
        print(
            f"{app_name + ':' + label:18s} {made:13d} {sum(parts):6d} {calls['_drop']:6d}  "
            + " ".join(f"{part:10d}" for part in parts)
        )
print(f"\n{zero} of 32 cells make no call; {broken} break the bound")
sys.exit(1 if broken else 0)
