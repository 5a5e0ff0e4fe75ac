"""Untraced calls of ``CoherenceBackend._mark`` against heap events in
``paper_sweep``'s ``O``/``P`` cells, as the ledger builds them.

    python3 mark_calls.py ROOT
"""
import os
import sys
from pathlib import Path

root = sys.argv[1]
LEDGER = Path(__file__).resolve().parents[2] / "ledger"
sys.path[:0] = [os.path.join(root, "src"), str(LEDGER)]
from hostledger.spec import WORKLOADS  # noqa: E402
from hostledger.worker import build_app, build_config, cell_seeds  # noqa: E402
from repro import DsmRuntime  # noqa: E402
from repro.dsm.backend import CoherenceBackend  # noqa: E402

calls = {}
original = CoherenceBackend._mark


def counting(self, name, *args, **kwargs):
    calls[name] = calls.get(name, 0) + 1
    return original(self, name, *args, **kwargs)


CoherenceBackend._mark = counting
(sweep,) = [w for w in WORKLOADS if w.name == "paper_sweep"]
events = cells = 0
for spec, seed in cell_seeds(sweep, 42).items():
    if spec.label not in ("O", "P"):
        continue
    runtime = DsmRuntime(build_config(spec, seed))
    runtime.execute(build_app(spec), verify=False)
    events += runtime.cluster.sim.events_handled
    cells += 1
print(f"{cells} cells, {sum(calls.values())} _mark calls, {events} heap events")
print(dict(sorted(calls.items())))
