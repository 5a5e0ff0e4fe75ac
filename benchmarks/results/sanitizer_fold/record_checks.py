"""Record every ProtocolSanitizer.on_* call, per contract cell, on ROOT.

    python3 record_checks.py ROOT OUT

Runs ``benchmarks/contract/run.py digest``'s cells on ROOT's simulator
with each ``on_*`` method wrapped by a recorder.  Writes one line per run
that made calls: cell index, call count, sha256 of the ordered
``(method, bound arguments)`` list (tuples and lists compared alike,
a raised check marked).  Diff the files of two checkouts.
"""
import hashlib
import inspect
import os
import sys
import tempfile
from pathlib import Path

root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src")]
import repro.ft.sanitizer as sanmod  # noqa: E402
import repro.api.runtime as rt  # noqa: E402

REPO = str(Path(__file__).resolve().parents[3])
sys.path[:0] = [os.path.join(REPO, "benchmarks", "contract")]
runs = []


def norm(value):
    if isinstance(value, (list, tuple)):
        return tuple(norm(v) for v in value)
    return value


def wrap(name, fn):
    sig = inspect.signature(fn)

    def recorder(self, *args, **kwargs):
        bound = sig.bind(self, *args, **kwargs)
        bound.apply_defaults()
        call = (name, tuple((k, norm(v)) for k, v in bound.arguments.items() if k != "self"))
        try:
            return fn(self, *args, **kwargs)
        except Exception as exc:
            call = call + (("raised", type(exc).__name__),)
            raise
        finally:
            runs[-1].append(call)

    return recorder


for attr in list(vars(sanmod.ProtocolSanitizer)):
    if attr.startswith("on_"):
        setattr(sanmod.ProtocolSanitizer, attr, wrap(attr, getattr(sanmod.ProtocolSanitizer, attr)))

init = rt.DsmRuntime.__init__


def new_init(self, config):
    runs.append([])
    init(self, config)


rt.DsmRuntime.__init__ = new_init

import run as contract  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    contract.digest(root, os.path.join(tmp, "digest.txt"))
lines = []
for index, calls in enumerate(runs):
    if calls:
        sha = hashlib.sha256(repr(calls).encode()).hexdigest()
        lines.append(f"{index} {len(calls)} {sha}")
with open(out, "w") as fh:
    fh.write("\n".join(lines) + "\n")
print(len(lines), "runs with calls,", sum(map(len, runs)), "calls")
