"""Load and ``--replay`` a reproducer with one field made malformed, on
ROOT's simulator.

    PYTHONPATH=ROOT/src python3 malformed.py

Writes the reproducer of a clean 1-entry SOR sample, then for each of an
unknown protocol, an unknown app, one node and a set ``split_brain_bug``
prints what ``load_reproducer`` does and the ``--replay`` exit code
(1 = still reproduces, 0 = fixed, 2 = malformed).
"""
import json
import os
import tempfile

from repro.chaos import ChaosSample, evaluate_sample, load_reproducer, write_reproducer
from repro.chaos.__main__ import main

sample = ChaosSample(0, "SOR", "small", 4, 11, {"drop_prob": 0.01})
folder = tempfile.mkdtemp()
path = write_reproducer(evaluate_sample(sample), os.path.join(folder, "r.json"))
MALFORMED = [("protocol", "lrcx"), ("app", "NOPE"), ("num_nodes", 1), ("split_brain_bug", True)]
for field, value in MALFORMED:
    data = json.loads(open(path).read())
    data[field] = value
    bad = os.path.join(folder, f"{field}.json")
    with open(bad, "w") as handle:
        json.dump(data, handle)
    try:
        load_reproducer(bad)
        loaded = "loads"
    except Exception as exc:
        loaded = f"{type(exc).__name__}: {exc}"
    code = main(["--replay", bad])
    print(f"{field}={value!r}: load_reproducer -> {loaded}; --replay exit {code}")
