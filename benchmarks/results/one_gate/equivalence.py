#!/usr/bin/env python3
"""The digest's smoke lines pin the runs ``ledger-smoke-digests.json`` pinned.

    PYTHONPATH=src:benchmarks/ledger:. python3 benchmarks/results/one_gate/equivalence.py PARENT

Runs every smoke cell of the six workloads as ``run.py digest`` does and
hashes each report twice: the ledger's way (``report_digest``, folded per
workload as the ledger folds it), compared with PARENT's committed
``ledger-smoke-digests.json``; and the digest's way, compared with the line of
``benchmarks/baselines/contract.txt`` named for the run.
"""

import hashlib
import json
import subprocess
import sys

from hostledger.spec import WORKLOADS, smoke
from hostledger.worker import build_app, build_config, cell_seeds, report_digest
from repro import DsmRuntime
from tests.dsm.fixtures.record import run_digests


def main(parent: str) -> int:
    shown = subprocess.run(["git", "show", f"{parent}:benchmarks/baselines/ledger-smoke-digests.json"],
                           capture_output=True, text=True, check=True).stdout
    committed = json.loads(shown)
    with open("benchmarks/baselines/contract.txt", encoding="utf-8") as handle:
        contract = {name: rest.split() for name, _, rest in (row.partition(" ") for row in handle)}
    names, runs, equal_lines, equal_workloads = {}, 0, 0, 0
    for workload in map(smoke, WORKLOADS):
        core = {}
        for cell, seed in cell_seeds(workload, 42).items():
            runtime = DsmRuntime(build_config(cell, seed))
            report = runtime.execute(build_app(cell), verify=False)
            core[cell] = report_digest(report)
            name = names.setdefault((cell, seed), f"{workload.name}/{cell.id}")
            runs += 1
            equal_lines += contract[name] == list(map(str, run_digests(runtime, report)))
        folded = "".join(f"{cell.id}={digest}\n" for cell, digest in core.items())
        ledger = hashlib.sha256(folded.encode()).hexdigest()
        same = ledger == committed[workload.name]
        equal_workloads += same
        print(f"{workload.name:13s} {len(core):2d} cells  report_digest {ledger[:16]}  "
              f"committed {committed[workload.name][:16]}  {'equal' if same else 'DIFFERENT'}")
    print(f"{equal_workloads} of {len(committed)} workload report_digests equal the deleted file's")
    print(f"{equal_lines} of {runs} runs hash to the contract.txt line named for them "
          f"({len(names)} distinct lines)")
    return 0 if equal_workloads == len(committed) and equal_lines == runs else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
