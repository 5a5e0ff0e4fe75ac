"""Count the checkpoint cuts the sanitizer's cut check read on the four
chaos arms CI runs, and the recoveries among them.

    python3 cuts.py [SEED] [BUDGET]

Runs every sample of lrc, lrc ``--adaptive``, hlrc and sc once, serially,
with the sanitizer on (as the search does), and sums the FT summary's
``checkpoints`` (cuts committed, each checked), ``checkpoints_stood_down``
and ``recoveries``.  A sample that raises is counted and named.
"""
import os
import sys
from pathlib import Path

sys.path[:0] = [os.path.join(str(Path(__file__).resolve().parents[3]), "src")]
from repro.chaos import ChaosConfig, generate_samples  # noqa: E402
from repro.chaos.search import _execute  # noqa: E402

seed, budget = (int(arg) for arg in (sys.argv[1:] + ["2026", "50"][len(sys.argv) - 1 :])[:2])
arms = {
    "lrc": ChaosConfig(seed=seed, budget=budget),
    "lrc --adaptive": ChaosConfig(seed=seed, budget=budget, adaptive=True),
    "hlrc": ChaosConfig(seed=seed, budget=budget, protocol="hlrc"),
    "sc": ChaosConfig(seed=seed, budget=budget, protocol="sc"),
}
for arm, config in arms.items():
    totals = dict.fromkeys(("checkpoints", "checkpoints_stood_down", "recoveries"), 0)
    raised = []
    for sample in generate_samples(config):
        try:
            report, _ = _execute(sample)
        except Exception as exc:
            raised.append(f"{sample.index}: {type(exc).__name__}")
            continue
        for key in totals:
            totals[key] += report.extra["ft"][key]
    counts = ", ".join(f"{key} {value}" for key, value in totals.items())
    print(f"seed {seed} budget {budget} {arm:<15} {counts}, raised {len(raised)} {raised}")
