"""Seeded chaos search over the fault space.

The fault injector (:mod:`repro.network.faults`) can combine crashes,
partitions, stalls, corruption and probabilistic loss in one plan — far
too many combinations to hand-write a test for each.  This package
turns the combination space into a search problem:

- :func:`sample_plan` draws one bounded, valid :class:`FaultPlan` from
  a seeded generator (at most one crash and one isolated node per plan;
  windows scaled to the app's clean wall time);
- :func:`evaluate_sample` runs it and checks four invariants — no
  committed checkpoint spans a membership split (the sanitizer), the
  run stays live within an event bound, a re-run of the same (seed,
  plan) is byte-identical, and the app verifies;
- :func:`search` fans a budget of samples out across cores
  (deterministically: same seed + budget ⇒ same samples and verdicts,
  for every ``--jobs``);
- :func:`shrink` greedily minimises a failing plan to a smallest
  reproducer, written to disk as JSON and replayable with
  ``python -m repro.chaos --replay FILE``.

The CLI lives in ``repro.chaos.__main__``::

    python -m repro.chaos --seed 7 --budget 50 --jobs 2
"""

from repro.chaos.search import (
    DEFAULT_APPS,
    ChaosConfig,
    ChaosSample,
    SampleResult,
    evaluate_sample,
    fault_entry_count,
    generate_samples,
    load_reproducer,
    reproducer_dict,
    sample_plan,
    search,
    shrink,
    write_reproducer,
)

__all__ = [
    "DEFAULT_APPS",
    "ChaosConfig",
    "ChaosSample",
    "SampleResult",
    "evaluate_sample",
    "fault_entry_count",
    "generate_samples",
    "load_reproducer",
    "reproducer_dict",
    "sample_plan",
    "search",
    "shrink",
    "write_reproducer",
]
