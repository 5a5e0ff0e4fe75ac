"""Sampler, invariant checker and shrinker for the chaos harness.

Everything here is deterministic by construction: sample ``i`` of a
search seeded ``S`` draws its plan from ``default_rng([S, i])`` and runs
with seed ``S + i``, so two searches with the same (seed, budget, apps)
produce the same verdicts — serially or fanned out, on any machine.

The pieces that cross process boundaries (:class:`ChaosSample`,
:class:`SampleResult`, :func:`evaluate_sample`) are plain data and a
module-level function, as :func:`repro.parallel.fan_out` requires.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import available_apps, make_app
from repro.dsm.backend import BACKEND_NAMES
from repro.errors import ConfigError, FailureError, ProtocolError, SimulationError
from repro.network.faults import FaultPlan
from repro.network.transport import TransportConfig
from repro.parallel import fan_out

__all__ = [
    "DEFAULT_APPS",
    "ChaosConfig",
    "ChaosSample",
    "SampleResult",
    "sample_plan",
    "generate_samples",
    "evaluate_sample",
    "search",
    "shrink",
    "fault_entry_count",
    "reproducer_dict",
    "write_reproducer",
    "load_reproducer",
]

#: Three apps with distinct sharing patterns (nearest-neighbour rows,
#: butterfly transpose, blocked triangular solve) — enough diversity to
#: exercise different protocol paths without blowing the CI budget.
DEFAULT_APPS = ("SOR", "FFT", "LU-CONT")

#: Liveness bound: a sample exceeding this many simulation events is
#: declared livelocked (clean small runs take well under a tenth).
MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos search: how many plans, over which apps, how parallel."""

    seed: int = 0
    budget: int = 50
    apps: tuple[str, ...] = DEFAULT_APPS
    num_nodes: int = 4
    preset: str = "small"
    jobs: int = 1
    #: Coherence backend every sample runs on.  The four standing
    #: invariants (sanitizer, liveness, determinism, verify) are
    #: protocol-independent.
    protocol: str = "lrc"
    #: Run every sample on the adaptive transport (RTT-estimated RTO,
    #: AIMD window, backpressure) and grade the two adaptive
    #: invariants: bounded in-flight growth and no-livelock.
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if not self.apps:
            raise ConfigError("apps must name at least one application")
        object.__setattr__(self, "apps", tuple(self.apps))
        known = set(available_apps())
        for app_name in self.apps:
            if app_name not in known:
                raise ConfigError(
                    f"unknown app {app_name!r} (choose from {sorted(known)})"
                )
        if self.num_nodes < 2:
            raise ConfigError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.protocol not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown protocol {self.protocol!r} (choose from {sorted(BACKEND_NAMES)})"
            )


@dataclass(frozen=True)
class ChaosSample:
    """One (app, seed, plan) cell of the search — picklable, JSON-able.

    The plan travels as its :meth:`FaultPlan.to_dict` form rather than
    as the dataclass, so a sample round-trips through both the process
    pool and a reproducer file without custom reducers.
    """

    index: int
    app_name: str
    preset: str
    num_nodes: int
    seed: int
    plan: dict
    adaptive: bool = False
    protocol: str = "lrc"


@dataclass
class SampleResult:
    """The verdict on one sample: which invariants failed, if any."""

    sample: ChaosSample
    #: Failed invariants, each one of the base four: ``sanitizer`` (a
    #: committed checkpoint cut lacks a node's arrival), ``liveness``
    #: (event bound exceeded or the run deadlocked), ``determinism``
    #: (re-run differed), ``verify`` (the app's answer was wrong); or,
    #: adaptive arm only, ``inflight`` (a peer exceeded the AIMD window
    #: bound) and ``livelock`` (a run ended with unsent/unacked/parked
    #: traffic toward live peers); or ``baseline``: the app's fault-free
    #: run, which scales its plans, raised (the sample is that run, index
    #: -1, and no plan is drawn for the app).
    failures: list[str] = field(default_factory=list)
    error: str = ""
    wall_time_us: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


# -- sampling ---------------------------------------------------------------


def sample_plan(rng: np.random.Generator, wall_us: float, num_nodes: int) -> dict:
    """Draw one bounded fault plan (dict form) for a ``num_nodes`` cluster.

    Bounds keep every sample inside the fault model the FT layer claims
    to survive: at most one crash and at most one isolated node per
    plan (a majority lost to a partition stalls the coordinator until
    it heals; one lost to crashes raises ``FailureError``), node 0 is never
    crashed, stalled or isolated (it hosts the barrier manager and the
    detection coordinator), and a crashed node is never also
    partitioned (the plan validator rejects that as ambiguous).  Fault
    *onsets* scale with the app's clean wall time; partition and stall
    *durations* are absolute, sized against the membership timescales
    (50 ms suspicion + 25 ms TTL + 100 ms grace) so the search reaches
    fence, rejoin and rollback paths even on apps that finish in 60 ms.
    """
    plan: dict = {}
    crash_node: Optional[int] = None
    if rng.random() < 0.35:
        crash_node = int(rng.integers(1, num_nodes))
        plan["crashes"] = [
            {"node": crash_node, "at_us": round(float(rng.uniform(0.2, 0.9)) * wall_us, 1)}
        ]
    # At 2 nodes a crash leaves no peer to isolate or stall.
    peers = [n for n in range(1, num_nodes) if n != crash_node]
    if rng.random() < 0.35 and peers:
        node = int(peers[int(rng.integers(len(peers)))])
        start = float(rng.uniform(0.1, 0.8)) * wall_us
        duration = float(rng.uniform(40_000.0, 240_000.0))
        plan["partitions"] = [
            {"start_us": round(start, 1), "end_us": round(start + duration, 1), "nodes": [node]}
        ]
    if rng.random() < 0.3 and peers:
        node = int(peers[int(rng.integers(len(peers)))])
        start = float(rng.uniform(0.05, 0.7)) * wall_us
        duration = float(rng.uniform(20_000.0, 160_000.0))
        plan["stalls"] = [
            {"node": node, "start_us": round(start, 1), "end_us": round(start + duration, 1)}
        ]
    if rng.random() < 0.5:
        start = float(rng.uniform(0.0, 0.8)) * wall_us
        duration = float(rng.uniform(0.2, 1.0)) * wall_us
        window = {
            "start_us": round(start, 1),
            "end_us": round(start + duration, 1),
            "prob": round(float(rng.uniform(0.02, 0.25)), 3),
        }
        if rng.random() < 0.4:
            src = int(rng.integers(num_nodes))
            dst = int(rng.integers(num_nodes - 1))
            if dst >= src:
                dst += 1
            window["links"] = [[src, dst]]
        plan["corruptions"] = [window]
    if rng.random() < 0.4:
        plan["drop_prob"] = round(float(rng.uniform(0.005, 0.04)), 4)
    if rng.random() < 0.3:
        plan["duplicate_prob"] = round(float(rng.uniform(0.005, 0.03)), 4)
    if rng.random() < 0.3:
        plan["reorder_prob"] = round(float(rng.uniform(0.02, 0.15)), 4)
        plan["jitter_us"] = round(float(rng.uniform(50.0, 500.0)), 1)
    if FaultPlan.from_dict(plan).is_noop:
        # Every sample must perturb something; a tiny loss rate is the
        # cheapest non-noop fallback.
        plan["drop_prob"] = 0.01
    return plan


def baseline_walls(config: ChaosConfig) -> tuple[dict[str, float], list[SampleResult]]:
    """Clean wall time per app, the sampler's time scale (run serially;
    three small runs cost a fraction of the search itself), and a failing
    ``baseline`` result for each app whose clean run raised instead."""
    walls: dict[str, float] = {}
    broken: list[SampleResult] = []
    for app_name in config.apps:
        run = RunConfig(
            num_nodes=config.num_nodes, seed=config.seed, protocol=config.protocol
        )
        try:
            report = DsmRuntime(run).execute(make_app(app_name, config.preset))
            walls[app_name] = report.wall_time_us
        except Exception as exc:
            clean = ChaosSample(
                -1, app_name, config.preset, config.num_nodes, config.seed, {},
                config.adaptive, config.protocol,
            )
            error = f"clean {app_name} run raised {type(exc).__name__}: {exc}"
            broken.append(SampleResult(clean, ["baseline"], error=error))
    return walls, broken


def generate_samples(
    config: ChaosConfig, walls: Optional[dict[str, float]] = None
) -> list[ChaosSample]:
    """The search's full sample list (apps round-robin, seeded draws),
    without the samples of an app that has no wall."""
    if walls is None:
        walls = baseline_walls(config)[0]
    samples = []
    for index in range(config.budget):
        app_name = config.apps[index % len(config.apps)]
        if app_name not in walls:
            continue
        rng = np.random.default_rng([config.seed, index])
        samples.append(
            ChaosSample(
                index=index,
                app_name=app_name,
                preset=config.preset,
                num_nodes=config.num_nodes,
                seed=config.seed + index,
                plan=sample_plan(rng, walls[app_name], config.num_nodes),
                adaptive=config.adaptive,
                protocol=config.protocol,
            )
        )
    return samples


# -- invariant checking -----------------------------------------------------


def _execute(sample: ChaosSample):
    """One full run of a sample: (report, verify error or None).

    Verification runs *after* the report is built so a wrong answer
    still leaves the FT counters and the determinism fingerprint
    inspectable.
    """
    config = RunConfig(
        num_nodes=sample.num_nodes,
        seed=sample.seed,
        protocol=sample.protocol,
        fault_plan=FaultPlan.from_dict(sample.plan),
        sanitizer=True,
        # FT always on: stalls and give-ups park messages that only the
        # membership layer revives.
        ft=True,
        max_events=MAX_EVENTS,
        transport=TransportConfig(adaptive=True) if sample.adaptive else TransportConfig(),
    )
    runtime = DsmRuntime(config)
    app = make_app(sample.app_name, sample.preset)
    report = runtime.execute(app, verify=False)
    verify_error = None
    try:
        app.verify(runtime)
    except Exception as exc:
        verify_error = f"{type(exc).__name__}: {exc}"
    return report, verify_error


def evaluate_sample(sample: ChaosSample) -> SampleResult:
    """Run one sample twice and grade it against every invariant."""
    try:
        first, verify_error = _execute(sample)
    except ProtocolError as exc:
        return SampleResult(sample, ["sanitizer"], error=str(exc))
    except SimulationError as exc:
        # MAX_EVENTS exceeded, or the run drained its event queue with
        # schedulers unfinished: either way, it did not stay live.
        return SampleResult(sample, ["liveness"], error=str(exc))
    except FailureError as exc:
        # Crashes left no majority (any crash at 2 nodes): failing fast
        # is the FT layer's answer, so the sample passes.
        return SampleResult(sample, error=str(exc))
    except Exception as exc:  # anything else is still a failed sample
        return SampleResult(sample, ["verify"], error=f"{type(exc).__name__}: {exc}")
    failures: list[str] = []
    error = ""
    health = first.transport_health
    if health is not None:
        # Adaptive invariant 1: the AIMD window bounds in-flight
        # unacked messages under every sampled plan.
        if health["max_in_flight"] > health["cwnd_max"]:
            failures.append("inflight")
            error = (
                f"in-flight high-water {health['max_in_flight']} "
                f"exceeds cwnd_max {health['cwnd_max']}"
            )
        # Adaptive invariant 2 (no-livelock): the simulation runs its
        # event heap dry, so at end of run every paced message must
        # have been sent, every sent message acked or parked, and
        # parked messages may only point at peers that are down or
        # fenced — anything else is traffic stranded toward a live
        # peer that no future event would ever move.
        if (
            health["pacing_backlog"]
            or health["unacked"]
            or health["parked_live"]
        ):
            failures.append("livelock")
            error = (
                f"end-of-run backlog: paced={health['pacing_backlog']} "
                f"unacked={health['unacked']} parked_live={health['parked_live']}"
            )
    if verify_error is not None:
        failures.append("verify")
        error = verify_error
    try:
        second, _ = _execute(sample)
    except Exception as exc:
        failures.append("determinism")
        error = f"replay raised {type(exc).__name__}: {exc}"
    else:
        if first.to_json() != second.to_json():
            failures.append("determinism")
    return SampleResult(sample, failures, error=error, wall_time_us=first.wall_time_us)


def search(
    config: ChaosConfig,
    on_progress: Optional[Callable[[int, SampleResult], None]] = None,
) -> list[SampleResult]:
    """Evaluate the whole budget; results in sample order regardless of
    ``jobs`` (``on_progress`` fires in completion order), after a failing
    ``baseline`` result per app whose clean run raised."""
    walls, broken = baseline_walls(config)
    samples = generate_samples(config, walls)
    return broken + fan_out(samples, evaluate_sample, jobs=config.jobs, on_done=on_progress)


# -- shrinking --------------------------------------------------------------


def _plan_entries(plan: dict) -> list[tuple[str, Optional[int]]]:
    """The individually removable fault entries of a plan dict."""
    entries: list[tuple[str, Optional[int]]] = []
    for fault_field in ("degradations", "stalls", "crashes", "partitions", "corruptions"):
        for index in range(len(plan.get(fault_field) or [])):
            entries.append((fault_field, index))
    for prob_field in ("drop_prob", "duplicate_prob", "reorder_prob"):
        if plan.get(prob_field):
            entries.append((prob_field, None))
    return entries


def fault_entry_count(plan: dict) -> int:
    """How many removable fault entries a plan carries (shrink metric)."""
    return len(_plan_entries(plan))


def _without(plan: dict, entry: tuple[str, Optional[int]]) -> dict:
    plan = copy.deepcopy(plan)
    fault_field, index = entry
    if index is None:
        plan.pop(fault_field, None)
        if fault_field == "reorder_prob":
            plan.pop("jitter_us", None)
    else:
        items = list(plan[fault_field])
        del items[index]
        if items:
            plan[fault_field] = items
        else:
            plan.pop(fault_field)
    return plan


def shrink(
    result: SampleResult,
    max_evals: int = 48,
    on_progress: Optional[Callable[[SampleResult], None]] = None,
) -> SampleResult:
    """Greedily minimise a failing sample's plan.

    Repeatedly tries dropping one fault entry; any removal after which
    *some* invariant still fails is kept (the surviving failure need
    not be the original one — any failing minimal plan is a
    reproducer).  Evaluation is expensive (two runs), so the budget is
    capped; the loop restarts after each successful removal because
    entry indices shift.
    """
    best = result
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for entry in _plan_entries(best.sample.plan):
            candidate = replace(best.sample, plan=_without(best.sample.plan, entry))
            outcome = evaluate_sample(candidate)
            evals += 1
            if on_progress is not None:
                on_progress(outcome)
            if not outcome.ok:
                best = outcome
                improved = True
                break
            if evals >= max_evals:
                break
    return best


# -- reproducers on disk ----------------------------------------------------


_REPRODUCER_KEYS = frozenset(
    "version app preset num_nodes seed max_events adaptive protocol failures error plan".split()
)


def reproducer_dict(result: SampleResult) -> dict:
    sample = result.sample
    return {
        "version": 1,
        "app": sample.app_name,
        "preset": sample.preset,
        "num_nodes": sample.num_nodes,
        "seed": sample.seed,
        "adaptive": sample.adaptive,
        "protocol": sample.protocol,
        "failures": list(result.failures),
        "error": result.error,
        # Round-trip through FaultPlan so the stored form is normalized
        # (sorted links, every field present) and known-valid.
        "plan": FaultPlan.from_dict(sample.plan).to_dict(),
    }


def write_reproducer(result: SampleResult, path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reproducer_dict(result), indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: Path) -> ChaosSample:
    """Read a reproducer; a file that cannot replay what it names raises
    :class:`ConfigError` instead of being graded."""
    data = json.loads(Path(path).read_text())
    if data.get("version") != 1:
        raise ConfigError(f"unknown reproducer version: {data.get('version')!r}")
    # A switched-on field this loader does not know (an older build's
    # test-only bug switch, say) would be dropped, and the file would
    # replay clean and report the failure fixed.
    unknown = sorted(key for key, value in data.items() if key not in _REPRODUCER_KEYS and value)
    if unknown:
        raise ConfigError(f"reproducer sets unknown fields: {', '.join(unknown)}")
    # Files from older builds carry the liveness bound; another value
    # would replay under a bound the file does not name.
    if data.get("max_events", MAX_EVENTS) != MAX_EVENTS:
        raise ConfigError(f"reproducer sets max_events {data['max_events']}, not {MAX_EVENTS}")
    try:
        sample = ChaosSample(
            index=0,
            app_name=data["app"],
            preset=data["preset"],
            num_nodes=int(data["num_nodes"]),
            seed=int(data["seed"]),
            plan=FaultPlan.from_dict(data["plan"]).to_dict(),  # validated before running
            adaptive=bool(data.get("adaptive", False)),
            protocol=str(data.get("protocol", "lrc")),
        )
    except KeyError as exc:
        raise ConfigError(f"reproducer missing field: {exc}") from exc
    # ChaosConfig's own checks: a known app and protocol, sane bounds.
    ChaosConfig(
        apps=(sample.app_name,),
        num_nodes=sample.num_nodes,
        protocol=sample.protocol,
    )
    return sample
