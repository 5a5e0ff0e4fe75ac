"""End-to-end tracing tests: every benchmark exports a valid
Perfetto-loadable trace whose reconstructed timeline agrees exactly with
the aggregate accounting — and tracing never perturbs the simulation."""

import pytest

from repro import DsmRuntime, RunConfig
from repro.apps import APP_ORDER, make_app
from repro.ft import detector, manager
from repro.network import FaultPlan
from repro.network import transport as reliable
from repro.network.faults import FaultyNetwork
from repro.network.transport import ReliableTransport
from repro.prefetch.engine import PrefetchEngine
from repro.trace import PhaseTimeline
from repro.trace.validate import validate_chrome_trace

CHAOS_PLAN = FaultPlan(drop_prob=0.05, duplicate_prob=0.02, reorder_prob=0.2, jitter_us=200.0)


def run(app_name, trace=True, seed=42, **config_kwargs):
    config = RunConfig(num_nodes=4, seed=seed, trace=trace, **config_kwargs)
    runtime = DsmRuntime(config)
    app = make_app(app_name, preset="small")
    app.use_prefetch = config.prefetch
    report = runtime.execute(app)
    return runtime, report


@pytest.mark.parametrize("app_name", APP_ORDER)
def test_every_app_traces_validates_and_reconciles(app_name):
    """The tentpole guarantee, per app: the exported Chrome trace is
    well-formed and the PhaseTimeline rebuilt from the event stream
    matches TimeBreakdown per node and per category."""
    runtime, report = run(app_name)
    tracer = runtime.tracer
    assert len(tracer) > 0
    assert validate_chrome_trace(tracer.chrome_trace()) == []
    assert tracer.timeline().verify_against(report) == []


def test_timeline_agreement_is_exact_not_approximate():
    """Per-node per-category totals replay the very float additions
    TimeBreakdown.charge made, so they are equal — not approximately."""
    runtime, report = run("SOR")
    timeline = runtime.tracer.timeline()
    for node, breakdown in enumerate(report.node_breakdowns):
        assert timeline.node_total(node) == breakdown.times


def test_multithreaded_prefetch_run_reconciles_too():
    runtime, report = run("SOR", threads_per_node=2, prefetch=True)
    tracer = runtime.tracer
    names = {event.name for event in tracer}
    assert "prefetch_issue" in names
    assert "context_switch" in names
    assert validate_chrome_trace(tracer.chrome_trace()) == []
    assert tracer.timeline().verify_against(report) == []


def test_chaos_run_traces_drops_and_retransmits_with_async_arrows(monkeypatch):
    """Fault-injection runs must show the loss/recovery story: drop and
    retransmit instants, and in-flight message spans where a dropped
    message is exactly an unterminated async begin."""
    monkeypatch.setattr(reliable, "TIMEOUT_US", 3_000.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 20)
    runtime, report = run("SOR", fault_plan=CHAOS_PLAN)
    tracer = runtime.tracer
    names = [event.name for event in tracer]
    assert "msg_drop" in names
    assert "retransmit" in names
    assert "transport_timeout" in names
    assert "msg_duplicate" in names
    assert "duplicates_suppressed" not in names  # counter, not an event name
    assert "duplicate_suppressed" in names
    # Async message lifecycle: a span opens for every message the wire
    # accepted; the ones the fabric ate after acceptance (switch-queue
    # drops) stay unterminated — begins exceed ends by exactly that.
    begins = sum(1 for e in tracer if e.ph == "b" and e.name.startswith("msg:"))
    ends = sum(1 for e in tracer if e.ph == "e" and e.name.startswith("msg:"))
    switch_drops = sum(
        1 for e in tracer if e.name == "msg_drop" and (e.args or {}).get("at") == "switch"
    )
    assert begins > 0
    assert begins - ends == switch_drops
    # ...and the validator explicitly tolerates that.
    assert validate_chrome_trace(tracer.chrome_trace()) == []
    assert tracer.timeline().verify_against(report) == []


def test_tracing_does_not_perturb_the_simulation():
    """Determinism guard: trace on vs off => bit-identical RunReport."""
    _, traced = run("SOR", trace=True, threads_per_node=2, prefetch=True)
    _, untraced = run("SOR", trace=False, threads_per_node=2, prefetch=True)
    assert traced.to_json() == untraced.to_json()
    assert traced.wall_time_us == untraced.wall_time_us


@pytest.mark.parametrize("loss", [0.0, 0.05])
def test_emitters_that_hold_the_guard_run_once_per_loss_not_per_message(loss, monkeypatch):
    """The guard rule (DESIGN.md §6.18): a site may leave its
    ``trace_on`` check to a shared emitter only if it runs per datagram
    the fabric lost or doubled, or per membership change.  With tracing
    off, a clean run therefore never enters one, and a lossy run enters
    them no more often than it timed out, retransmitted, suppressed a
    duplicate or had a prefetch request refused."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__qualname__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(detector, "mark", counted(detector.mark))
    monkeypatch.setattr(manager, "mark", detector.mark)
    for owner in (ReliableTransport, PrefetchEngine):
        monkeypatch.setattr(owner, "_mark", counted(owner._mark))
    monkeypatch.setattr(FaultyNetwork, "_inject_fault", counted(FaultyNetwork._inject_fault))

    _, report = run(
        "RADIX", trace=False, prefetch=True, fault_plan=FaultPlan(drop_prob=loss) if loss else None
    )
    events = report.events
    bound = (
        events.transport_timeouts
        + events.retransmissions
        + events.duplicates_suppressed
        + report.prefetch_stats.drops_observed
    )
    assert (bound > 0) == (loss > 0)
    assert len(calls) <= bound, calls


def test_tracing_is_deterministic_itself():
    """Same seed => the same event stream, raw: message ids, which name
    the wire spans and the causal-edge labels, restart with each
    cluster, so the second run in a process numbers like the first."""

    def stream():
        runtime, _ = run("SOR", seed=7)
        return [event.as_dict() for event in runtime.tracer]

    first = stream()
    assert any("msg" in (row.get("args") or {}) for row in first)
    assert first == stream()


def test_runconfig_coerces_and_rejects_trace_values():
    from repro.errors import ConfigError

    assert RunConfig(trace=True).trace is True
    assert RunConfig(trace=False).trace is False
    assert RunConfig(trace=None).trace is False
    with pytest.raises(ConfigError):
        RunConfig(trace="yes")
