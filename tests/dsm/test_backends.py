"""The pluggable coherence backends: selection, protocol-specific
wire behaviour, the inert-LRC-state contract of the SC backend, and
answer equivalence — every program must compute the same result on
every protocol."""

import numpy as np
import pytest

from repro import Compute, Program
from repro.api.ops import Acquire, Read, Release, Write
from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.dsm.backend import BACKEND_NAMES, CoherenceBackend
from repro.dsm.hlrc import HlrcBackend
from repro.dsm.protocol import LrcBackend
from repro.dsm.sc import ScBackend
from repro.errors import ConfigError

from tests.integration.test_smoke import LockedCounter, ProducerConsumer

PROTOCOLS = list(BACKEND_NAMES)
BACKEND_CLASSES = {"lrc": LrcBackend, "hlrc": HlrcBackend, "sc": ScBackend}


def run(program, protocol, **config_kwargs):
    config = RunConfig(**{"num_nodes": 4, "protocol": protocol, **config_kwargs})
    runtime = DsmRuntime(config)
    report = runtime.execute(program)
    return runtime, report


def sent(report, kind):
    return (report.traffic_by_kind or {}).get(kind, {}).get("sent", 0)


# -- selection ---------------------------------------------------------------


def test_unknown_protocol_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown protocol"):
        RunConfig(num_nodes=4, protocol="mesi")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_config_selects_the_named_backend(protocol):
    runtime, report = run(ProducerConsumer(), protocol)
    for dsm in runtime.dsm_nodes:
        assert type(dsm.backend) is BACKEND_CLASSES[protocol]
        assert dsm.backend.name == protocol
    assert report.protocol == protocol


def test_only_lrc_speaks_the_diff_prefetch_protocol():
    assert LrcBackend.supports_diff_prefetch is True
    assert HlrcBackend.supports_diff_prefetch is False
    assert ScBackend.supports_diff_prefetch is False
    assert CoherenceBackend.supports_diff_prefetch is False


# -- answer equivalence ------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_producer_consumer_verifies(protocol):
    _, report = run(ProducerConsumer(), protocol)  # execute() verifies
    assert report.events.remote_misses > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_locked_counter_verifies(protocol):
    _, report = run(LockedCounter(increments=4), protocol)  # execute() verifies
    assert report.wall_time_us > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_runs_are_deterministic(protocol):
    _, first = run(ProducerConsumer(), protocol)
    _, second = run(ProducerConsumer(), protocol)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sanitizer_is_pure_observation(protocol):
    """Sanitizer-on and -off runs are byte-identical per backend."""
    _, plain = run(ProducerConsumer(), protocol)
    _, checked = run(ProducerConsumer(), protocol, sanitizer=True)
    assert plain.to_json() == checked.to_json()


# -- mechanism signatures on the wire ----------------------------------------


@pytest.fixture(scope="module")
def sor_reports():
    reports = {}
    for protocol in PROTOCOLS:
        config = RunConfig(num_nodes=4, protocol=protocol, sanitizer=True)
        reports[protocol] = DsmRuntime(config).execute(make_app("SOR", "small"))
    return reports


def test_lrc_moves_diffs(sor_reports):
    report = sor_reports["lrc"]
    assert sent(report, "diff_request") > 0
    assert sent(report, "home_update") == 0
    assert sent(report, "sc_inval") == 0


def test_hlrc_trades_diff_requests_for_home_traffic(sor_reports):
    report = sor_reports["hlrc"]
    assert sent(report, "home_update") > 0
    assert sent(report, "page_request") > 0
    assert sent(report, "page_reply") == sent(report, "page_request")
    assert sent(report, "diff_request") == 0
    assert sent(report, "sc_inval") == 0


def test_sc_replaces_diffs_with_invalidations(sor_reports):
    report = sor_reports["sc"]
    assert sent(report, "sc_inval") > 0
    assert sent(report, "sc_inval") == sent(report, "sc_inval_ack")
    assert sent(report, "sc_data") > 0
    assert sent(report, "diff_request") == 0
    assert sent(report, "home_update") == 0
    assert sent(report, "write_notice") == 0


def test_all_protocols_compute_the_same_answer(sor_reports):
    # make_app verification ran inside execute(); walls must differ
    # (the protocols really took different paths) yet all verified.
    walls = {p: r.wall_time_us for p, r in sor_reports.items()}
    assert len(set(walls.values())) == 3, walls


# -- HLRC fetch parking ------------------------------------------------------
# A fetch that reaches the home before the ``HOME_UPDATE`` it needs waits
# there.  The 4-node cells never lose that race; the 8-node OCEAN one
# does, and ``GrantOvertakesUpdate`` loses it by construction.


def traced_hlrc_events(app, **config):
    runtime, _ = run(app, "hlrc", **{"num_nodes": 8, "trace": True, **config})
    return list(runtime.tracer.events)  # execute() verified the answer


class GrantOvertakesUpdate(Program):
    """Node 1 grants lock 1 while its release of lock 3 is still flushing
    page 0 to its home, node 0: the grant announces the interval, and
    the home reads page 0 before the ``HOME_UPDATE`` has been applied."""

    name = "grant-overtakes-update"

    def __init__(self, start0):
        self.start0 = start0

    def setup(self, runtime):
        self.page0 = runtime.alloc("page0", runtime.config.page_size).base

    def thread_body(self, runtime, tid):
        if tid == 1:
            yield Acquire(1)  # lock 1's token now rests on node 1
            yield Release(1)
            yield Compute(1000.0)
            yield Acquire(3)
            yield Write(self.page0, np.arange(512, dtype=np.int64))
            yield Release(3)
        else:
            yield Compute(self.start0)
            yield Acquire(1)
            yield Read(self.page0, 8, dtype=np.int64)
            yield Release(1)

    def verify(self, runtime):
        pass  # a race by design: the test reads the trace


def test_hlrc_home_parks_a_remote_fetch_until_the_update_lands():
    events = traced_hlrc_events(make_app("OCEAN", "small"))
    parked = [e for e in events if e.name == "fetch_parked"]
    assert parked
    # Each parked request was pumped and served: its requester's fault closed.
    faults = [e for e in events if e.name == "page_fault"]
    ended = {e.id for e in faults if e.ph == "e"}
    closed = {(e.node, e.args["page"]) for e in faults if e.ph == "b" and e.id in ended}
    assert {(e.args["requester"], e.args["page"]) for e in parked} <= closed


def test_hlrc_home_waits_on_its_own_stale_page():
    events = traced_hlrc_events(GrantOvertakesUpdate(850.0), num_nodes=2)
    faults = [e for e in events if e.name == "page_fault"]
    own = {e.id for e in faults if e.ph == "b" and e.args["page"] % 2 == e.node}
    assert own
    # Nothing to fetch: the home's copy turns valid when the updates apply.
    assert all(e.args["remote"] is False for e in faults if e.ph == "e" and e.id in own)


# -- the inert-LRC-state contract of SC --------------------------------------


def test_sc_lrc_machinery_stays_inert():
    """SC piggybacks *inert* LRC state on sync messages: the vector
    clock never advances and no write notices are ever logged, so the
    shared lock/barrier code needs no per-protocol branches."""
    runtime, report = run(make_app("SOR", "small"), "sc", sanitizer=True)
    for dsm in runtime.dsm_nodes:
        backend = dsm.backend
        assert backend.vc.snapshot() == (0,) * 4
        assert backend.diff_store.total_flushes == 0
        assert backend.diff_store.pages() == []
