"""The page-fault plane every backend runs on (``repro.dsm.backend``):
its contract, held on each protocol, and byte-identity with the commit
the fixture was recorded on — full reports *and* trace streams, which
no other gate compares under hlrc/sc."""

import json

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.dsm.backend import BACKEND_NAMES
from repro.errors import ProtocolError
from repro.network import Message, MessageKind

from tests.dsm.fixtures.record import CELLS, FIXTURE, cell_digests, cell_key, traced_run
from tests.integration.test_smoke import ProducerConsumer

with open(FIXTURE, encoding="utf-8") as _handle:
    RECORDED = json.load(_handle)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_key(*cell))
def test_report_and_trace_equal_the_recorded_digests(cell):
    """Regenerate with ``benchmarks/contract/run.py rebaseline`` only
    for a change that is *meant* to move a report or a trace."""
    got, want = cell_digests(*cell), RECORDED[cell_key(*cell)]
    moved = [part for part in want if got[part] != want[part]]
    assert not moved, f"{cell_key(*cell)}: {' and '.join(moved)} differ from {FIXTURE}"


@pytest.mark.parametrize("protocol", BACKEND_NAMES)
def test_fault_envelope_contract(protocol):
    runtime, report = traced_run("FFT", "4TP", protocol)
    events = list(runtime.tracer.events)
    faults = [e for e in events if e.name == "page_fault"]
    begun = {e.id: e for e in faults if e.ph == "b"}
    ended = {e.id: e for e in faults if e.ph == "e"}
    # Every fault that began also ended, under its own id.
    assert begun and begun.keys() == ended.keys()
    assert len(begun) == sum(e.ph == "b" for e in faults)
    # One histogram sample and one host count per fault.
    assert report.profile["histograms"]["page_fault_us"]["count"] == len(begun)
    assert sum(dsm.faults for dsm in runtime.dsm_nodes) == len(begun)
    # ``remote`` says whether the fault sent a request: one fault per
    # (node, page) is in service at a time, so a request edge stamped
    # inside the span's window belongs to it.
    requests = [
        e for e in events if e.name == "pag_edge" and e.args["role"] == "request"
    ]
    remote = set()
    for fault_id, begin in begun.items():
        end = ended[fault_id]
        sent = any(
            r.node == begin.node
            and r.args.get("page") == begin.args["page"]
            and begin.ts <= r.ts <= end.ts
            for r in requests
        )
        assert end.args["remote"] is sent, fault_id
        remote.add(sent)
    # Not vacuous: both kinds occurred (prefetch-heap hits under lrc,
    # manager-local transactions under sc).  An hlrc home is never seen
    # faulting on its own page: the release that made it stale blocked
    # on the home's ack.
    assert remote == ({True} if protocol == "hlrc" else {True, False})


@pytest.mark.parametrize("protocol", BACKEND_NAMES)
def test_an_unrouted_message_kind_is_a_protocol_error(protocol):
    runtime = DsmRuntime(RunConfig(num_nodes=4, protocol=protocol))
    runtime.execute(ProducerConsumer())
    # No prefetch engine, no other protocol's kinds, and ACKs never get
    # past the transport: none of these has a route.
    foreign = {"lrc": MessageKind.SC_REQ, "hlrc": MessageKind.SC_DATA, "sc": MessageKind.DIFF_REPLY}
    for kind in (foreign[protocol], MessageKind.ACK, MessageKind.PREFETCH_REQUEST):
        with pytest.raises(ProtocolError, match=f"(?i)unhandled message kind .*{kind.value}"):
            runtime.dsm_nodes[0].dispatch(Message(src=1, dst=0, kind=kind, size_bytes=16))


@pytest.mark.parametrize("protocol", BACKEND_NAMES)
def test_request_ids_survive_a_restore(protocol):
    """The counter names trace spans, so a rollback must not rewind it —
    including from a snapshot written when it was still checkpointed."""
    runtime = DsmRuntime(RunConfig(num_nodes=4, protocol=protocol))
    backend = runtime.dsm_nodes[0].backend
    snap = backend.snapshot_state()
    assert "next_request_id" not in snap
    first = backend.new_request_id()
    backend.restore_state({**snap, "next_request_id": 0})
    assert backend.new_request_id() == first + 1
