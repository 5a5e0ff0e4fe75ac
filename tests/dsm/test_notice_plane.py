"""Per-page notice state is demand-driven: a node keeps it for the pages
it holds, however many pages the notices it receives name (DESIGN.md §6
item 13).  The equivalence to the eager design is
``test_writenotice.py``'s; here whole runs are held to two things: a page
first touched after its notices arrived still reads invalid, and the
nodes² × pages growth cannot come back unnoticed."""

import numpy as np
import pytest

from repro import Barrier, DsmRuntime, Program, Read, RunConfig, Write
from repro.experiments.runner import ExperimentRunner, make_configured_app


class LateReader(Program):
    """Thread 0 writes a page; everyone else first looks at it two
    barriers later — long after the release that named it."""

    name = "late-reader"

    def __init__(self):
        self.valid_before_read = {}
        self.faults_for_read = {}
        self.seen = {}

    def setup(self, runtime):
        self.vec = runtime.alloc_vector("data", np.float64, 512)  # one 4 KB page

    def thread_body(self, runtime, tid):
        if tid == 0:
            yield Write(self.vec.addr(0), np.full(512, 7.0))
        yield Barrier(0)
        yield Barrier(0)
        dsm = runtime.dsm_nodes[tid]
        page_id = self.vec.addr(0) // runtime.config.page_size
        if tid != 0:
            assert page_id not in dsm.backend._coherence  # never touched so far
        self.valid_before_read[tid] = dsm.backend.page_valid(page_id)
        before = dsm.faults
        data = yield Read(self.vec.addr(0), 512 * 8, dtype=np.float64)
        again = yield Read(self.vec.addr(0), 512 * 8, dtype=np.float64)
        self.faults_for_read[tid] = dsm.faults - before
        self.seen[tid] = (np.asarray(data).copy(), np.asarray(again).copy())
        yield Barrier(0)

    def verify(self, runtime):
        for first, second in self.seen.values():
            assert (first == 7.0).all() and (second == 7.0).all()


@pytest.mark.parametrize("protocol", ["lrc", "hlrc"])
def test_a_page_first_touched_after_its_notices_reads_invalid_and_faults_once(protocol):
    program = LateReader()
    DsmRuntime(RunConfig(num_nodes=3, protocol=protocol)).execute(program)
    # "No state" must not read as "valid": the writer's page is, the
    # others' is not, and each of them takes exactly one fault for it.
    assert program.valid_before_read == {0: True, 1: False, 2: False}
    assert program.faults_for_read == {0: 0, 1: 1, 2: 1}


# -- the growth cannot come back ---------------------------------------------------


def _run_recording_touches(app_name, label, nodes, protocol):
    """Run one ``small`` cell (verified against numpy by ``execute``);
    returns the runtime and, per node, every page an op of one of its
    threads named — reads, writes and prefetches all resolve their byte
    ranges through ``pages_in_range``."""
    config = ExperimentRunner(num_nodes=nodes, preset="small").config(label, protocol=protocol)
    runtime = DsmRuntime(config)
    touched = [set() for _ in range(nodes)]
    for dsm, mine in zip(runtime.dsm_nodes, touched):
        pages = dsm.node.pages

        def recording(addr, nbytes, inner=pages.pages_in_range, mine=mine):
            ids = inner(addr, nbytes)
            mine.update(ids)
            return ids

        pages.pages_in_range = recording
    runtime.execute(make_configured_app(app_name, "small", label))
    return runtime, touched


@pytest.mark.parametrize(
    "label,nodes,protocol",
    [
        ("O", 13, "lrc"),
        ("O", 48, "lrc"),
        ("O", 13, "hlrc"),  # home serving
        ("4TP", 13, "lrc"),  # the prefetch engine's on_invalidation and replies
    ],
)
def test_per_page_notice_state_is_bounded_by_the_pages_a_node_holds(label, nodes, protocol):
    runtime, touched = _run_recording_touches("SOR", label, nodes, protocol)
    grid_pages = set().union(*touched)
    named = set()
    for dsm in runtime.dsm_nodes:
        for records in dsm.backend.wn_log._by_proc:
            named.update(page for record in records for page in record.pages)
    assert named == grid_pages and len(grid_pages) == 32  # every node hears of every page
    tracked_total = 0
    for dsm, mine in zip(runtime.dsm_nodes, touched):
        backend = dsm.backend
        # What a node holds: the rows its threads computed on plus the
        # halo rows they read (all in ``mine``), and under hlrc the
        # pages it is the home of.
        held = set(mine)
        if protocol == "hlrc":
            held |= {page for page in grid_pages if backend.home_of(page) == dsm.node_id}
        assert set(backend._coherence) <= held, dsm.node_id
        assert set(backend.wn_log._by_page) <= held, dsm.node_id
        tracked_total += len(backend._coherence)
    # Node 0 initialises the whole grid; everyone else holds a few rows.
    # The eager design kept nodes x pages of these.
    assert len(runtime.dsm_nodes[0].backend._coherence) == len(grid_pages)
    assert tracked_total <= len(grid_pages) + 6 * nodes < nodes * len(grid_pages) // 2
