"""Planted bugs: each breaks one promise of the simulator, so a test can
show that a check catches it.

A plant is a monkeypatch applied from the test tree, never a switch in
``src/`` (DESIGN.md §6.21).  ``PLANTS`` maps a name to a :class:`Plant`:
the function that applies the bug through a ``pytest.MonkeyPatch``, the
protocol it breaks and the fault plan it needs, if any.  The checks that
catch each (``benchmarks/results/mutants/`` has the whole kill matrix):

- ``diff_applied_twice``, ``notice_from_dead_interval``: the run itself
  ("fetch of page N cannot converge"), the DRF corpus and the litmus
  tables;
- ``twin_over_twin``: the run ("write to N cannot stabilize") and the
  DRF corpus;
- ``home_misrouted``, ``unserialized_directory``: deadlock detection and
  the DRF corpus;
- ``single_writer``: app verification, the DRF corpus and the litmus
  tables;
- ``split_brain`` (``SPLIT_BRAIN_PLAN`` and the FT layer): the
  sanitizer's checkpoint-cut check, the DRF corpus under that plan, and
  the chaos search (a ``CheckpointError`` on the cut).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional

from repro.dsm.barriers import BarrierSubsystem
from repro.dsm.pagestate import PageCoherence
from repro.dsm.protocol import DsmNode, LrcBackend
from repro.dsm.sc import ScBackend
from repro.ft.detector import COORDINATOR
from repro.ft.manager import FtManager
from repro.network import MessageKind
from repro.sim import spawn


def diff_applied_twice(monkeypatch):
    """A node forgets which diffs it applied, so it applies one again."""
    monkeypatch.setattr(PageCoherence, "note_diffs_applied", lambda self, proc, upto: None)


def twin_over_twin(monkeypatch):
    """A node forgets a page is dirty and twins it a second time."""
    touch = LrcBackend.op_write_touch

    def forgetful_touch(self, page_id):
        state = self.coherence(page_id)
        if state.dirty:
            state.dirty = False
        return touch(self, page_id)

    monkeypatch.setattr(LrcBackend, "op_write_touch", forgetful_touch)


def notice_from_dead_interval(monkeypatch):
    """Received notices name an interval one past the one their writer closed."""
    apply_notices = LrcBackend.apply_notices_charged

    def apply_bumped(self, records, advance_vc=True):
        bumped = [dataclasses.replace(r, interval_idx=r.interval_idx + 1) for r in records]
        return apply_notices(self, bumped, advance_vc)

    monkeypatch.setattr(LrcBackend, "apply_notices_charged", apply_bumped)


def home_misrouted(monkeypatch):
    """An HLRC home update goes to the node after the page's home.

    The skip past the sender makes it a no-op on 2 nodes: the node after
    the home is the sender, so the update lands back on the home.  A run
    that shows it needs 3 nodes or more.
    """
    post = DsmNode.post

    def misrouting_post(self, dst, kind, *args, **kwargs):
        if kind == MessageKind.HOME_UPDATE:
            dst = (dst + 1) % self.num_nodes
            if dst == self.node_id:
                dst = (dst + 1) % self.num_nodes
        return post(self, dst, kind, *args, **kwargs)

    monkeypatch.setattr(DsmNode, "post", misrouting_post)


def single_writer(monkeypatch):
    """An SC node keeps its copy when the directory invalidates it."""
    monkeypatch.setattr(ScBackend, "_invalidate_local", lambda self, page_id: None)


def unserialized_directory(monkeypatch):
    """The SC directory starts a pump per request, busy or not, so two
    transactions on one page overlap (and the pumps then deadlock)."""

    def admit(self, page_id, requester, mode, grant):
        entry = self._dir(page_id)
        entry.queue.append((requester, mode, grant))
        entry.busy = True
        spawn(self.sim, self._run_transactions(page_id), group=f"node{self.node_id}")

    monkeypatch.setattr(ScBackend, "_admit", admit)


def split_brain(monkeypatch):
    """The coordinator completes a barrier episode without a fenced
    node's arrival and commits that episode's checkpoint: a cut across
    the membership split, which the stand-down guard exists to refuse.

    While a node is fenced, each membership tick first completes every
    open episode missing only fenced nodes, with the fence hidden from
    the checkpoint guard (the cut takes a missing node's current clock),
    and then runs as usual: heals, expiries, new fences.  A skipped
    node's late arrival is answered with its release directly, so the
    run still finishes.
    """
    tick = FtManager.membership_tick
    arrival = BarrierSubsystem._manager_arrival

    def release_without_fenced_then_tick(self, dead):
        if self.fenced_at and self.detector.has_quorum():
            yield from release_without_fenced(self)
        yield from tick(self, dead)

    def release_without_fenced(self):
        barriers = self.runtime.dsm_nodes[COORDINATOR].barriers
        skipped = vars(barriers).setdefault("skipped", {})
        for key in sorted(barriers._manager):
            state = barriers._manager.get(key)
            if state is None:
                continue
            missing = set(range(self.num_nodes)) - set(state.node_vcs)
            if not missing or not missing <= set(self.fenced_at):
                continue
            skipped.setdefault(key, set()).update(missing)
            if self.wants_checkpoint(*key):
                vcs = {node: self.runtime.dsm_nodes[node].backend.vc.snapshot() for node in missing}
                fenced, self.fenced_at = self.fenced_at, {}
                try:
                    yield from self.coordinated_checkpoint(*key, {**state.node_vcs, **vcs})
                finally:
                    self.fenced_at = fenced
            yield from barriers._release_all(*key, state)

    def answer_late_arrival(self, barrier_id, episode, src, vc_snapshot, notices):
        skipped = vars(self).get("skipped", {}).get((barrier_id, episode), set())
        if src not in skipped:
            yield from arrival(self, barrier_id, episode, src, vc_snapshot, notices)
            return
        skipped.discard(src)
        wn_log = self.dsm.backend.wn_log
        wn_log.merge(notices)
        yield from self._post_release(src, barrier_id, episode, wn_log.unseen_by(vc_snapshot))

    monkeypatch.setattr(FtManager, "membership_tick", release_without_fenced_then_tick)
    monkeypatch.setattr(BarrierSubsystem, "_manager_arrival", answer_late_arrival)


class Plant(NamedTuple):
    apply: Callable
    protocol: str
    #: Fault plan (``FaultPlan.to_dict`` form) the bug needs, if any.
    plan: Optional[dict] = None


#: A 135 ms stall fences node 1 for several barrier episodes, then it rejoins.
SPLIT_BRAIN_PLAN = {"stalls": [{"node": 1, "start_us": 10_000.0, "end_us": 145_000.0}]}

PLANTS = {
    "diff_applied_twice": Plant(diff_applied_twice, "lrc"),
    "twin_over_twin": Plant(twin_over_twin, "lrc"),
    "notice_from_dead_interval": Plant(notice_from_dead_interval, "lrc"),
    "home_misrouted": Plant(home_misrouted, "hlrc"),
    "single_writer": Plant(single_writer, "sc"),
    "unserialized_directory": Plant(unserialized_directory, "sc"),
    "split_brain": Plant(split_brain, "lrc", SPLIT_BRAIN_PLAN),
}
