"""Plant one bug per invariant family and print the invariant the
sanitizer names, on ROOT's simulator.

    python3 catches.py ROOT

Each bug is a monkeypatch; each run is ``SOR``/``RADIX`` ``small`` on
4 nodes with the sanitizer on, unverified.
"""
import dataclasses
import os
import re
import sys

sys.path[:0] = [os.path.join(sys.argv[1], "src")]

from repro.api.runtime import DsmRuntime, RunConfig  # noqa: E402
from repro.apps import make_app  # noqa: E402
from repro.dsm.pagestate import PageCoherence  # noqa: E402
from repro.dsm.protocol import DsmNode, LrcBackend  # noqa: E402
from repro.dsm.sc import ScBackend  # noqa: E402
from repro.network import MessageKind  # noqa: E402
from repro.sim import spawn  # noqa: E402


def diff_applied_twice():
    PageCoherence.note_diffs_applied = lambda self, proc, upto: None


def twin_over_twin():
    original = LrcBackend.op_write_touch

    def touch(self, page_id):
        state = self.coherence(page_id)
        if state.dirty:
            state.dirty = False  # forgets the page is dirty: a second twin
        return original(self, page_id)

    LrcBackend.op_write_touch = touch


def notice_from_dead_interval():
    original = LrcBackend.apply_notices_charged

    def apply(self, records, advance_vc=True):
        bumped = [dataclasses.replace(r, interval_idx=r.interval_idx + 1) for r in records]
        return original(self, bumped, advance_vc)

    LrcBackend.apply_notices_charged = apply


def home_misrouted():
    original = DsmNode.post

    def post(self, dst, kind, *args, **kwargs):
        if kind == MessageKind.HOME_UPDATE:
            n = self.backend.num_nodes
            dst = (dst + 1) % n
            if dst == self.node_id:
                dst = (dst + 1) % n
        return original(self, dst, kind, *args, **kwargs)

    DsmNode.post = post


def single_writer():
    ScBackend._invalidate_local = lambda self, page_id: None


def unserialized_directory():
    def admit(self, page_id, requester, mode, grant):
        entry = self._dir(page_id)
        entry.queue.append((requester, mode, grant))
        entry.busy = True
        spawn(self.sim, self._run_transactions(page_id), group=f"node{self.node_id}")

    ScBackend._admit = admit


BUGS = {
    "diff_applied_twice": (diff_applied_twice, "lrc", "SOR"),
    "twin_over_twin": (twin_over_twin, "lrc", "SOR"),
    "notice_from_dead_interval": (notice_from_dead_interval, "lrc", "SOR"),
    "home_misrouted": (home_misrouted, "hlrc", "SOR"),
    "single_writer": (single_writer, "sc", "RADIX"),
    "unserialized_directory": (unserialized_directory, "sc", "SOR"),
}

name = sys.argv[2]
plant, protocol, app = BUGS[name]
plant()
config = RunConfig(num_nodes=4, protocol=protocol, sanitizer=True, max_events=2_000_000)
try:
    DsmRuntime(config).execute(make_app(app, "small"), verify=False)
    print(f"{name:28s} no violation")
except Exception as exc:
    found = re.search(r"sanitizer: (.*?) violated on node (\d+)", str(exc))
    what = f"{found.group(1)} (node {found.group(2)})" if found else f"{type(exc).__name__}: {str(exc)[:80]}"
    print(f"{name:28s} {what}")
