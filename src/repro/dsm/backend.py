"""The coherence-backend strategy interface.

``DsmNode`` (repro.dsm.protocol) is the per-node *host*: it owns the
pieces every protocol shares — the lock and barrier subsystems, the
prefetch engine and FT manager hooks, message dispatch, and the fault
counters.  Everything protocol-*specific* — fault handling, the
release/acquire consistency actions, notice propagation, and the
checkpoint snapshot/restore pair — lives behind this narrow
:class:`CoherenceBackend` interface, selected by ``RunConfig.protocol``:

- ``lrc`` — TreadMarks-style lazy release consistency (the default;
  :class:`~repro.dsm.protocol.LrcBackend`), multiple writers with
  twins/diffs and distributed diff servers;
- ``hlrc`` — home-based LRC (:class:`~repro.dsm.hlrc.HlrcBackend`):
  each page has a deterministic home node, releases flush diffs home
  eagerly, and faults pull the whole page from the home;
- ``sc`` — single-writer sequentially-consistent invalidate
  (:class:`~repro.dsm.sc.ScBackend`): a per-page directory serializes
  ownership transfers, write faults invalidate every copy, and there
  are no twins, diffs, or vector clocks.

Every backend — even SC, which needs none of them — exposes ``vc``,
``wn_log``, ``diff_store`` and ``intervals`` attributes, because the
shared lock/barrier subsystems piggyback vector-clock snapshots and
write-notice sets on their messages.  SC satisfies them with *inert*
instances (a never-advancing clock, an empty log), which keeps the
synchronization code paths — and their message sizes — identical
across protocols without per-protocol branches in locks/barriers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ConfigError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.dsm.pagestate import PageCoherence
    from repro.network import Message
    from repro.sim import Event

__all__ = ["BACKEND_NAMES", "CoherenceBackend", "make_backend"]

#: Valid ``RunConfig.protocol`` values, in presentation order.
BACKEND_NAMES = ("lrc", "hlrc", "sc")


class CoherenceBackend:
    """One coherence protocol's per-node state machine.

    Subclasses implement the narrow surface the host, the thread
    scheduler, the synchronization subsystems and the verifier rely on.
    All generator-returning methods run in simulation context and may
    charge CPU, send messages and wait on events.
    """

    #: The registry key, also recorded in reports and checkpoints.
    name = "?"
    #: Whether the diff-based prefetch protocol (PREFETCH_REQUEST /
    #: PREFETCH_REPLY carrying diffs) applies.  Backends without diff
    #: servers get early-binding prefetch instead: the engine starts
    #: the backend's own fetch ahead of the access.
    supports_diff_prefetch = False

    def __init__(self, host) -> None:
        self.host = host
        self.node = host.node
        self.sim = host.sim
        self.node_id = host.node_id
        self.num_nodes = host.num_nodes

    # -- shared helpers (identical across backends) ------------------------

    @property
    def prefetch(self):
        """The host's prefetch engine (installed after construction)."""
        return self.host.prefetch

    def send(self, message: "Message"):
        """Generator: charge the send cost and inject the message."""
        return self.node.send_message(message)

    def label_edge(self, message: "Message", role: str, **entity) -> None:
        """Attach an entity label to a causal message edge (trace only)."""
        self.host.label_edge(message, role, **entity)

    # -- page access (scheduler-facing) ------------------------------------

    def coherence(self, page_id: int) -> "PageCoherence":
        raise NotImplementedError

    def page_valid(self, page_id: int) -> bool:
        raise NotImplementedError

    def page_writable(self, page_id: int) -> bool:
        """Whether a store may land on the page right now, with no
        further protocol action and no yields."""
        raise NotImplementedError

    def ensure_valid(self, page_id: int, for_write: bool = False) -> Optional["Event"]:
        """None if the page is usable now, else a fetch event.

        ``for_write`` requests write access where the protocol
        distinguishes it (SC needs exclusive ownership before a store;
        the LRC family ignores the flag — any valid page is writable
        after :meth:`op_write_touch`).
        """
        raise NotImplementedError

    def op_write_touch(self, page_id: int) -> Generator:
        """Per-page bookkeeping for a store to a valid page."""
        raise NotImplementedError

    # -- consistency actions (lock/barrier-facing) -------------------------

    def close_interval_charged(self) -> Generator:
        """The release action (lock release, barrier arrival)."""
        raise NotImplementedError

    def apply_notices_charged(self, notices: list, advance_vc: bool = True) -> Generator:
        """The acquire action: merge received write notices."""
        raise NotImplementedError

    def flush_page_if_dirty(self, page_id: int) -> Generator:
        """Make a locally dirty page servable (LRC diff creation); a
        no-protocol-action default for backends without diff servers."""
        return
        yield  # pragma: no cover

    # -- message dispatch --------------------------------------------------

    def handle_message(self, msg: "Message") -> Generator:
        """Handle a protocol-kind message the host did not route."""
        raise ProtocolError(f"unhandled message kind {msg.kind}")
        yield  # pragma: no cover

    # -- checkpoint / verification -----------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copy the backend's protocol state at a consistent cut.

        The returned dict must share NO mutable structure with live
        state (tests/dsm/test_snapshot_aliasing.py drives this against
        every backend), and must carry a ``"vc"`` snapshot — the FT
        manager reports rollback vector clocks for every protocol
        (inert zeros under SC).
        """
        raise NotImplementedError

    def restore_state(self, snap: dict) -> None:
        raise NotImplementedError

    def global_page(self, runtime, page_id: int) -> "np.ndarray":
        """The authoritative final contents of a page (verifier path).

        Called on node 0's backend; may inspect every node's backend
        through ``runtime.dsm_nodes``.
        """
        raise NotImplementedError


def make_backend(protocol: str, host) -> CoherenceBackend:
    """Instantiate the backend named by ``RunConfig.protocol``."""
    # Imported here, not at module scope: the concrete backends import
    # this interface (and LRC lives beside the host in repro.dsm.protocol).
    if protocol == "lrc":
        from repro.dsm.protocol import LrcBackend

        return LrcBackend(host)
    if protocol == "hlrc":
        from repro.dsm.hlrc import HlrcBackend

        return HlrcBackend(host)
    if protocol == "sc":
        from repro.dsm.sc import ScBackend

        return ScBackend(host)
    raise ConfigError(f"unknown protocol {protocol!r} (choose from {BACKEND_NAMES})")
