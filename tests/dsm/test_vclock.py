"""Unit tests for vector clocks."""

import pytest

from repro.dsm import VectorClock
from repro.errors import ProtocolError


def test_starts_at_zero():
    vc = VectorClock(4, owner=1)
    assert vc.snapshot() == (0, 0, 0, 0)


def test_bad_owner_rejected():
    with pytest.raises(ProtocolError):
        VectorClock(4, owner=4)
    with pytest.raises(ProtocolError):
        VectorClock(4, owner=-1)


def test_advance_own_increments():
    vc = VectorClock(3, owner=0)
    assert vc.advance_own() == 1
    assert vc.advance_own() == 2
    assert vc.snapshot() == (2, 0, 0)


def test_size_bytes():
    assert VectorClock(8, owner=0).size_bytes == 32
