"""Discrete-event simulation kernel (events, processes, resources, RNG)."""

from repro.sim.core import AllOf, AnyOf, Condition, Event, Simulator, Timeout
from repro.sim.process import Process, spawn
from repro.sim.resources import Resource
from repro.sim.rng import RandomSource

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Process",
    "RandomSource",
    "Resource",
    "Simulator",
    "Timeout",
    "spawn",
]
