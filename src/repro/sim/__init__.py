"""A compact deterministic discrete-event simulation kernel.

This package is the substrate for every timed component of the SigmaVP
reproduction: host GPU engines, IPC channels, virtual platforms, and the
framework orchestration all run as coroutine processes in one
:class:`~repro.sim.engine.Environment`.
"""

from .engine import EmptySchedule, Environment, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from .resources import PriorityItem, PriorityStore, Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "Request",
    "Resource",
    "Store",
    "StopSimulation",
    "Timeout",
]
