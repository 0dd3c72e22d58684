"""A compact deterministic discrete-event simulation kernel.

This package is the substrate for every timed component of the SigmaVP
reproduction: host GPU engines, IPC channels, virtual platforms, and the
framework orchestration all run in one
:class:`~repro.sim.engine.Environment`, as coroutine processes or as
chains of scheduled callbacks.
"""

from .engine import EmptySchedule, Environment, StopSimulation
from .events import (
    AllOf,
    Event,
    Initialize,
    Interrupt,
    Process,
    Timeout,
    annotate,
)

__all__ = [
    "AllOf",
    "EmptySchedule",
    "Environment",
    "Event",
    "Initialize",
    "Interrupt",
    "Process",
    "StopSimulation",
    "Timeout",
    "annotate",
]
