"""Host-speed calibration: a fixed kernel timed around every request.

A shared 2-vCPU host changes speed by up to 1.7x within a second, as
other tenants' load comes and goes, and a run of the same requests can
take 30% longer than the one before it.  The benchmark therefore times
a calibration kernel right before and right after every request.  The
kernel is code that never changes and does the kind of work the request
does: timing-only requests run the simulator's event loop, so they are
calibrated by :func:`event_loop`, a small discrete-event simulation in
pure Python; functional requests spend their time on arrays, so they
are calibrated by :func:`array_pass`, NumPy arithmetic on freshly
allocated arrays.  Multiplied by :meth:`Calibration.factor` of the two
calibrations, a request's latency reads as it would on a host where the
kernel takes its ``reference_s``.  Per request this is rough, but over
a round it leaves a few percent of a 30% swing (see README.md,
"Noise").  A change to the program moves the request's time and not
the kernel's, so it moves the metric in full.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np


class _Event:
    __slots__ = ("time", "owner", "delay")

    def __init__(self, time: float, owner: int, delay: float) -> None:
        self.time, self.owner, self.delay = time, owner, delay


def _process(owner: int, table: Dict[Tuple[int, int], int], steps: int) -> Iterator[float]:
    x = 0
    for i in range(steps):
        x = (x * 31 + i + owner) % 1009
        key = (owner, i % 7)
        table[key] = table.get(key, 0) + x
        yield (x % 13) * 0.1 + 0.01


def event_loop(processes: int = 32, steps: int = 40) -> int:
    """Run ``processes`` generator processes of ``steps`` timed steps each
    through a heap-ordered event loop; return a checksum of the run."""
    heap: List[Tuple[float, int, int]] = []
    table: Dict[Tuple[int, int], int] = {}
    log: List[_Event] = []
    running = {owner: _process(owner, table, steps) for owner in range(processes)}
    for owner in range(processes):
        heapq.heappush(heap, (0.0, owner, owner))
    seq = processes
    while heap:
        now, _, owner = heapq.heappop(heap)
        try:
            delay = next(running[owner])
        except StopIteration:
            continue
        log.append(_Event(now, owner, delay))
        heapq.heappush(heap, (now + delay, seq, owner))
        seq += 1
    return len(log) + sum(table.values())


def array_pass(passes: int = 5, size: int = 1 << 16) -> float:
    """Generate, combine and reduce fresh float32 arrays of ``size``
    elements, ``passes`` times; return the sum of the results."""
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(passes):
        a = rng.random(size, dtype=np.float32)
        b = rng.random(size, dtype=np.float32)
        total += float((a * b + np.sqrt(a)).sum())
    return total


@dataclass(frozen=True)
class Calibration:
    """A calibration kernel and its duration on the reference host."""

    kernel: Callable[[], object]
    #: Seconds the kernel takes on the reference host: about its median
    #: on the 2-vCPU development host.
    reference_s: float

    def measure(self) -> float:
        """Seconds the kernel takes now.

        The cyclic collector is off meanwhile, so the program's heap
        cannot change what the kernel costs.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def factor(self, before: float, after: float) -> float:
        """Scale from host time to reference time for a span timed
        between two measurements that took ``before`` and ``after``."""
        return self.reference_s / ((before + after) / 2)


EVENT_LOOP = Calibration(event_loop, 0.0025)
ARRAY_PASS = Calibration(array_pass, 0.0035)


def matching(functional: bool) -> Calibration:
    """The calibration for functional or for timing-only requests."""
    return ARRAY_PASS if functional else EVENT_LOOP
