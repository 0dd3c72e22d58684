"""The discrete-event simulation environment.

:class:`Environment` owns simulated time and the pending-event heap.  All
timed components of the SigmaVP reproduction — host GPU engines, IPC
channels, virtual platforms — run inside one environment, as coroutine
processes or as scheduled callbacks, so a single ``env.run()`` advances
the entire simulated host machine deterministically.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from ..obs import metrics as _obs_metrics
from .events import (
    NORMAL,
    AllOf,
    Event,
    Process,
    Timeout,
)


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Signals :meth:`Environment.run` to return early."""


class Environment:
    """Execution environment for a deterministic event-driven simulation.

    Time is a float in **milliseconds** throughout this project: the paper
    reports kernel and copy times in milliseconds, so using them natively
    keeps every number legible against the paper's figures.
    """

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time in milliseconds.  A plain attribute,
        #: not a property: every event, job and engine op reads it, and
        #: only the event loop (and ``run(until=time)``) may write it.
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        # Tie-break counter for the heap; a bound ``count().__next__``
        # avoids the load/store attribute churn of ``self._eid += 1`` on
        # the hottest call of the simulation.
        self._next_eid = count().__next__
        #: Slots reserved by :meth:`Event.succeed_lazily`, in slot order
        #: (every reservation takes the current instant and the next
        #: sequence number).  The loop marks each event processed once
        #: its slot has passed; an entry a waiter claimed is in the heap
        #: as well and fires there.
        self._reserved: Deque[Tuple[float, int, int, Event]] = deque()
        self._active_process: Optional[Process] = None
        self._steps = 0

    def __repr__(self) -> str:
        return f"<Environment now={self.now} pending={len(self._queue)}>"

    @property
    def steps(self) -> int:
        """Number of events processed so far (read-only).

        The counter moves exactly when the loop takes an event from the
        heap (a reserved completion no waiter claimed is not one; its slot
        passes as the loop takes a later event, or as it returns), so two
        reads inside the simulation that see the same value bracket no
        event processing: state that only events change is the same at
        both.  The scheduler reads
        it to tell a dispatch burst (decisions between two processed
        events) from the next one, whose first decision looks for what
        the events in between changed.
        """
        return self._steps

    @property
    def pending(self) -> int:
        """Number of scheduled events that have not fired yet."""
        return len(self._queue)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event that fires at the absolute time ``when``.

        ``timeout(a + b)`` fires at ``now + (a + b)``, which is not always
        the float ``(now + a) + b`` that two back-to-back timeouts reach;
        a caller folding two delays into one heap entry passes the sum it
        means.
        """
        if when < self.now:
            raise ValueError(f"time {when} is before now ({self.now})")
        event = Event(self)
        event._value = value
        heapq.heappush(self._queue, (when, NORMAL, self._next_eid(), event))
        return event

    def call_soon(self, callback: Callable[[Event], None]) -> Event:
        """Run ``callback`` in a NORMAL event at this instant: the slot an
        :meth:`event` given the callback and succeeded now would take."""
        event = Event(self)
        event.callbacks = [callback]
        event._value = None
        heapq.heappush(self._queue, (self.now, NORMAL, self._next_eid(), event))
        return event

    def process(
        self, generator: Generator, label: Optional[str] = None
    ) -> Process:
        return Process(self, generator, label=label)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling and the event loop ----------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Enqueue ``event`` to fire ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, priority, self._next_eid(), event)
        )

    def peek(self) -> float:
        """Time of the next event in the heap, or ``inf`` if none.

        A completion reserved by :meth:`Event.succeed_lazily` that no
        waiter claimed is not in the heap and does not count.
        """
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event (the same loop :meth:`run` runs)."""
        self._process(float("inf"), True)

    def _process(self, stop_at: float, once: bool) -> None:
        """The event loop: process every event due before ``stop_at``, or
        only the next one if ``once``.

        Before it takes an event, the loop marks processed every unclaimed
        reserved completion whose slot comes first, so ``processed`` flips
        at the reserved slot exactly; once the heap holds nothing more
        before ``stop_at``, the rest flip too.  With an empty heap and
        ``once``, it raises :class:`EmptySchedule`.
        """
        queue = self._queue
        reserved = self._reserved
        heappop = heapq.heappop
        # Event-loop observability: the registry is looked up once per
        # call, and a disabled one costs one local check per event.
        registry = _obs_metrics.REGISTRY
        counter = (
            None if registry is None else registry.counter("sim.events_processed")
        )
        while queue and queue[0][0] < stop_at:
            item = heappop(queue)
            while reserved and reserved[0] < item:
                reserved.popleft()[3].callbacks = None
            # Every push is at or after ``now`` (each way in checks it).
            self.now, _priority, _eid, event = item
            self._steps += 1
            if counter is not None:
                counter.inc()

            callbacks, event.callbacks = event.callbacks, None
            if callbacks is not None:
                for callback in callbacks:
                    callback(event)

            if not event._ok and not getattr(event, "_defused", False):
                # An unhandled failure: surface it rather than losing it.
                raise event._value
            if once:
                return
        for entry in reserved:
            entry[3].callbacks = None
        reserved.clear()
        if once:
            raise EmptySchedule()

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (an event, a time, or exhaustion).

        * ``until is None`` — run until no events remain.
        * ``until`` is a number — run until simulated time reaches it.
        * ``until`` is an :class:`Event` — run until it fires and return
          its value.
        """
        stop_at = float("inf")
        stop_event: Optional[Event] = None

        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.processed:
                    return stop_event.value
                assert stop_event.callbacks is not None
                stop_event.callbacks.append(self._stop_callback)
            else:
                stop_at = float(until)
                if stop_at <= self.now:
                    raise ValueError(
                        f"until ({stop_at}) must be greater than now ({self.now})"
                    )

        try:
            self._process(stop_at, False)
        except StopSimulation:
            assert stop_event is not None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event.value

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                "simulation ran out of events before the awaited event fired"
            )
        if stop_at != float("inf"):
            self.now = stop_at
        if stop_event is not None:
            if not stop_event._ok:
                raise stop_event._value
            return stop_event.value
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        event._defused = True
        raise StopSimulation()
