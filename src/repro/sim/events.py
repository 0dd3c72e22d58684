"""Event primitives for the discrete-event simulation kernel.

The simulation kernel follows the classic coroutine-process style:
processes are Python generators that yield :class:`Event` objects and are
resumed when those events fire.  The design intentionally mirrors a small
subset of simpy's semantics so the behaviour is familiar, but the
implementation here is self-contained (no third-party dependency).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from .engine import Environment

#: Sentinel for an event that has not been triggered yet.
PENDING = object()


def annotate(exc: BaseException, label: str, now: float) -> None:
    """Note on ``exc`` that component ``label`` raised it at ``now`` (3.11+).

    Process crashes used to surface from :meth:`Environment.run` as a bare
    exception with no hint of *which* coroutine died; the note carries the
    owning component label and the simulated time of death.  Components
    that run as scheduled callbacks rather than processes (engines,
    dispatched jobs) attach the same note.
    """
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        note = f"raised in simulation process {label!r} at t={now}ms"
        existing = getattr(exc, "__notes__", None) or []
        if note not in existing:
            add_note(note)

#: Event processing priorities: URGENT events (process resumptions) run
#: before NORMAL events scheduled for the same simulated instant.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` carries whatever object the interrupter passed, which the
    interrupted process can inspect to decide how to proceed.  SigmaVP's
    VP-control module uses interrupts to implement stop/resume of virtual
    platforms for synchronous kernel interleaving.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value (or an exception), and *processed* once its callbacks have run
    (or, succeeded lazily with no waiter, once its slot has passed).

    Events are the highest-volume objects of a simulation (every copy,
    kernel, timeout, and process resumption allocates at least one), so
    the class and its subclasses in this module carry ``__slots__``.
    Subclasses defined elsewhere may omit ``__slots__`` and regain a
    ``__dict__`` as usual.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    #: Set (never read) on a failed event whose exception has been
    #: delivered to a waiter; the engine's step() re-raises undefused
    #: failures so they cannot be silently lost.
    _defused: bool

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "triggered"
        if self.processed:
            state = "processed"
        return f"<{self.__class__.__name__} {state} at {hex(id(self))}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event fired: its callbacks ran, or its reserved
        slot (:meth:`succeed_lazily`) passed with no waiter."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        # An untriggered event is always ``_ok``.
        self._value = value
        env = self.env
        heappush(env._queue, (env.now, NORMAL, env._next_eid(), self))
        return self

    def succeed_lazily(self, value: Any = None) -> "Event":
        """:meth:`succeed`, but enter the heap only for a waiter.

        The event takes its heap slot now, as :meth:`succeed` would.  If
        nothing waits on it yet, it is not pushed: the slot is reserved,
        the first callback added before the slot passes pushes the event
        into it, and with no such callback :attr:`processed` turns true
        when the slot passes without an event being processed (pollers
        see exactly what they would have seen).  Failures are never
        lazy: :meth:`fail` always pushes.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        env = self.env
        entry = (env.now, NORMAL, env._next_eid(), self)
        if self.callbacks:
            heappush(env._queue, entry)
        else:
            self.callbacks = _Reserved(env._queue, entry)
            env._reserved.append(entry)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=NORMAL)
        return self


class _Reserved(list):
    """The callback list of an event in a reserved slot
    (:meth:`Event.succeed_lazily`): the first :meth:`append` pushes the
    event into the heap at that slot.  Waiters add callbacks with
    ``append`` only."""

    __slots__ = ("_queue", "_entry")

    def __init__(
        self,
        queue: List[Tuple[float, int, int, Event]],
        entry: Tuple[float, int, int, Event],
    ):
        self._queue = queue
        self._entry: Optional[Tuple[float, int, int, Event]] = entry

    def append(self, callback: Callable[[Event], None]) -> None:
        entry = self._entry
        if entry is not None:
            self._entry = None
            heappush(self._queue, entry)
        list.append(self, callback)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._delay = delay
        heappush(env._queue, (env.now + delay, NORMAL, env._next_eid(), self))

    @property
    def delay(self) -> float:
        return self._delay


class Initialize(Event):
    """An URGENT event running ``callback`` at the current instant.

    It kicks off a newly created process, and the Job Dispatcher's first
    burst in the same heap slot a process would take.
    """

    __slots__ = ()

    def __init__(
        self, env: "Environment", callback: Callable[[Event], None]
    ):
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._ok = True
        heappush(env._queue, (env.now, URGENT, env._next_eid(), self))


class Process(Event):
    """A coroutine process driven by the events it yields.

    The process itself is an event that fires when the generator finishes;
    its value is the generator's return value.  This lets processes wait on
    other processes directly (``yield env.process(...)``).
    """

    __slots__ = ("_generator", "_target", "_label")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        label: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Component identity for error reporting.
        self._label = label
        Initialize(env, self._resume)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    @property
    def label(self) -> Optional[str]:
        """Component label for error reporting (e.g. ``"vp:vp3/app"``)."""
        return self._label

    def _describe(self) -> str:
        if self._label is not None:
            return self._label
        gen = self._generator
        name = getattr(gen, "__qualname__", None) or getattr(gen, "__name__", None)
        return name if isinstance(name, str) else repr(gen)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env.schedule(interrupt_event, priority=URGENT)
        # Detach from the old target so the original event no longer resumes
        # this process when it eventually fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            if event._ok:
                try:
                    next_event = self._generator.send(event._value)
                except StopIteration as exc:
                    self._ok = True
                    self._value = getattr(exc, "value", None)
                    self.env.schedule(self, priority=NORMAL)
                    break
                except BaseException as exc:
                    annotate(exc, self._describe(), self.env.now)
                    self._ok = False
                    self._value = exc
                    self.env.schedule(self, priority=NORMAL)
                    break
            else:
                # Mark the failure as handled: it is being delivered.
                event._defused = True
                exc = event._value
                try:
                    next_event = self._generator.throw(exc)
                except StopIteration as stop:
                    self._ok = True
                    self._value = getattr(stop, "value", None)
                    self.env.schedule(self, priority=NORMAL)
                    break
                except BaseException as raised:
                    annotate(raised, self._describe(), self.env.now)
                    self._ok = False
                    self._value = raised
                    self.env.schedule(self, priority=NORMAL)
                    break

            if not isinstance(next_event, Event):
                self._generator.throw(
                    TypeError(f"process yielded a non-event: {next_event!r}")
                )
                continue
            if next_event.env is not self.env:
                self._generator.throw(
                    ValueError("process yielded an event from another environment")
                )
                continue

            if next_event.callbacks is not None:
                # Event has not fired yet: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: deliver its value immediately.
            event = next_event

        self.env._active_process = None


class AllOf(Event):
    """Fires when every given event has fired (fails on the first failure)."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        if not self._events:
            self.succeed(self._collect_values())
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        # Only *processed* events count: a Timeout carries its value from
        # construction but has not fired until its callbacks have run.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            self.succeed(self._collect_values())
