"""The GPU's two hardware engines: copy and compute.

"GPU architectures feature two types of engines that can operate in
parallel: a Compute Engine and a Copy Engine" (paper Section 3).  Kernel
Interleaving exists precisely because these two engines run concurrently
but each serves its own FIFO: a poor submission order leaves one engine
idle while the other works.

Each engine is a non-preemptive FIFO server over timed operations.  It
records a busy timeline so experiments and tests can measure utilization
and verify overlap (the mechanism behind Fig. 3's before/after diagrams).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional

from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from ..sim import Environment, Event, annotate


class EngineOp:
    """One timed unit of engine work.

    ``done`` fires when the engine finishes; ``on_complete`` (if given)
    runs at completion time — the functional layer uses it to apply the
    numpy effect of the operation.  A plain slotted class: every
    dispatched copy and kernel builds one.
    """

    __slots__ = ("label", "duration_ms", "done", "on_complete", "metadata")

    def __init__(
        self,
        label: str,
        duration_ms: float,
        done: Event,
        on_complete: Optional[Callable[[], None]] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        if duration_ms < 0:
            raise ValueError(f"negative duration for {label!r}")
        self.label = label
        self.duration_ms = duration_ms
        self.done = done
        self.on_complete = on_complete
        self.metadata = {} if metadata is None else metadata

    def __repr__(self) -> str:
        return f"EngineOp(label={self.label!r}, duration_ms={self.duration_ms!r})"


class TimelineEntry(NamedTuple):
    """A completed span of engine work (immutable).

    A named tuple, so building one per finished op costs no
    ``object.__setattr__`` calls; it equals only another entry with the
    same fields, never a plain tuple.
    """

    label: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Engine:
    """A non-preemptive FIFO engine.

    The engine is a chain of scheduled callbacks, not a process: waiting
    ops sit in a deque, an op the engine takes starts in its own NORMAL
    event at that instant, and the op's completion timeout finishes it
    and takes the next one.
    """

    def __init__(
        self, env: Environment, name: str, plabel: Optional[str] = None
    ):
        self.env = env
        self.name = name
        # ``label`` names the engine in failure notes (e.g.
        # ``"gpu:1/compute"``); the engine name itself stays
        # arch-scoped for trace lanes.
        self.label = plabel or f"engine:{name}"
        self._waiting: Deque[EngineOp] = deque()
        #: The op the engine has taken (started or about to), if any.
        self._current: Optional[EngineOp] = None
        self._started_ms = 0.0
        self.timeline: List[TimelineEntry] = []
        self.busy_ms = 0.0

    def __repr__(self) -> str:
        return f"<Engine {self.name} queued={self.queued} busy={self.busy_ms:.3f}ms>"

    @property
    def queued(self) -> int:
        """Ops submitted but not yet taken by the engine."""
        return len(self._waiting)

    def submit(
        self,
        label: str,
        duration_ms: float,
        on_complete: Optional[Callable[[], None]] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> EngineOp:
        """Enqueue work; returns the op whose ``done`` event fires at finish.

        The op keeps ``metadata`` (the span arguments a tracer records)
        as given, without a copy.
        """
        op = EngineOp(label, duration_ms, Event(self.env), on_complete, metadata)
        if self._current is None:
            self._take(op)
        else:
            self._waiting.append(op)
        return op

    def _take(self, op: EngineOp) -> None:
        self._current = op
        self.env.call_soon(self._start)

    def _start(self, _event: Event) -> None:
        assert self._current is not None
        self._started_ms = self.env.now
        finish = self.env.timeout(self._current.duration_ms)
        assert finish.callbacks is not None
        finish.callbacks.append(self._finish)

    def _finish(self, _event: Event) -> None:
        op = self._current
        assert op is not None
        start, end = self._started_ms, self.env.now
        self.timeline.append(TimelineEntry(op.label, start, end))
        self.busy_ms += end - start
        tracer = _obs_trace.TRACER
        if tracer is not None:
            tracer.span(
                self.name, op.label, start, end,
                cat="engine", args=op.metadata,
            )
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            registry.histogram("engine.op_ms").observe(end - start)
        if op.on_complete is not None:
            try:
                op.on_complete()
            except BaseException as exc:
                annotate(exc, self.label, end)
                raise
        op.done.succeed(op)
        if self._waiting:
            self._take(self._waiting.popleft())
        else:
            self._current = None

    def utilization(self, until_ms: Optional[float] = None) -> float:
        """Busy fraction of the engine up to ``until_ms`` (default: now)."""
        horizon = self.env.now if until_ms is None else until_ms
        if horizon <= 0:
            return 0.0
        busy = sum(
            max(0.0, min(entry.end_ms, horizon) - entry.start_ms)
            for entry in self.timeline
            if entry.start_ms < horizon
        )
        return busy / horizon


class CopyEngine(Engine):
    """The DMA engine moving data between host and device memory."""

    def __init__(
        self,
        env: Environment,
        name: str = "copy-engine",
        plabel: Optional[str] = None,
    ):
        super().__init__(env, name, plabel=plabel)


class ComputeEngine(Engine):
    """The SM array executing kernels, serialized at device level."""

    def __init__(
        self,
        env: Environment,
        name: str = "compute-engine",
        plabel: Optional[str] = None,
    ):
        super().__init__(env, name, plabel=plabel)
