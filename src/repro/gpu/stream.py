"""CUDA-style streams on the modelled device.

A stream is an in-order command queue: operations issued to one stream
execute in submission order, while operations in *different* streams may
overlap across the copy and compute engines.  SigmaVP "multiplexes the
host GPUs to execute the request from the VPs by using separate streams
for each VP" (paper Section 2), so streams are the unit of isolation
between virtual platforms on the host GPU.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional

from ..sim import Environment, Event
from .engines import Engine


@dataclass
class StreamCommand:
    """One in-order command: engine work plus a completion event."""

    engine: Engine
    label: str
    duration_ms: float
    completion: Event
    on_complete: Optional[Callable[[], None]] = None
    metadata: dict = field(default_factory=dict)


class GPUStream:
    """An in-order command queue bound to a device's engines.

    Like :class:`~repro.gpu.engines.Engine`, a stream is a chain of
    scheduled callbacks: waiting commands sit in a deque, the command the
    stream takes is submitted to its engine in its own NORMAL event, and
    the engine op's ``done`` event completes it and takes the next one.
    """

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self._waiting: Deque[StreamCommand] = deque()
        #: The command on its engine (or about to be), if any.
        self._current: Optional[StreamCommand] = None
        self._last_completion: Optional[Event] = None
        self.issued = 0
        self.completed = 0

    def __repr__(self) -> str:
        return (
            f"<GPUStream {self.name} issued={self.issued} "
            f"completed={self.completed}>"
        )

    @property
    def pending(self) -> int:
        return self.issued - self.completed

    def enqueue(
        self,
        engine: Engine,
        label: str,
        duration_ms: float,
        on_complete: Optional[Callable[[], None]] = None,
        **metadata: Any,
    ) -> Event:
        """Append a command; returns the event firing at its completion."""
        completion = self.env.event()
        command = StreamCommand(
            engine=engine,
            label=label,
            duration_ms=duration_ms,
            completion=completion,
            on_complete=on_complete,
            metadata=dict(metadata),
        )
        if self._current is None:
            self._take(command)
        else:
            self._waiting.append(command)
        self._last_completion = completion
        self.issued += 1
        return completion

    def synchronize(self) -> Event:
        """Event firing once everything enqueued so far has completed.

        Mirrors ``cudaStreamSynchronize``: if the stream is already idle
        the event fires immediately.
        """
        if self._last_completion is None or self._last_completion.triggered:
            done = self.env.event()
            done.succeed()
            return done
        return self._last_completion

    def _take(self, command: StreamCommand) -> None:
        self._current = command
        self.env.call_soon(self._submit)

    def _submit(self, _event: Event) -> None:
        command = self._current
        assert command is not None
        op = command.engine.submit(
            command.label,
            command.duration_ms,
            on_complete=command.on_complete,
            metadata={"stream": self.name, **command.metadata},
        )
        assert op.done.callbacks is not None
        op.done.callbacks.append(self._finish)

    def _finish(self, _event: Event) -> None:
        command = self._current
        assert command is not None
        self.completed += 1
        command.completion.succeed(command.metadata)
        if self._waiting:
            self._take(self._waiting.popleft())
        else:
            self._current = None
