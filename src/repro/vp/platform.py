"""The virtual platform: a simulated embedded system instance.

Each :class:`VirtualPlatform` models one QEMU ARM Versatile PB instance:
a binary-translated guest CPU that runs the application's non-GPU code
and the guest side of every CUDA call.  The platform exposes the
stop/resume control the paper's VP-control submodule uses for
synchronous Kernel Interleaving: while stopped, the guest makes no
progress (its pending guest-CPU work resumes where it left off).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim import Environment, Event, Process
from .cpu import CPUModel, QEMU_ARM_VP


class VirtualPlatform:
    """One simulated embedded device running on the host."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cpu: CPUModel = QEMU_ARM_VP,
    ):
        self.env = env
        self.name = name
        self.cpu = cpu
        self._paused = False
        self._resume_event: Optional[Event] = None
        self._processes: List[Process] = []
        self.started_at_ms: Optional[float] = None
        self.finished_at_ms: Optional[float] = None
        self.guest_cpu_ms = 0.0
        self.stop_count = 0

    def __repr__(self) -> str:
        state = "paused" if self._paused else "running"
        return f"<VirtualPlatform {self.name} {state}>"

    # -- VP control (stop / resume) ------------------------------------------

    @property
    def paused(self) -> bool:
        return self._paused

    def stop(self) -> None:
        """Freeze guest progress (paper Fig. 4b: 'Stop')."""
        if not self._paused:
            self._paused = True
            self.stop_count += 1
            self._resume_event = self.env.event()

    def resume(self) -> None:
        """Let the guest continue (paper Fig. 4b: 'Resume')."""
        if self._paused:
            self._paused = False
            event, self._resume_event = self._resume_event, None
            event.succeed()

    def gate(self):
        """Generator: wait out any stop/resume pauses."""
        while self._paused:
            yield self._resume_event

    # -- guest CPU execution ---------------------------------------------------

    def execute_ops(self, ops: float):
        """Generator: run ``ops`` guest operations on the VP's CPU.

        Honors stop/resume: a pause before the work begins delays it.
        """
        yield from self.gate()
        yield self.env.timeout(self.charge_ops(ops))

    def charge_ops(self, ops: float) -> float:
        """Account ``ops`` guest operations; returns their duration (ms).

        The caller owns the wait: :meth:`execute_ops` waits the duration
        alone, :meth:`~repro.vp.cuda_runtime.SigmaVPBackend._submit` folds
        it into the IPC send that follows.
        """
        duration = self.cpu.time_for_ops(ops)
        self.guest_cpu_ms += duration
        return duration

    def execute_ms(self, duration_ms: float):
        """Generator: keep the guest CPU busy for a precomputed duration."""
        if duration_ms < 0:
            raise ValueError(f"negative duration {duration_ms}")
        yield from self.gate()
        self.guest_cpu_ms += duration_ms
        yield self.env.timeout(duration_ms)

    # -- application hosting ------------------------------------------------------

    def run_app(self, app: Callable[[], object]) -> Process:
        """Spawn an application generator on this platform.

        ``app`` is a zero-argument callable returning a generator (the
        application's main, already bound to its CUDA runtime).
        """
        def wrapper():
            if self.started_at_ms is None:
                self.started_at_ms = self.env.now
            result = yield from app()
            self.finished_at_ms = self.env.now
            return result

        process = self.env.process(wrapper(), label=f"vp:{self.name}/app")
        self._processes.append(process)
        return process

    @property
    def processes(self) -> List[Process]:
        return list(self._processes)

    @property
    def elapsed_ms(self) -> Optional[float]:
        if self.started_at_ms is None or self.finished_at_ms is None:
            return None
        return self.finished_at_ms - self.started_at_ms
