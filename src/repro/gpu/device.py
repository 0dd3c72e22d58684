"""The host GPU device model.

:class:`HostGPU` ties together the architecture description, the timing
model, the dual engines, streams, and device memory into the facade the
SigmaVP job dispatcher drives.  Running a kernel on it produces the same
:class:`~repro.gpu.timing.ExecutionProfile` a vendor profiler would
report, which the time/power estimation layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from ..backend import NumpyBackend
from ..kernels.compiler import CompiledKernel, KernelCompiler
from ..kernels.ir import KernelIR
from ..kernels.launch import LaunchConfig
from ..sim import Environment, Event
from .arch import GPUArchitecture
from .engines import ComputeEngine, CopyEngine
from .memory import DeviceBuffer, DeviceMemoryAllocator
from .stream import GPUStream
from .timing import ExecutionProfile, KernelTimingModel

if TYPE_CHECKING:
    import numpy as np

    from ..backend.api import ExecutionBackend

#: Default device memory capacity: 2 GiB, matching the Quadro 4000 board.
DEFAULT_MEMORY_BYTES = 2 * 1024**3


@dataclass
class KernelRecord:
    """Bookkeeping for each kernel the device executed."""

    kernel_name: str
    stream: str
    profile: ExecutionProfile
    start_requested_ms: float
    completion_event: Event


class HostGPU:
    """A modelled GPU with copy/compute engines, streams, and memory."""

    def __init__(
        self,
        env: Environment,
        arch: GPUArchitecture,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        compiler: Optional[KernelCompiler] = None,
        index: int = 0,
        backend: Optional["ExecutionBackend"] = None,
    ):
        self.env = env
        self.arch = arch
        self.index = index
        self.timing = KernelTimingModel(arch)
        # All functional data movement and allocation accounting routes
        # through the execution backend (a private numpy one when standalone).
        self.backend = backend if backend is not None else NumpyBackend()
        self.memory = DeviceMemoryAllocator(memory_bytes, backend=self.backend)
        self.compiler = compiler or KernelCompiler()
        # Fermi-class Quadro boards advertise dual copy engines: host-to-
        # device and device-to-host transfers overlap with each other and
        # with compute, the three-stage pipeline Kernel Interleaving
        # exploits (paper Eq. 7).  Engines are labeled by device index so a
        # failure names the engine that raised.
        self.h2d_engine = CopyEngine(
            env, name=f"{arch.name}/copy-h2d", plabel=f"gpu:{index}/copy-h2d"
        )
        self.d2h_engine = CopyEngine(
            env, name=f"{arch.name}/copy-d2h", plabel=f"gpu:{index}/copy-d2h"
        )
        self.compute_engine = ComputeEngine(
            env, name=f"{arch.name}/compute", plabel=f"gpu:{index}/compute"
        )
        self._streams: Dict[str, GPUStream] = {}
        self.kernel_log: List[KernelRecord] = []
        self.bytes_copied_h2d = 0
        self.bytes_copied_d2h = 0

    def __repr__(self) -> str:
        return (
            f"<HostGPU {self.arch.name} streams={len(self._streams)} "
            f"kernels={len(self.kernel_log)}>"
        )

    # -- streams ---------------------------------------------------------

    def create_stream(self, name: str) -> GPUStream:
        if name in self._streams:
            raise ValueError(f"stream {name!r} already exists")
        stream = GPUStream(self.env, name)
        self._streams[name] = stream
        return stream

    def stream(self, name: str) -> GPUStream:
        try:
            return self._streams[name]
        except KeyError:
            raise KeyError(f"no stream named {name!r}") from None

    @property
    def streams(self) -> List[GPUStream]:
        return list(self._streams.values())

    # -- memory ------------------------------------------------------------

    def malloc(self, size: int, owner: str = "") -> DeviceBuffer:
        return self.memory.allocate(size, owner=owner)

    def free(self, buffer: DeviceBuffer) -> None:
        self.memory.free(buffer)

    # -- data movement -------------------------------------------------------

    def memcpy_h2d(
        self,
        stream: GPUStream,
        buffer: DeviceBuffer,
        host_data: Optional[np.ndarray] = None,
        nbytes: Optional[int] = None,
    ) -> Event:
        """Copy host data to ``buffer`` through the copy engine."""
        size = self._copy_size(buffer, host_data, nbytes)
        self.bytes_copied_h2d += size

        def apply() -> None:
            if host_data is not None:
                # Zero-copy backends return a read-only view, not a
                # defensive copy: submitted arrays are never mutated in
                # place, and the cleared writeable flag turns any
                # violation into a loud error.
                buffer.payload = self.backend.h2d(host_data)

        return stream.enqueue(
            self.h2d_engine,
            label=f"H2D:{buffer.owner or hex(buffer.address)}",
            duration_ms=self.arch.copy_time_ms(size),
            on_complete=apply,
            nbytes=size,
            direction="h2d",
        )

    def memcpy_d2h(
        self,
        stream: GPUStream,
        buffer: DeviceBuffer,
        nbytes: Optional[int] = None,
        sink: Optional[Callable[[Any], None]] = None,
    ) -> Event:
        """Copy ``buffer`` back to the host; ``sink`` receives the payload."""
        size = self._copy_size(buffer, None, nbytes)
        self.bytes_copied_d2h += size

        def apply() -> None:
            if sink is not None:
                sink(self.backend.d2h(buffer.payload))

        return stream.enqueue(
            self.d2h_engine,
            label=f"D2H:{buffer.owner or hex(buffer.address)}",
            duration_ms=self.arch.copy_time_ms(size),
            on_complete=apply,
            nbytes=size,
            direction="d2h",
        )

    @staticmethod
    def _copy_size(
        buffer: DeviceBuffer,
        host_data: Optional[np.ndarray],
        nbytes: Optional[int],
    ) -> int:
        if nbytes is not None:
            size = int(nbytes)
        elif host_data is not None:
            size = int(host_data.nbytes)
        else:
            size = buffer.size
        if size < 0:
            raise ValueError(f"negative copy size {size}")
        if size > buffer.size:
            raise ValueError(
                f"copy of {size} bytes overflows buffer of {buffer.size} bytes"
            )
        return size

    # -- kernels ---------------------------------------------------------------

    def launch_kernel(
        self,
        stream: GPUStream,
        kernel: Union[KernelIR, CompiledKernel],
        launch: LaunchConfig,
        apply: Optional[Callable[[], None]] = None,
    ) -> Event:
        """Launch a kernel on ``stream``; returns its completion event.

        ``apply`` is the functional effect (numpy transformation of the
        involved buffers), executed at modelled completion time.
        """
        compiled = self._compiled(kernel)
        profile = self.timing.execute(compiled, launch)
        duration = self.arch.kernel_launch_overhead_ms + profile.time_ms

        completion = stream.enqueue(
            self.compute_engine,
            label=f"KERNEL:{compiled.name}",
            duration_ms=duration,
            on_complete=apply,
            kernel=compiled.name,
            profile=profile,
        )
        self.kernel_log.append(
            KernelRecord(
                kernel_name=compiled.name,
                stream=stream.name,
                profile=profile,
                start_requested_ms=self.env.now,
                completion_event=completion,
            )
        )
        return completion

    def _compiled(self, kernel: Union[KernelIR, CompiledKernel]) -> CompiledKernel:
        if isinstance(kernel, CompiledKernel):
            if kernel.arch.name != self.arch.name:
                raise ValueError(
                    f"kernel compiled for {kernel.arch.name!r} cannot run on "
                    f"{self.arch.name!r}"
                )
            return kernel
        return self.compiler.compile(kernel, self.arch)

    # -- introspection ------------------------------------------------------

    def profiles_for(self, kernel_name: str) -> List[ExecutionProfile]:
        return [r.profile for r in self.kernel_log if r.kernel_name == kernel_name]

    def last_profile(self) -> Optional[ExecutionProfile]:
        if not self.kernel_log:
            return None
        return self.kernel_log[-1].profile
