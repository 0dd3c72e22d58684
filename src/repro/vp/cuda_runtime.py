"""The GPU user library: a CUDA-runtime-style API with pluggable backends.

"The GPU User Library forms a layer that intercepts the requests from
user applications by providing the same APIs of the physical GPUs, e.g.
the CUDA runtime library ... the application binaries that use GPU
instructions do not need any change to run on the virtual GPUs" (paper
Section 2).

Applications are written once against :class:`CudaRuntime` and run
unchanged on three backends — exactly the paper's binary-compatibility
claim, transposed to this reproduction:

* :class:`SigmaVPBackend` — the paper's contribution: each request is
  charged the guest user-library and driver cost, crosses IPC into the
  host Job Queue, and executes on the (modelled) host GPU;
* :class:`EmulationBackend` — the slow baseline: kernels interpreted in
  software on the local CPU (host CPU or binary-translated VP);
* :class:`NativeGPUBackend` — direct host-GPU execution with no VP in
  the loop (Table 1's reference row).

Every API method returns a generator: application code drives it with
``yield from`` inside a simulation process.  The facades hand back the
interception backend's own generator: a wrapping generator would cost
every guest call one more frame.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..backend import ExecutionBackend, NumpyBackend
from ..core.handles import HandleTable
from ..core.ipc import IPCManager
from ..core.jobs import Job, JobKind
from ..gpu.device import HostGPU
from ..gpu.stream import GPUStream
from ..kernels.functional import REGISTRY, FunctionalRegistry
from ..kernels.ir import KernelIR
from ..kernels.launch import LaunchConfig
from ..sim import Environment, Event
from .cpu import GUEST_DRIVER_CALL_OPS
from .emulation import GPUEmulator
from .platform import VirtualPlatform

if TYPE_CHECKING:
    import numpy as np

#: Guest ops spent in the GPU user library per intercepted call
#: (argument marshalling before the driver crossing).
USER_LIBRARY_CALL_OPS = GUEST_DRIVER_CALL_OPS / 3.0

#: Guest ops spent inside the guest GPU driver per call (the ioctl-style
#: kernel crossing, slowed by binary translation).
DRIVER_CALL_OPS = GUEST_DRIVER_CALL_OPS - USER_LIBRARY_CALL_OPS

#: Host-side CUDA call overhead for the native backend, in host CPU ops
#: (a ~5 microsecond driver call on the Xeon).
NATIVE_CALL_OPS = 5.0e4


class AsyncResult:
    """Holds a device-to-host result delivered at modelled copy time."""

    def __init__(self):
        self._value: Optional[np.ndarray] = None
        self._ready = False

    def _set(self, value: Any) -> None:
        self._value = value
        self._ready = True

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def value(self) -> Optional[np.ndarray]:
        if not self._ready:
            raise RuntimeError("result not ready: synchronize the stream first")
        return self._value


class GpuEvent:
    """A cudaEvent: a stream marker that captures a timestamp when the
    work enqueued before it has completed on the device."""

    def __init__(self):
        self._timestamp_ms: Optional[float] = None

    def _record(self, timestamp_ms: float) -> None:
        self._timestamp_ms = timestamp_ms

    @property
    def recorded(self) -> bool:
        return self._timestamp_ms is not None

    @property
    def timestamp_ms(self) -> float:
        if self._timestamp_ms is None:
            raise RuntimeError("event not recorded yet: synchronize first")
        return self._timestamp_ms


def event_elapsed_ms(start: GpuEvent, end: GpuEvent) -> float:
    """cudaEventElapsedTime: milliseconds between two recorded events."""
    return end.timestamp_ms - start.timestamp_ms


class InterceptingRuntime:
    """The API facades' common base: every call goes to ``backend``.

    The CUDA- and OpenCL-flavoured runtimes intercept a call by
    delegating it to the interception backend, so both APIs reach
    SigmaVP, the emulator or the native device through the same seam.
    """

    def __init__(self, backend: "CudaBackend"):
        self.backend = backend

    def __repr__(self) -> str:
        return f"<{type(self).__name__} backend={type(self.backend).__name__}>"


class CudaRuntime(InterceptingRuntime):
    """The intercepting user library applications link against."""

    def malloc(self, nbytes: int):
        """cudaMalloc: returns an opaque device handle."""
        return self.backend.malloc(nbytes)

    def free(self, handle: str):
        """cudaFree."""
        return self.backend.free(handle)

    def memcpy_h2d(self, handle: str, data: "np.ndarray", sync: bool = True):
        """cudaMemcpy(..., cudaMemcpyHostToDevice) or its Async variant."""
        return self.backend.memcpy_h2d(handle, data, sync)

    def memcpy_d2h(self, handle: str, nbytes: Optional[int] = None, sync: bool = True):
        """cudaMemcpy(..., cudaMemcpyDeviceToHost); returns the result."""
        return self.backend.memcpy_d2h(handle, nbytes, sync)

    def launch_kernel(
        self,
        kernel: KernelIR,
        launch: LaunchConfig,
        args: Sequence[str] = (),
        out: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        sync: bool = False,
    ):
        """The <<<grid, block>>> launch; async by default, as in CUDA."""
        return self.backend.launch_kernel(
            kernel, launch, tuple(args), out, dict(params or {}), sync
        )

    def synchronize(self):
        """cudaDeviceSynchronize: wait for all outstanding work."""
        return self.backend.synchronize()

    def event_create(self):
        """cudaEventCreate (host-side only, no guest cost)."""
        return GpuEvent()
        yield  # pragma: no cover - generator form for API uniformity

    def event_record(self, event: GpuEvent):
        """cudaEventRecord: mark this point of the stream."""
        return self.backend.event_record(event)

    def event_synchronize(self, event: GpuEvent):
        """cudaEventSynchronize: wait until the marker has been reached."""
        return self.backend.event_synchronize(event)

    def cpu_work(self, ops: float):
        """Non-CUDA application work (file I/O, OpenGL, host compute)."""
        return self.backend.cpu_work(ops)


class CudaBackend:
    """Interface the runtime delegates to (duck-typed; see subclasses)."""


class SigmaVPBackend(CudaBackend):
    """Forward every request through the SigmaVP pipeline.

    Guest path (paper Fig. 2): user library -> guest GPU driver ->
    virtual embedded GPU -> IPC -> host Job Queue.  The two guest layers
    are a cost model, so :meth:`_submit` charges them as two named op
    counts and hands the request to IPC.  Synchronous calls wait for the
    host's completion notification (one more IPC message); asynchronous
    calls return immediately and are settled by ``synchronize``.
    """

    def __init__(
        self,
        env: Environment,
        vp: VirtualPlatform,
        ipc: IPCManager,
        handles: HandleTable,
        exec_backend: Optional[ExecutionBackend] = None,
    ):
        self.env = env
        self.vp = vp
        self.ipc = ipc
        self.handles = handles
        # Guest-side host-data canonicalization (transfer sizing) uses
        # the same execution backend the host dispatcher runs on.
        self.exec_backend = (
            exec_backend if exec_backend is not None else NumpyBackend()
        )
        #: Per-VP sequence numbers: the partial-order stamp the
        #: Re-scheduler must preserve.
        self._seq = itertools.count()
        self._outstanding: List[Job] = []

    def _job(self, kind: JobKind, sync: bool, **fields) -> Job:
        return Job(
            vp=self.vp.name,
            seq=next(self._seq),
            kind=kind,
            completion=Event(self.env),
            sync=sync,
            **fields,
        )

    def _submit(self, job: Job, payload_bytes: int = 0):
        """Carry one request from the guest into the host Job Queue; the
        caller drives the returned generator with ``yield from``.

        Charges the user-library and driver ops on the VP's CPU, then
        sends ``job`` over IPC: the guest time and the send share one
        timeout, and the send starts when the guest path ends.  A running
        VP gets the IPC send's own generator; a stopped one first waits
        to be resumed.
        """
        if self.vp.paused:
            return self._submit_when_resumed(job, payload_bytes)
        guest_ms = self.vp.charge_ops(USER_LIBRARY_CALL_OPS + DRIVER_CALL_OPS)
        return self.ipc.submit(job, payload_bytes, guest_ms)

    def _submit_when_resumed(self, job: Job, payload_bytes: int):
        yield from self.vp.gate()
        yield from self._submit(job, payload_bytes)

    def malloc(self, nbytes: int):
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        handle = self.handles.new_handle(self.vp.name)
        job = self._job(JobKind.MALLOC, sync=False, size=nbytes, handle=handle)
        yield from self._submit(job)
        # Per-VP ordering guarantees the binding exists before first use,
        # so the guest need not block on the round trip.
        self._outstanding.append(job)
        return handle

    def free(self, handle: str):
        job = self._job(JobKind.FREE, sync=False, handle=handle)
        yield from self._submit(job)
        self._outstanding.append(job)

    def memcpy_h2d(self, handle: str, data: "np.ndarray", sync: bool):
        data = self.exec_backend.asarray(data)
        job = self._job(
            JobKind.COPY_H2D,
            sync=sync,
            handle=handle,
            nbytes=int(data.nbytes),
            host_data=data,
        )
        yield from self._submit(job, payload_bytes=int(data.nbytes))
        if sync:
            yield job.completion
            yield from self.ipc.respond(vp=self.vp.name)
        else:
            self._outstanding.append(job)

    def memcpy_d2h(self, handle: str, nbytes: Optional[int], sync: bool):
        result = AsyncResult()
        size = int(nbytes) if nbytes is not None else 0
        job = self._job(
            JobKind.COPY_D2H,
            sync=sync,
            handle=handle,
            nbytes=size,
            sink=result._set,
        )
        if job.nbytes == 0 and handle in self.handles:
            job.nbytes = self.handles.buffer(handle).size
        yield from self._submit(job)
        if sync:
            yield job.completion
            yield from self.ipc.respond(payload_bytes=job.nbytes, vp=self.vp.name)
        else:
            self._outstanding.append(job)
        return result

    def launch_kernel(self, kernel, launch, args, out, params, sync):
        job = self._job(
            JobKind.KERNEL,
            sync=sync,
            kernel=kernel,
            launch=launch,
            arg_handles=args,
            out_handle=out,
            params=params,
        )
        yield from self._submit(job)
        if sync:
            yield job.completion
            yield from self.ipc.respond(vp=self.vp.name)
        else:
            self._outstanding.append(job)

    def synchronize(self):
        if self._outstanding:
            # Per-VP order means the last outstanding job completes last.
            last = self._outstanding[-1]
            if not last.completion.processed:
                yield last.completion
            self._outstanding.clear()
            yield from self.ipc.respond(vp=self.vp.name)

    def event_record(self, event):
        """Enqueue a record marker; per-VP order timestamps it after all
        previously submitted work."""
        job = self._job(JobKind.EVENT, sync=False, sink=event._record)
        yield from self._submit(job)
        self._outstanding.append(job)

    def event_synchronize(self, event):
        if not event.recorded and self._outstanding:
            last = self._outstanding[-1]
            if not last.completion.processed:
                yield last.completion
            yield from self.ipc.respond(vp=self.vp.name)

    def cpu_work(self, ops: float):
        yield from self.vp.execute_ops(ops)


class EmulationBackend(CudaBackend):
    """Interpret GPU code in software on the local CPU (the slow path)."""

    def __init__(
        self,
        env: Environment,
        platform: VirtualPlatform,
        emulator: Optional[GPUEmulator] = None,
        registry: FunctionalRegistry = REGISTRY,
        exec_backend: Optional[ExecutionBackend] = None,
    ):
        self.env = env
        self.platform = platform
        self.emulator = emulator or GPUEmulator(platform.cpu)
        self.registry = registry
        self.exec_backend = (
            exec_backend if exec_backend is not None else NumpyBackend(registry)
        )
        #: False in a timing-only run (empty registry): no H2D or kernel effect.
        self._functional = len(self.exec_backend.registry) > 0
        self._arrays: Dict[str, Optional["np.ndarray"]] = {}
        self._counter = 0

    def malloc(self, nbytes: int):
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        yield from self.platform.execute_ops(GUEST_DRIVER_CALL_OPS / 10.0)
        handle = f"{self.platform.name}/emu{self._counter}"
        self._counter += 1
        self._arrays[handle] = None
        return handle

    def free(self, handle: str):
        yield from self.platform.execute_ops(GUEST_DRIVER_CALL_OPS / 10.0)
        self._arrays.pop(handle, None)

    def memcpy_h2d(self, handle: str, data: "np.ndarray", sync: bool):
        data = self.exec_backend.asarray(data)
        yield from self.platform.execute_ms(
            self.platform.cpu.copy_time_ms(int(data.nbytes))
        )
        self._require(handle)
        # Copy-free device "transfer": applications never mutate a
        # submitted array in place (kernels rebind, they do not write
        # through), so the zero-copy backend's read-only view is
        # bit-identical to the old defensive copy — per-launch
        # allocation eliminated, and the cleared writeable flag makes
        # any violation loud.
        if self._functional:
            self._arrays[handle] = self.exec_backend.h2d(data)

    def memcpy_d2h(self, handle: str, nbytes: Optional[int], sync: bool):
        array = self._arrays.get(handle)
        size = int(nbytes) if nbytes is not None else (
            int(array.nbytes) if array is not None else 0
        )
        yield from self.platform.execute_ms(self.platform.cpu.copy_time_ms(size))
        result = AsyncResult()
        result._set(self.exec_backend.d2h(self._arrays[handle]))
        return result

    def launch_kernel(self, kernel, launch, args, out, params, sync):
        cost = self.emulator.kernel_cost(kernel, launch)
        yield from self.platform.execute_ms(cost.total_ms)
        if out is not None and self._functional:
            inputs = [self._arrays[h] for h in args]
            result = self.exec_backend.launch(kernel.signature, inputs, params)
            if result is not None:
                self._arrays[out] = result

    def synchronize(self):
        # The emulator is synchronous: nothing is ever outstanding.
        return
        yield  # pragma: no cover - makes this a generator

    def event_record(self, event):
        event._record(self.env.now)
        return
        yield  # pragma: no cover - generator form

    def event_synchronize(self, event):
        return
        yield  # pragma: no cover - generator form

    def cpu_work(self, ops: float):
        yield from self.platform.execute_ops(ops)

    def _require(self, handle: str) -> None:
        if handle not in self._arrays:
            raise KeyError(f"unknown emulated device handle {handle!r}")


class NativeGPUBackend(CudaBackend):
    """Run directly on the host GPU, no VP in the loop (Table 1 row 1)."""

    def __init__(
        self,
        env: Environment,
        gpu: HostGPU,
        host: VirtualPlatform,
        stream: Optional[GPUStream] = None,
        registry: FunctionalRegistry = REGISTRY,
        exec_backend: Optional[ExecutionBackend] = None,
    ):
        self.env = env
        self.gpu = gpu
        self.host = host
        self.stream = stream or gpu.create_stream(f"native/{host.name}")
        self.registry = registry
        self.exec_backend = (
            exec_backend if exec_backend is not None else NumpyBackend(registry)
        )
        #: False in a timing-only run (empty registry): no H2D or kernel effect.
        self._functional = len(self.exec_backend.registry) > 0
        self._buffers: Dict[str, Any] = {}
        self._counter = 0

    def malloc(self, nbytes: int):
        yield from self.host.execute_ops(NATIVE_CALL_OPS)
        handle = f"{self.host.name}/dev{self._counter}"
        self._counter += 1
        self._buffers[handle] = self.gpu.malloc(nbytes, owner=self.host.name)
        return handle

    def free(self, handle: str):
        yield from self.host.execute_ops(NATIVE_CALL_OPS)
        self.gpu.free(self._buffers.pop(handle))

    def memcpy_h2d(self, handle: str, data: "np.ndarray", sync: bool):
        yield from self.host.execute_ops(NATIVE_CALL_OPS)
        data = self.exec_backend.asarray(data)
        event = self.gpu.memcpy_h2d(
            self.stream, self._buffers[handle],
            data if self._functional else None, nbytes=data.nbytes,
        )
        if sync:
            yield event

    def memcpy_d2h(self, handle: str, nbytes: Optional[int], sync: bool):
        yield from self.host.execute_ops(NATIVE_CALL_OPS)
        result = AsyncResult()
        event = self.gpu.memcpy_d2h(
            self.stream, self._buffers[handle], nbytes=nbytes, sink=result._set
        )
        if sync:
            yield event
        return result

    def launch_kernel(self, kernel, launch, args, out, params, sync):
        yield from self.host.execute_ops(NATIVE_CALL_OPS)

        def apply() -> None:
            if out is None:
                return
            inputs = [self._buffers[h].payload for h in args]
            result = self.exec_backend.launch(kernel.signature, inputs, params)
            if result is not None:
                self._buffers[out].payload = result

        event = self.gpu.launch_kernel(
            self.stream, kernel, launch, apply=apply if self._functional else None
        )
        if sync:
            yield event

    def event_record(self, event):
        self.stream.enqueue(
            self.gpu.compute_engine,
            label="EVENT",
            duration_ms=0.0,
            on_complete=lambda: event._record(self.env.now),
        )
        return
        yield  # pragma: no cover - generator form

    def event_synchronize(self, event):
        yield self.stream.synchronize()

    def synchronize(self):
        yield self.stream.synchronize()

    def cpu_work(self, ops: float):
        yield from self.host.execute_ops(ops)
