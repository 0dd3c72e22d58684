"""An OpenCL-flavoured runtime facade.

"Our proposed techniques can potentially be applied to various GPU
programming platforms including OpenCL and OpenACC" (paper Section 5).
This module delivers that extension: the same interception backends that
serve the CUDA runtime also serve an OpenCL-style API, so applications
written against command queues and ND-ranges run through SigmaVP (or the
emulator, or the native device) unchanged.

The mapping is the standard one:

* ``clCreateBuffer``            -> device malloc
* ``clEnqueueWriteBuffer``      -> host-to-device copy
* ``clEnqueueReadBuffer``       -> device-to-host copy
* ``clEnqueueNDRangeKernel``    -> kernel launch; the work-group size is
  the CUDA block size, and the grid covers the global work size
* ``clFinish``                  -> synchronize

Methods return the backend's generators, like the CUDA runtime's:
drive them with ``yield from`` inside a simulation process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from ..kernels.ir import KernelIR, ceil_div
from ..kernels.launch import LaunchConfig
from .cuda_runtime import InterceptingRuntime

if TYPE_CHECKING:
    import numpy as np


class OpenCLRuntime(InterceptingRuntime):
    """OpenCL-style command-queue API over any interception backend.

    Like the CUDA facade it is an
    :class:`~repro.vp.cuda_runtime.InterceptingRuntime`: both APIs
    route through the same backend seam.
    """

    # -- memory objects ---------------------------------------------------

    def create_buffer(self, nbytes: int):
        """clCreateBuffer: returns an opaque memory object handle."""
        return self.backend.malloc(nbytes)

    def release_mem_object(self, handle: str):
        """clReleaseMemObject."""
        return self.backend.free(handle)

    # -- command queue ------------------------------------------------------

    def enqueue_write_buffer(self, handle: str, data: "np.ndarray",
                             blocking: bool = True):
        """clEnqueueWriteBuffer."""
        return self.backend.memcpy_h2d(handle, data, blocking)

    def enqueue_read_buffer(self, handle: str, nbytes: Optional[int] = None,
                            blocking: bool = True):
        """clEnqueueReadBuffer: returns the result holder."""
        return self.backend.memcpy_d2h(handle, nbytes, blocking)

    def enqueue_nd_range_kernel(
        self,
        kernel: KernelIR,
        global_size: int,
        local_size: int,
        args: Sequence[str] = (),
        out: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ):
        """clEnqueueNDRangeKernel: asynchronous, as in OpenCL.

        ``global_size`` work items in work groups of ``local_size``; the
        launch grid covers the ND-range exactly like a CUDA grid covers
        its data.
        """
        if global_size <= 0 or local_size <= 0:
            raise ValueError("global and local sizes must be positive")
        if local_size > global_size:
            raise ValueError("local size cannot exceed the global size")
        launch = LaunchConfig(
            grid_size=ceil_div(global_size, local_size),
            block_size=local_size,
            elements=int(global_size * kernel.elements_per_thread),
        )
        return self.backend.launch_kernel(
            kernel, launch, tuple(args), out, dict(params or {}), False
        )

    def finish(self):
        """clFinish: block until every enqueued command completed."""
        return self.backend.synchronize()
