"""The numpy execution backend.

``NumpyBackend`` runs functional kernels on the host CPU: zero-copy
read-only views for H2D and a direct ``fn(*inputs, **params)`` per
launch.  Its device memory is the process heap, so building the first
backend that can run a kernel also sets the heap policy that keeps
freed array memory mapped across runs (:func:`_keep_freed_arrays_mapped`).
"""

from __future__ import annotations

import ctypes
import functools
import platform
from typing import Any, Dict, List, Optional

import numpy as np

from ..kernels.functional import FunctionalRegistry, KernelFunction
from .api import ExecutionBackend

# glibc's mallopt() parameter numbers (<malloc.h>).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Allocations below this come from the heap and are reused after a
#: free instead of being mapped and unmapped one by one.  32 MiB is
#: glibc's own ceiling for its dynamic threshold (DEFAULT_MMAP_THRESHOLD_MAX
#: on 64-bit hosts), so arrays larger than any it would keep on the heap
#: are still returned to the kernel the moment they are freed.
MMAP_THRESHOLD = 32 << 20

#: Free heap top that glibc keeps instead of trimming it back to the
#: kernel.  Without it, glibc trims whatever a finished run freed, and
#: the next run page-faults its whole working set in again (about 2 us
#: per 4 KiB page).  64 MiB covers the largest functional request the
#: benchmark sends (16-VP matrixMul, about 39 MB) and bounds what a
#: long-lived worker keeps mapped after a run.
TRIM_THRESHOLD = 64 << 20


@functools.cache
def _keep_freed_arrays_mapped() -> None:
    """Set the process's heap policy, once.

    A no-op off glibc (musl, macOS, Windows), whose allocators have no
    ``mallopt``.  Setting either value also switches off glibc's
    dynamic thresholds, which would otherwise move with the largest
    array freed so far.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class NumpyBackend(ExecutionBackend):
    """Host numpy execution: zero-copy H2D views, direct calls."""

    name = "numpy"

    def __init__(self, registry: Optional[FunctionalRegistry] = None) -> None:
        super().__init__(registry)
        if len(self.registry):
            _keep_freed_arrays_mapped()

    def asarray(self, host: Any) -> np.ndarray:
        return np.asarray(host)

    def _h2d(self, host: Any) -> np.ndarray:
        # Zero-copy: the "device" array IS the host array.  The
        # read-only view makes a mutating functional kernel fail loudly
        # instead of silently corrupting data the guest still owns.
        view = np.asarray(host).view()
        view.flags.writeable = False
        return view

    def _d2h(self, device: Any) -> Any:
        return device

    def _launch(
        self, fn: KernelFunction, inputs: List[Any], params: Dict[str, Any]
    ) -> Any:
        return fn(*inputs, **params)
