"""The numpy execution backend.

``NumpyBackend`` runs functional kernels on the host CPU: zero-copy
read-only views for H2D and a direct ``fn(*inputs, **params)`` per
launch.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..kernels.functional import KernelFunction
from .api import ExecutionBackend


class NumpyBackend(ExecutionBackend):
    """Host numpy execution: zero-copy H2D views, direct calls."""

    name = "numpy"

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
