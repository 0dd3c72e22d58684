"""The numpy execution backend.

``NumpyBackend`` runs functional kernels on the host CPU: zero-copy
read-only views for H2D, a direct ``fn(*inputs, **params)`` per launch,
and stacked ``(N, ...)`` replication batching for merged launches of
batch-flagged kernels.  A per-launch call is the batch-of-one path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..kernels.functional import KernelFunction
from .api import ExecutionBackend


def stacked_rows(
    fn: KernelFunction,
    inputs_list: List[Tuple[Any, ...]],
    params: Dict[str, Any],
) -> Optional[List[Any]]:
    """Execute N member calls as ONE call over ``(N, ...)`` stacked inputs.

    Returns the per-member output rows (views into the one stacked
    result), or ``None`` when the preconditions for a well-defined batch
    do not hold — mismatched argument counts, non-uniform shapes or
    dtypes across members, or an implementation that does not preserve
    the leading axis.  Callers treat ``None`` as "fall back to per-VP
    execution", so this helper never guesses.
    """
    n_members = len(inputs_list)
    if n_members == 0:
        return None
    first = inputs_list[0]
    n_args = len(first)
    if any(len(inputs) != n_args for inputs in inputs_list):
        return None
    if n_args == 0:
        return None
    for position in range(n_args):
        arrays = [inputs[position] for inputs in inputs_list]
        head = arrays[0]
        if not all(isinstance(a, np.ndarray) for a in arrays):
            return None
        if any(a.shape != head.shape or a.dtype != head.dtype for a in arrays):
            return None
    stacked = [
        np.stack([inputs[position] for inputs in inputs_list])
        for position in range(n_args)
    ]
    out = fn(*stacked, **params)
    if not isinstance(out, np.ndarray) or out.ndim < 1 or out.shape[0] != n_members:
        return None
    return [out[i] for i in range(n_members)]


class NumpyBackend(ExecutionBackend):
    """Host numpy execution: zero-copy H2D views, stacked batches."""

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

    def _launch_batched(
        self,
        fn: KernelFunction,
        inputs_list: List[Tuple[Any, ...]],
        params: Dict[str, Any],
    ) -> Optional[List[Any]]:
        return stacked_rows(fn, inputs_list, params)
