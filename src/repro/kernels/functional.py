"""Functional (numpy) kernel executors.

SigmaVP is not only a timing accelerator: the paper uses it for
*functional validation* of GPU applications.  Every kernel IR can register
a numpy implementation under its signature; the runtime applies it when
the modelled kernel completes, so simulations produce real numerical
results that tests and examples can check.

The registry is keyed by the kernel *signature* — the same key Kernel
Coalescing uses to decide two launches run identical code — so a coalesced
launch can apply the one registered function to the merged data set.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

#: A functional kernel maps input arrays (and keyword parameters) to the
#: output array.
KernelFunction = Callable[..., np.ndarray]


class FunctionalRegistry:
    """Registry of numpy implementations keyed by kernel signature.

    ``batched=True`` marks an implementation as *replication-batchable*:
    applying it once to inputs stacked along a new leading axis
    ``(N, ...)`` produces, row for row, the bit-identical outputs of N
    independent calls.  That holds for element-wise kernels (every
    output element depends only on the same-position input elements) and
    for leading-axis-broadcasting ops like the batched matrix product —
    but **not** for kernels that reshape away the leading axis, reduce
    across the whole array, or draw shape-dependent random numbers.
    Only flagged kernels are eligible for the dispatcher's coalesced
    batch execution; everything else keeps the per-VP fallback.
    """

    def __init__(self):
        self._functions: Dict[str, KernelFunction] = {}
        self._batched: Dict[str, bool] = {}

    def register(
        self, signature: str, fn: KernelFunction, batched: bool = False
    ) -> KernelFunction:
        if not signature:
            raise ValueError("kernel signature must be non-empty")
        if signature in self._functions:
            raise ValueError(f"kernel {signature!r} is already registered")
        self._functions[signature] = fn
        self._batched[signature] = bool(batched)
        return fn

    def get(self, signature: str) -> Optional[KernelFunction]:
        return self._functions.get(signature)

    def require(self, signature: str) -> KernelFunction:
        fn = self._functions.get(signature)
        if fn is None:
            known = ", ".join(sorted(self._functions)) or "<none>"
            raise KeyError(f"no functional kernel {signature!r}; known: {known}")
        return fn

    def is_batched(self, signature: str) -> bool:
        """Whether this signature may execute as one stacked numpy op."""
        return self._batched.get(signature, False)

    def __contains__(self, signature: str) -> bool:
        return signature in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    def signatures(self) -> List[str]:
        return sorted(self._functions)

    def batched_signatures(self) -> List[str]:
        return sorted(s for s, b in self._batched.items() if b)


#: The process-wide registry the CUDA runtime shim consults.
REGISTRY = FunctionalRegistry()


def functional_kernel(
    signature: str, batched: bool = False
) -> Callable[[KernelFunction], KernelFunction]:
    """Decorator registering ``fn`` as the implementation of ``signature``."""

    def decorate(fn: KernelFunction) -> KernelFunction:
        REGISTRY.register(signature, fn, batched=batched)
        return fn

    return decorate


# ---------------------------------------------------------------------------
# Core reference kernels (the ones the paper's microbenchmarks use).
# ---------------------------------------------------------------------------


@functional_kernel("vectorAdd", batched=True)
def vector_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise addition — the paper's coalescing microbenchmark."""
    return np.add(a, b)


@functional_kernel("matrixMul", batched=True)
def matrix_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product — the paper's Table 1 workload.

    ``@`` broadcasts over leading axes, so the stacked ``(N, d, d)``
    batch is the same per-pair GEMM N times — batchable.
    """
    return a @ b


@functional_kernel("saxpy", batched=True)
def saxpy(x: np.ndarray, y: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    return alpha * x + y
