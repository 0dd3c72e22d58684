"""Functional (numpy) kernel executors.

SigmaVP is not only a timing accelerator: the paper uses it for
*functional validation* of GPU applications.  Every kernel IR can register
a numpy implementation under its signature; the runtime applies it when
the modelled kernel completes, so simulations produce real numerical
results that tests and examples can check.

The registry is keyed by the kernel *signature* — the same key Kernel
Coalescing uses to decide two launches run identical code — so a coalesced
launch applies the one registered function to each member's data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

#: A functional kernel maps input arrays (and keyword parameters) to the
#: output array.
KernelFunction = Callable[..., np.ndarray]


class FunctionalRegistry:
    """Registry of numpy implementations keyed by kernel signature."""

    def __init__(self):
        self._functions: Dict[str, KernelFunction] = {}

    def register(self, signature: str, fn: KernelFunction) -> KernelFunction:
        if not signature:
            raise ValueError("kernel signature must be non-empty")
        if signature in self._functions:
            raise ValueError(f"kernel {signature!r} is already registered")
        self._functions[signature] = fn
        return fn

    def get(self, signature: str) -> Optional[KernelFunction]:
        return self._functions.get(signature)

    def require(self, signature: str) -> KernelFunction:
        fn = self._functions.get(signature)
        if fn is None:
            known = ", ".join(sorted(self._functions)) or "<none>"
            raise KeyError(f"no functional kernel {signature!r}; known: {known}")
        return fn

    def __contains__(self, signature: str) -> bool:
        return signature in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    def signatures(self) -> List[str]:
        return sorted(self._functions)


#: The process-wide registry the CUDA runtime shim consults.
REGISTRY = FunctionalRegistry()


def functional_kernel(signature: str) -> Callable[[KernelFunction], KernelFunction]:
    """Decorator registering ``fn`` as the implementation of ``signature``."""

    def decorate(fn: KernelFunction) -> KernelFunction:
        REGISTRY.register(signature, fn)
        return fn

    return decorate


# ---------------------------------------------------------------------------
# Core reference kernels (the ones the paper's microbenchmarks use).
# ---------------------------------------------------------------------------


@functional_kernel("vectorAdd")
def vector_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise addition — the paper's coalescing microbenchmark."""
    return np.add(a, b)


@functional_kernel("matrixMul")
def matrix_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product — the paper's Table 1 workload."""
    return a @ b


@functional_kernel("saxpy")
def saxpy(x: np.ndarray, y: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    return alpha * x + y
