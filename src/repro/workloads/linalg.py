"""Linear-algebra workloads: matrixMul, vectorAdd, transpose, reduction,
scalarProd.

``MATRIX_MUL`` is the paper's Table 1 workload ("a simple program that
multiplies 300 times two 320x320 matrices of double-precision numbers")
and one of the four Fig. 12/13 estimation apps.  Its kernel IR is a
three-block CFG (prologue, k-loop, epilogue) so the per-block
instruction-count machinery of paper Fig. 8 is exercised for real.
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import functional_kernel
from ..kernels.ir import (
    InstructionMix,
    KernelIR,
    MemoryFootprint,
    ProgramBlock,
    uniform_kernel,
)
from .base import WorkloadSpec, uniform

# ---------------------------------------------------------------------------
# matrixMul: 320x320 FP64, shared-memory tiled (16-wide tiles).
# ---------------------------------------------------------------------------

MATRIX_N = 320
_TILE = 16


def _matrixmul_kernel() -> KernelIR:
    n = MATRIX_N
    prologue = ProgramBlock(
        name="matrixMul.prologue",
        mix=InstructionMix(int=10, load=2, branch=1),
        trips=1,
    )
    # One trip per k index: one FP64 FMA; loads amortized over the
    # 16-wide shared-memory tile; loop control unrolled 16x.
    k_loop = ProgramBlock(
        name="matrixMul.kloop",
        mix=InstructionMix(fp64=1, int=1, load=2.0 / _TILE, branch=1.0 / _TILE),
        trips=lambda ctx: ctx.problem_size,
    )
    epilogue = ProgramBlock(
        name="matrixMul.epilogue",
        mix=InstructionMix(store=1, int=2),
        trips=1,
    )
    footprint = MemoryFootprint(
        bytes_in=2 * n * n * 8,
        bytes_out=n * n * 8,
        # Tiled access: the active working set is the tile stripe, not
        # the whole matrices.
        working_set_bytes=240 * 1024,
        locality=0.90,
        coalesced_fraction=0.95,
    )
    return KernelIR(
        name="matrixMul",
        blocks=(prologue, k_loop, epilogue),
        footprint=footprint,
        signature="matrixMul",
    )


def _matrix_input(rng: np.random.Generator, index: int, spec: WorkloadSpec) -> np.ndarray:
    return uniform(rng, (MATRIX_N, MATRIX_N), dtype=np.float64)


MATRIX_MUL = WorkloadSpec(
    name="matrixMul",
    kernel=_matrixmul_kernel(),
    elements=MATRIX_N * MATRIX_N,
    input_arrays=2,
    element_bytes=8,
    block_size=256,
    iterations=300,
    streaming=False,        # inputs copied once; 300 kernel launches
    sync_every=1,           # cudaDeviceSynchronize per multiplication
    # C implementation: n^3 * ~7.9 scalar ops per inner iteration, x300,
    # calibrated to Table 1's 8213.09 ms on the host Xeon.
    c_ops=300 * (MATRIX_N**3) * 7.9 / 1.0,
    problem_size=MATRIX_N,
    input_factory=_matrix_input,
    description="Table 1: 300 multiplications of two 320x320 FP64 matrices",
)


# ---------------------------------------------------------------------------
# vectorAdd: the Kernel Coalescing microbenchmark (Fig. 10).
# ---------------------------------------------------------------------------


def make_vectoradd_kernel(
    elements_per_thread: float = 8.0, fp32_per_element: float = 1.0
) -> KernelIR:
    """vectorAdd IR; ``fp32_per_element`` scales the per-element compute
    (the paper's coalescing microbenchmark uses long per-element kernels
    — its single-kernel times reach hundreds of milliseconds, Fig. 10b)."""
    return uniform_kernel(
        "vectorAdd",
        {"fp32": fp32_per_element, "load": 2, "store": 1, "int": 2, "branch": 0.25},
        MemoryFootprint(
            bytes_in=2 * 4, bytes_out=4, working_set_bytes=12,
            locality=0.05, coalesced_fraction=1.0,
        ),
        trips=elements_per_thread,
        signature="vectorAdd",
        elements_per_thread=elements_per_thread,
    )


def make_vectoradd_spec(
    elements: int,
    iterations: int = 1,
    block_size: int = 512,
    elements_per_thread: float = 8.0,
    fp32_per_element: float = 1.0,
    name: str = "vectorAdd",
) -> WorkloadSpec:
    """A vectorAdd instance over ``elements`` FP32 elements."""
    kernel = make_vectoradd_kernel(elements_per_thread, fp32_per_element)
    kernel = kernel.with_footprint(
        MemoryFootprint(
            bytes_in=2 * elements * 4,
            bytes_out=elements * 4,
            working_set_bytes=3 * elements * 4,
            locality=0.05,
            coalesced_fraction=1.0,
        )
    )
    return WorkloadSpec(
        name=name,
        kernel=kernel,
        elements=elements,
        input_arrays=2,
        element_bytes=4,
        block_size=block_size,
        iterations=iterations,
        streaming=True,
        sync_every=iterations,
        c_ops=elements * 6.0 * iterations,
        description="element-wise vector addition (coalescing microbenchmark)",
    )


VECTOR_ADD = make_vectoradd_spec(elements=4_194_304, iterations=8)


# ---------------------------------------------------------------------------
# transpose: bandwidth-bound, zero floating point (FP-light exemplar).
# ---------------------------------------------------------------------------

_TRANSPOSE_N = 2048

TRANSPOSE = WorkloadSpec(
    name="transpose",
    kernel=uniform_kernel(
        "transpose",
        {"load": 1, "store": 1, "int": 4, "branch": 0.25},
        MemoryFootprint(
            bytes_in=_TRANSPOSE_N * _TRANSPOSE_N * 4,
            bytes_out=_TRANSPOSE_N * _TRANSPOSE_N * 4,
            working_set_bytes=256 * 1024,  # 32x32 tile staging
            locality=0.35,
            coalesced_fraction=0.6,  # column writes are partially uncoalesced
        ),
        signature="transpose",
    ),
    elements=_TRANSPOSE_N * _TRANSPOSE_N,
    input_arrays=1,
    element_bytes=4,
    block_size=256,
    iterations=40,
    streaming=True,
    sync_every=40,
    c_ops=_TRANSPOSE_N * _TRANSPOSE_N * 4.0 * 40,
    input_factory=lambda rng, i, spec: uniform(rng, (_TRANSPOSE_N, _TRANSPOSE_N)),
    description="matrix transpose: memory-bound, no floating point",
)


# ---------------------------------------------------------------------------
# reduction: parallel sum.
# ---------------------------------------------------------------------------

REDUCTION = WorkloadSpec(
    name="reduction",
    kernel=uniform_kernel(
        "reduction",
        {"fp32": 1, "load": 1, "int": 3, "branch": 1, "bit": 1},
        MemoryFootprint(
            bytes_in=8 * 1024 * 1024, bytes_out=4, working_set_bytes=8 * 1024 * 1024,
            locality=0.1, coalesced_fraction=1.0,
        ),
        trips=4.0,
        signature="reduction",
        elements_per_thread=4.0,
    ),
    elements=2_097_152,
    input_arrays=1,
    output_elements=1,
    element_bytes=4,
    block_size=256,
    iterations=64,
    streaming=True,
    sync_every=64,
    c_ops=2_097_152 * 2.0 * 64,
    description="tree reduction to a single sum",
)


# ---------------------------------------------------------------------------
# scalarProd: batched dot products.
# ---------------------------------------------------------------------------

_SCALARPROD_VECTORS = 256
_SCALARPROD_LEN = 4096

SCALAR_PROD = WorkloadSpec(
    name="scalarProd",
    kernel=uniform_kernel(
        "scalarProd",
        {"fp32": 2, "load": 2, "int": 2, "branch": 0.5},
        MemoryFootprint(
            bytes_in=2 * _SCALARPROD_VECTORS * _SCALARPROD_LEN * 4,
            bytes_out=_SCALARPROD_VECTORS * 4,
            working_set_bytes=2 * _SCALARPROD_LEN * 4,
            locality=0.4,
            coalesced_fraction=1.0,
        ),
        trips=8.0,
        signature="scalarProd",
        elements_per_thread=8.0,
    ),
    elements=_SCALARPROD_VECTORS * _SCALARPROD_LEN,
    input_arrays=2,
    output_elements=_SCALARPROD_VECTORS,
    element_bytes=4,
    block_size=256,
    iterations=32,
    streaming=True,
    sync_every=32,
    c_ops=_SCALARPROD_VECTORS * _SCALARPROD_LEN * 2.0 * 32,
    params={"vectors": _SCALARPROD_VECTORS},
    description="batch of vector dot products",
)


# ---------------------------------------------------------------------------
# Functional implementations (matrixMul and vectorAdd live in
# repro.kernels.functional as core reference kernels).
# ---------------------------------------------------------------------------


@functional_kernel("transpose")
def transpose_fn(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.T)


@functional_kernel("reduction")
def reduction_fn(a: np.ndarray) -> np.ndarray:
    return np.array([np.sum(a)], dtype=a.dtype)


@functional_kernel("scalarProd")
def scalar_prod_fn(a: np.ndarray, b: np.ndarray, vectors: int = 1) -> np.ndarray:
    return (a.reshape(vectors, -1) * b.reshape(vectors, -1)).sum(axis=1)
