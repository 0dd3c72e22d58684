"""Data-analytics workloads: mergeSort, stereoDisparity,
segmentationTreeThrust.

mergeSort is Fig. 11's most interesting data point: the *lowest*
plain-multiplexing speedup (622x — its integer/branch kernels emulate
comparatively fast) but the *largest* gain from the two optimizations
("In the best case (mergeSort) the addition of the two optimizations
yields an additional 10X speedup") because its many tiny per-pass
launches are dominated by launch overhead and unaligned grids, exactly
what coalescing eliminates.
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import functional_kernel
from ..kernels.ir import MemoryFootprint, uniform_kernel
from .base import WorkloadSpec, uniform

_SORT_N = 1_048_576

MERGE_SORT = WorkloadSpec(
    name="mergeSort",
    kernel=uniform_kernel(
        "mergeSort",
        # Comparison sort pass over a 16-element tile per thread:
        # zero floating point.
        {"int": 14, "branch": 7, "load": 1, "store": 0.5, "bit": 4},
        MemoryFootprint(
            bytes_in=_SORT_N * 4,
            bytes_out=_SORT_N * 4,
            working_set_bytes=256 * 1024,
            locality=0.75,
            coalesced_fraction=0.8,
        ),
        trips=16.0,
        signature="mergeSort",
        elements_per_thread=16.0,  # each pass's thread covers a tile
    ),
    elements=_SORT_N,
    input_arrays=1,
    element_bytes=4,
    block_size=256,
    iterations=120,  # log(n) passes x batches: many small launches
    streaming=False,
    sync_every=120,
    c_ops=_SORT_N * 20.0 * 40,  # n log n comparisons and moves
    input_factory=lambda rng, i, spec: rng.integers(
        0, 2**30, spec.elements, dtype=np.int32
    ),
    description="multi-pass merge sort: FP-free, launch-overhead bound",
)


_DISPARITY_W, _DISPARITY_H = 640, 533  # the SDK stereo pair

STEREO_DISPARITY = WorkloadSpec(
    name="stereoDisparity",
    kernel=uniform_kernel(
        "stereoDisparity",
        # Sum-of-absolute-differences over the disparity search range:
        # almost pure integer arithmetic.
        {"int": 150, "load": 8, "branch": 18, "bit": 10, "fp32": 2, "store": 1},
        MemoryFootprint(
            bytes_in=2 * _DISPARITY_W * _DISPARITY_H * 4,
            bytes_out=_DISPARITY_W * _DISPARITY_H * 4,
            working_set_bytes=192 * 1024,
            locality=0.85,
            coalesced_fraction=0.8,
        ),
        signature="stereoDisparity",
    ),
    elements=_DISPARITY_W * _DISPARITY_H,
    input_arrays=2,
    element_bytes=4,
    block_size=128,
    iterations=24,
    streaming=True,  # a fresh stereo pair per iteration
    sync_every=24,
    c_ops=_DISPARITY_W * _DISPARITY_H * 150.0 * 24,
    params={"row_width": _DISPARITY_W},
    input_factory=lambda rng, i, spec: rng.integers(
        0, 256, spec.elements, dtype=np.int32
    ),
    description="block-matching stereo disparity: integer SAD, FP-light",
)


_SEG_PIXELS = 512 * 512

SEGMENTATION_TREE = WorkloadSpec(
    name="segmentationTreeThrust",
    kernel=uniform_kernel(
        "segmentationTreeThrust",
        # Graph-based segmentation: sort/scan/union passes via thrust.
        {"int": 80, "load": 5, "store": 2, "branch": 16, "bit": 10, "fp32": 6},
        MemoryFootprint(
            bytes_in=_SEG_PIXELS * 12,
            bytes_out=_SEG_PIXELS * 4,
            working_set_bytes=128 * 1024,
            locality=0.7,
            coalesced_fraction=0.6,
        ),
        signature="segmentationTreeThrust",
    ),
    elements=_SEG_PIXELS,
    input_arrays=1,
    element_bytes=12,  # edge list records
    block_size=256,
    iterations=40,  # many thrust passes
    streaming=False,
    sync_every=4,
    noncuda_ops=3.0e7,  # reads the image, writes the segmentation
    c_ops=_SEG_PIXELS * 90.0 * 40,
    input_factory=lambda rng, i, spec: uniform(rng, (spec.elements, 3)),
    description="graph-based image segmentation (thrust passes), file I/O",
)


# -- functional implementations --------------------------------------------------


@functional_kernel("mergeSort")
def merge_sort_fn(keys: np.ndarray) -> np.ndarray:
    """Sorted keys.  Equal integer keys are indistinguishable, so numpy's
    default kind returns the same array as a merge sort, 20x faster."""
    return np.sort(keys)


@functional_kernel("stereoDisparity")
def stereo_disparity_fn(
    left: np.ndarray, right: np.ndarray, row_width: int = _DISPARITY_W
) -> np.ndarray:
    """Reference disparity: best of a small shift search (simplified).

    The images are ``row_width`` pixels wide; a scaled spec keeps the
    width and changes the number of rows.
    """
    left = left.reshape(-1, row_width)
    right = right.reshape(-1, row_width)
    max_shift = 8
    best_cost = np.full(left.shape, np.iinfo(np.int64).max, dtype=np.int64)
    best_shift = np.zeros(left.shape, dtype=np.int32)
    for shift in range(max_shift):
        shifted = np.roll(right, shift, axis=1)
        cost = np.abs(left.astype(np.int64) - shifted.astype(np.int64))
        better = cost < best_cost
        best_cost = np.where(better, cost, best_cost)
        best_shift = np.where(better, shift, best_shift)
    return best_shift.ravel()
