"""Imaging workloads: dct8x8, convolutionSeparable, SobelFilter,
bicubicTexture, recursiveGaussian, VolumeFiltering, histogram.

These populate the middle of Fig. 11.  The paper singles several of them
out: convolutionSeparable, dct8x8 and SobelFilter "have kernels that are
not sped up by the two optimizations, mostly due to the way they access
and manage the memory" (modelled as ``coalescible=False`` plus a
copy-light pattern that leaves interleaving nothing to overlap), and
SobelFilter / VolumeFiltering are FP-light, so their emulation baseline
is comparatively fast and the headline speedup smaller.
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import functional_kernel
from ..kernels.ir import MemoryFootprint, uniform_kernel
from .base import WorkloadSpec, uniform

_IMG = 2048  # square image edge for the 2D filters

_IMG_ELEMENTS = _IMG * _IMG


def _image_input(rng: np.random.Generator, index: int, spec: WorkloadSpec) -> np.ndarray:
    return uniform(rng, (_IMG, _IMG), 0.0, 255.0)


DCT8X8 = WorkloadSpec(
    name="dct8x8",
    kernel=uniform_kernel(
        "dct8x8",
        # Each thread works on one pixel of an 8x8 block: two 1-D 8-point
        # DCT passes through shared memory.
        {"fp32": 44, "load": 4, "store": 2, "int": 14, "branch": 2, "bit": 2},
        MemoryFootprint(
            bytes_in=_IMG_ELEMENTS * 4,
            bytes_out=_IMG_ELEMENTS * 4,
            working_set_bytes=64 * 1024,
            locality=0.85,
            coalesced_fraction=0.9,
        ),
        signature="dct8x8",
        coalescible=False,  # block-local shared-memory layout resists merging
    ),
    elements=_IMG_ELEMENTS,
    input_arrays=1,
    element_bytes=4,
    block_size=64,
    iterations=30,
    streaming=False,
    sync_every=30,
    c_ops=_IMG_ELEMENTS * 60.0 * 30,
    input_factory=_image_input,
    description="8x8 block DCT (JPEG-style); Fig. 12/13 estimation app",
)


CONVOLUTION_SEPARABLE = WorkloadSpec(
    name="convolutionSeparable",
    kernel=uniform_kernel(
        "convolutionSeparable",
        # Two 17-tap passes, heavily shared-memory staged.
        {"fp32": 34, "load": 6, "store": 2, "int": 10, "branch": 3},
        MemoryFootprint(
            bytes_in=_IMG_ELEMENTS * 4,
            bytes_out=_IMG_ELEMENTS * 4,
            working_set_bytes=96 * 1024,
            locality=0.8,
            coalesced_fraction=0.9,
        ),
        signature="convolutionSeparable",
        coalescible=False,
    ),
    elements=_IMG_ELEMENTS,
    input_arrays=1,
    element_bytes=4,
    block_size=128,
    iterations=30,
    streaming=False,
    sync_every=30,
    c_ops=_IMG_ELEMENTS * 70.0 * 30,
    params={"radius": 8},
    input_factory=_image_input,
    description="separable 17-tap 2D convolution",
)


SOBEL_FILTER = WorkloadSpec(
    name="SobelFilter",
    kernel=uniform_kernel(
        "SobelFilter",
        # 3x3 integer gradient stencils: almost no floating point.
        {"int": 28, "fp32": 4, "load": 9, "store": 1, "branch": 3, "bit": 4},
        MemoryFootprint(
            bytes_in=_IMG_ELEMENTS,
            bytes_out=_IMG_ELEMENTS,
            working_set_bytes=48 * 1024,
            locality=0.8,
            coalesced_fraction=0.85,
        ),
        signature="SobelFilter",
        coalescible=False,
    ),
    elements=_IMG_ELEMENTS,
    input_arrays=1,
    element_bytes=1,  # 8-bit image
    block_size=256,
    iterations=40,
    streaming=False,
    sync_every=40,
    noncuda_ops=4.0e7,  # OpenGL display of the filtered frames
    c_ops=_IMG_ELEMENTS * 24.0 * 40,
    input_factory=lambda rng, i, spec: rng.integers(
        0, 256, (_IMG, _IMG), dtype=np.uint8
    ),
    description="Sobel edge detection: integer-dominated, OpenGL-bound",
)


BICUBIC_TEXTURE = WorkloadSpec(
    name="bicubicTexture",
    kernel=uniform_kernel(
        "bicubicTexture",
        {"fp32": 55, "load": 4, "store": 1, "int": 12, "branch": 2},
        MemoryFootprint(
            bytes_in=_IMG_ELEMENTS * 4,
            bytes_out=_IMG_ELEMENTS * 4,
            working_set_bytes=128 * 1024,
            locality=0.85,
            coalesced_fraction=0.7,
        ),
        signature="bicubicTexture",
    ),
    elements=_IMG_ELEMENTS,
    input_arrays=1,
    element_bytes=4,
    block_size=256,
    iterations=24,
    streaming=True,  # a new source image per iteration
    sync_every=24,
    noncuda_ops=3.0e7,  # reads source images from files
    c_ops=_IMG_ELEMENTS * 80.0 * 24,
    input_factory=_image_input,
    description="bicubic texture interpolation with file-based inputs",
)


RECURSIVE_GAUSSIAN = WorkloadSpec(
    name="recursiveGaussian",
    kernel=uniform_kernel(
        "recursiveGaussian",
        {"fp32": 40, "load": 2, "store": 2, "int": 8, "branch": 2},
        MemoryFootprint(
            bytes_in=_IMG_ELEMENTS * 4,
            bytes_out=_IMG_ELEMENTS * 4,
            working_set_bytes=_IMG * 4 * 8,  # row-recursive state
            locality=0.6,
            coalesced_fraction=0.5,  # column-order recursion
        ),
        signature="recursiveGaussian",
    ),
    elements=_IMG_ELEMENTS,
    input_arrays=1,
    element_bytes=4,
    block_size=256,
    iterations=24,
    streaming=True,
    sync_every=24,
    noncuda_ops=3.0e7,
    c_ops=_IMG_ELEMENTS * 60.0 * 24,
    input_factory=_image_input,
    description="recursive (IIR) Gaussian blur with file I/O",
)


_VOL = 256  # 256^3 volume

VOLUME_FILTERING = WorkloadSpec(
    name="VolumeFiltering",
    kernel=uniform_kernel(
        "VolumeFiltering",
        # 3D stencil: integer-and-load dominated, little arithmetic;
        # the 27-point neighbourhood hits the cache, so DRAM-visible
        # loads are few.
        {"load": 2.5, "fp32": 7, "int": 34, "store": 1, "branch": 3},
        MemoryFootprint(
            bytes_in=_VOL**3,
            bytes_out=_VOL**3,
            working_set_bytes=64 * 1024,  # active slab
            locality=0.9,
            coalesced_fraction=0.8,
        ),
        signature="VolumeFiltering",
    ),
    elements=_VOL**3,
    input_arrays=1,
    element_bytes=1,
    block_size=256,
    iterations=6,
    streaming=False,
    readback_only=True,  # filtered frames return to the guest renderer
    sync_every=1,
    noncuda_ops=6.0e7,  # OpenGL volume rendering
    c_ops=float(_VOL**3) * 30.0 * 6,
    input_factory=lambda rng, i, spec: rng.integers(
        0, 256, _VOL**3, dtype=np.uint8
    ),
    description="3D volume filtering: load-bound, FP-light, OpenGL-bound",
)


_HIST_ELEMENTS = 16 * 1024 * 1024

HISTOGRAM = WorkloadSpec(
    name="histogram",
    kernel=uniform_kernel(
        "histogram",
        {"int": 5, "bit": 3, "load": 1, "store": 1, "branch": 1},
        MemoryFootprint(
            bytes_in=_HIST_ELEMENTS,
            bytes_out=256 * 4,
            working_set_bytes=_HIST_ELEMENTS,
            locality=0.05,
            coalesced_fraction=1.0,
        ),
        trips=4.0,
        signature="histogram",
        elements_per_thread=4.0,
    ),
    elements=_HIST_ELEMENTS,
    input_arrays=1,
    output_elements=256,
    element_bytes=1,
    block_size=256,
    iterations=30,
    streaming=True,
    sync_every=30,
    c_ops=_HIST_ELEMENTS * 3.0 * 30,
    input_factory=lambda rng, i, spec: rng.integers(
        0, 256, spec.elements, dtype=np.uint8
    ),
    description="256-bin byte histogram (atomics-heavy)",
)


# -- functional implementations --------------------------------------------------


@functional_kernel("dct8x8")
def dct8x8_fn(image: np.ndarray) -> np.ndarray:
    """Blockwise 8x8 type-II DCT, orthonormal (matches the SDK math)."""
    from scipy.fft import dctn

    h, w = image.shape
    blocks = image.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    transformed = dctn(blocks, axes=(2, 3), norm="ortho")
    return transformed.transpose(0, 2, 1, 3).reshape(h, w).astype(image.dtype)


@functional_kernel("convolutionSeparable")
def convolution_separable_fn(image: np.ndarray, radius: int = 8) -> np.ndarray:
    from scipy.ndimage import convolve1d

    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / (radius / 2.0)) ** 2)
    taps = (taps / taps.sum()).astype(image.dtype)
    rows = convolve1d(image, taps, axis=0, mode="nearest")
    return convolve1d(rows, taps, axis=1, mode="nearest").astype(image.dtype)


@functional_kernel("SobelFilter")
def sobel_filter_fn(image: np.ndarray) -> np.ndarray:
    from scipy.ndimage import sobel

    img = image.astype(np.float32)
    gx = sobel(img, axis=0, mode="nearest")
    gy = sobel(img, axis=1, mode="nearest")
    magnitude = np.hypot(gx, gy)
    return np.clip(magnitude, 0, 255).astype(np.uint8)


@functional_kernel("histogram")
def histogram_fn(data: np.ndarray) -> np.ndarray:
    return np.bincount(data.ravel(), minlength=256).astype(np.int32)
