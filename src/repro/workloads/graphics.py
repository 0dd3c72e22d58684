"""Graphics workloads: simpleGL, Mandelbrot, marchingCubes, nbody,
smokeParticles.

Fig. 11's OpenGL-bound group: simpleGL, marchingCubes, nbody and
smokeParticles spend part of every frame in OpenGL rendering that
SigmaVP cannot accelerate (modelled as ``noncuda_ops`` running on the
binary-translated guest in every scenario); Mandelbrot writes its frames
to files.  nbody and smokeParticles additionally resist the two
optimizations through their interaction/particle state layouts.
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

_MESH = 512  # simpleGL vertex mesh edge

SIMPLE_GL = WorkloadSpec(
    name="simpleGL",
    kernel=uniform_kernel(
        "simpleGL",
        # Per vertex: sinusoidal displacement plus lighting of a
        # height field (several sin/cos polynomial expansions).
        {"fp32": 120, "load": 2, "store": 3, "int": 10, "branch": 2},
        MemoryFootprint(
            bytes_in=_MESH * _MESH * 8,
            bytes_out=_MESH * _MESH * 12,
            working_set_bytes=_MESH * _MESH * 8,
            locality=0.3,
            coalesced_fraction=1.0,
        ),
        signature="simpleGL",
    ),
    elements=_MESH * _MESH,
    input_arrays=1,
    element_bytes=8,  # (x, y) pairs
    block_size=256,
    iterations=60,  # 60 animated frames
    streaming=False,
    readback_only=True,  # every frame returns to the guest's OpenGL
    sync_every=1,        # frame-synchronous with the renderer
    noncuda_ops=4.0e7,   # OpenGL VBO rendering per run (guest-side)
    c_ops=_MESH * _MESH * 35.0 * 60,
    params={"time": 1.0},
    description="animated sine-wave height field rendered via OpenGL",
)


def _mandelbrot_kernel() -> KernelIR:
    setup = ProgramBlock(
        name="mandelbrot.setup",
        mix=InstructionMix(fp64=6, int=6),
        trips=1,
    )
    # The escape loop: z = z^2 + c in double precision; average trip
    # count is a fraction of max_iter over the frame.
    escape_loop = ProgramBlock(
        name="mandelbrot.loop",
        mix=InstructionMix(fp64=10, int=2, branch=2),
        trips=lambda ctx: max(1.0, ctx.problem_size),
    )
    writeback = ProgramBlock(
        name="mandelbrot.writeback",
        mix=InstructionMix(int=4, store=1, bit=2),
        trips=1,
    )
    return KernelIR(
        name="Mandelbrot",
        blocks=(setup, escape_loop, writeback),
        footprint=MemoryFootprint(
            bytes_in=0,
            bytes_out=1024 * 1024 * 4,
            working_set_bytes=1024 * 1024 * 4,
            locality=0.1,
            coalesced_fraction=1.0,
        ),
        signature="Mandelbrot",
    )


MANDELBROT = WorkloadSpec(
    name="Mandelbrot",
    kernel=_mandelbrot_kernel(),
    elements=1024 * 1024,
    input_arrays=0,
    element_bytes=4,
    block_size=128,
    iterations=6,  # frames of a zoom sequence
    streaming=True,
    sync_every=6,
    noncuda_ops=5.0e7,  # writes each frame to an image file
    c_ops=1024 * 1024 * 60.0 * 20 * 16,
    problem_size=48.0,  # mean escape iterations per pixel
    params={"width": 1024, "height": 1024, "max_iter": 256},
    description="Mandelbrot zoom (FP64 escape iteration); Fig. 12/13 app",
)


MARCHING_CUBES = WorkloadSpec(
    name="marchingCubes",
    kernel=uniform_kernel(
        "marchingCubes",
        {"fp32": 36, "int": 30, "load": 3, "store": 2, "branch": 8, "bit": 6},
        MemoryFootprint(
            bytes_in=128**3,
            bytes_out=16 * 1024 * 1024,
            working_set_bytes=96 * 1024,  # active voxel slab
            locality=0.85,
            coalesced_fraction=0.7,
        ),
        signature="marchingCubes",
    ),
    elements=128**3,
    input_arrays=1,
    element_bytes=1,
    block_size=128,
    iterations=20,
    streaming=False,
    readback_only=True,  # extracted mesh returns to the guest renderer
    sync_every=1,
    noncuda_ops=5.0e7,   # OpenGL mesh rendering
    c_ops=float(128**3) * 55.0 * 20,
    input_factory=lambda rng, i, spec: rng.integers(
        0, 256, spec.elements, dtype=np.uint8
    ),
    description="iso-surface extraction, rendered via OpenGL",
)


_NBODY_N = 16384

NBODY = WorkloadSpec(
    name="nbody",
    kernel=uniform_kernel(
        "nbody",
        # All-pairs gravity: the inner body-body interaction repeated
        # across the tile loop.
        {"fp32": 22, "load": 1.5, "int": 2, "branch": 0.5},
        MemoryFootprint(
            bytes_in=_NBODY_N * 16,
            bytes_out=_NBODY_N * 16,
            working_set_bytes=_NBODY_N * 16,
            locality=0.9,
            coalesced_fraction=0.95,
        ),
        trips=float(_NBODY_N) / 64.0,  # tiled interaction loop
        signature="nbody",
        coalescible=False,  # per-VP body sets interact all-pairs: no merge
    ),
    elements=_NBODY_N,
    input_arrays=1,
    element_bytes=16,  # float4 position+mass
    block_size=256,
    iterations=40,
    streaming=False,
    sync_every=1,
    noncuda_ops=8.0e7,  # OpenGL particle rendering
    c_ops=float(_NBODY_N) * _NBODY_N * 22.0 * 40 / 1000.0,
    input_factory=lambda rng, i, spec: uniform(rng, (spec.elements, 4)),
    description="all-pairs N-body: FP32-dense, OpenGL-bound, non-coalescible",
)


SMOKE_PARTICLES = WorkloadSpec(
    name="smokeParticles",
    kernel=uniform_kernel(
        "smokeParticles",
        {"fp32": 180, "load": 4, "store": 3, "int": 16, "branch": 6},
        MemoryFootprint(
            bytes_in=262144 * 32,
            bytes_out=262144 * 32,
            working_set_bytes=96 * 1024,
            locality=0.7,
            coalesced_fraction=0.4,  # sorted-by-depth scattered access
        ),
        signature="smokeParticles",
        coalescible=False,
    ),
    elements=262144,
    input_arrays=1,
    element_bytes=32,
    block_size=256,
    iterations=60,
    streaming=False,
    sync_every=1,
    noncuda_ops=8.0e7,  # OpenGL smoke shading
    c_ops=262144 * 220.0 * 60,
    input_factory=lambda rng, i, spec: uniform(rng, (spec.elements, 8)),
    description="particle simulation with depth-sorted shading via OpenGL",
)


# -- functional implementations --------------------------------------------------


@functional_kernel("simpleGL")
def simple_gl_fn(mesh: np.ndarray, time: float = 1.0) -> np.ndarray:
    """The SDK sample's sine-wave displacement of a (x, y) mesh."""
    xy = mesh.reshape(-1, 2)
    freq = 4.0
    w = np.sin(xy[:, 0] * freq + time) * np.cos(xy[:, 1] * freq + time) * 0.5
    return np.column_stack([xy[:, 0], w, xy[:, 1]]).astype(np.float32, copy=False)


@functional_kernel("Mandelbrot")
def mandelbrot_fn(width: int = 1024, height: int = 1024, max_iter: int = 256) -> np.ndarray:
    """Escape-iteration counts over the classic viewport."""
    x = np.linspace(-2.5, 1.0, width)
    y = np.linspace(-1.25, 1.25, height)
    c = x[None, :] + 1j * y[:, None]
    z = np.zeros_like(c)
    counts = np.zeros(c.shape, dtype=np.int32)
    alive = np.ones(c.shape, dtype=bool)
    for _ in range(max_iter):
        z[alive] = z[alive] ** 2 + c[alive]
        escaped = alive & (np.abs(z) > 2.0)
        counts[escaped] = counts[escaped] + 1
        alive &= ~escaped
        counts[alive] += 1
        if not alive.any():
            break
    return counts
