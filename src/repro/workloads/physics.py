"""A PhysX-style physics workload.

The paper motivates CUDA over OpenCL partly because "we plan to extend
our method to other CUDA related SDKs such as PhysX, a physics engine"
(Section 5).  This module provides that extension's workload: a
particle-dynamics step kernel (gravity integration with ground-plane
collision and damping), usable through either the CUDA or the OpenCL
runtime facade, with a numpy reference implementation for functional
validation.

State layout: one float32 array of shape (n, 4) packing
(x, y, vx, vy) per particle.
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import functional_kernel
from ..kernels.ir import MemoryFootprint, uniform_kernel
from .base import WorkloadSpec, uniform

#: Gravity (units per step^2) and restitution used by kernel and reference.
GRAVITY = -9.8e-3
RESTITUTION = 0.6

_PARTICLES = 262_144


def make_physics_kernel(particles: int = _PARTICLES):
    return uniform_kernel(
        "physxStep",
        # Integrate, test the plane, reflect: light FP32 with a branch.
        {"fp32": 14, "load": 4, "store": 4, "int": 4, "branch": 2},
        MemoryFootprint(
            bytes_in=particles * 16,
            bytes_out=particles * 16,
            working_set_bytes=min(particles * 16, 96 * 1024),
            locality=0.6,
            coalesced_fraction=1.0,
        ),
        signature="physxStep",
    )


PHYSX_PARTICLES = WorkloadSpec(
    name="physxParticles",
    kernel=make_physics_kernel(),
    elements=_PARTICLES,
    input_arrays=1,
    element_bytes=16,  # float4 (x, y, vx, vy)
    block_size=256,
    iterations=48,      # 48 simulation steps
    streaming=False,
    readback_only=True,  # each step's state returns to the guest engine
    feedback=True,       # the step kernel updates the state in place
    sync_every=1,        # the physics loop is frame-synchronous
    noncuda_ops=4.0e7,   # scene graph + rendering on the guest
    c_ops=_PARTICLES * 30.0 * 48,
    # One draw per column: scaling an (n, 4) draw by a 4-wide array is slow.
    input_factory=lambda rng, i, spec: np.column_stack([
        uniform(rng, spec.elements),                 # x
        uniform(rng, spec.elements, 0.5, 2.0),       # y (above ground)
        uniform(rng, spec.elements, -0.01, 0.01),    # vx
        uniform(rng, spec.elements, -0.01, 0.01),    # vy
    ]),
    description="PhysX-style particle dynamics step (paper's planned SDK extension)",
)


@functional_kernel("physxStep")
def physx_step_fn(state: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """One explicit-Euler step with ground-plane collision at y = 0."""
    state = np.asarray(state, dtype=np.float32).reshape(-1, 4)
    x, y, vx, vy = state.T  # views of the input: the steps below only rebind them
    vy = vy + GRAVITY * dt
    x = x + vx * dt
    y = y + vy * dt
    below = y < 0.0
    y = np.where(below, -y * RESTITUTION, y)
    vy = np.where(below, -vy * RESTITUTION, vy)
    vx = np.where(below, vx * RESTITUTION, vx)
    return np.column_stack([x, y, vx, vy]).astype(np.float32, copy=False)
