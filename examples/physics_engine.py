#!/usr/bin/env python3
"""A PhysX-style particle engine through the OpenCL facade.

The paper names two extensions it plans: other GPU programming platforms
("including OpenCL") and CUDA-related SDKs ("such as PhysX, a physics
engine").  This example exercises both at once: a particle-dynamics
simulation written against the OpenCL-style API, running through the
full SigmaVP pipeline on a virtual platform, with the positions verified
against the numpy reference each run.

Run:  python examples/physics_engine.py
"""

import numpy as np

from repro.core import SHARED_MEMORY, SigmaVP
from repro.kernels.functional import REGISTRY
from repro.vp import OpenCLRuntime, SigmaVPBackend
from repro.workloads.physics import make_physics_kernel, physx_step_fn

N_PARTICLES = 8192
N_STEPS = 12


def particle_app(cl: OpenCLRuntime, initial: np.ndarray):
    """The engine's main loop, OpenCL-style."""

    def app():
        kernel = make_physics_kernel(N_PARTICLES)
        state_buf = yield from cl.create_buffer(initial.nbytes)
        yield from cl.enqueue_write_buffer(state_buf, initial, blocking=False)
        for _step in range(N_STEPS):
            yield from cl.enqueue_nd_range_kernel(
                kernel,
                global_size=N_PARTICLES,
                local_size=256,
                args=[state_buf],
                out=state_buf,  # the step updates the state in place
            )
        yield from cl.finish()
        result = yield from cl.enqueue_read_buffer(
            state_buf, nbytes=initial.nbytes
        )
        return result.value

    return app


def main() -> None:
    rng = np.random.default_rng(42)
    initial = np.column_stack([
        rng.uniform(-1.0, 1.0, N_PARTICLES),
        rng.uniform(0.5, 2.0, N_PARTICLES),
        rng.normal(0.0, 0.01, N_PARTICLES),
        rng.normal(0.0, 0.01, N_PARTICLES),
    ]).astype(np.float32)

    framework = SigmaVP(n_vps=1, transport=SHARED_MEMORY, registry=REGISTRY)
    session = framework.session("vp0")
    cl = OpenCLRuntime(
        SigmaVPBackend(framework.env, session.vp, framework.ipc,
                       framework.handles)
    )
    process = session.vp.run_app(particle_app(cl, initial))
    total_ms = framework.run_until([process])
    final = process.value

    # Reference: step the numpy model the same number of times.
    expected = initial
    for _ in range(N_STEPS):
        expected = physx_step_fn(expected)
    assert np.allclose(final, expected, rtol=1e-5)

    print(f"simulated {N_PARTICLES} particles x {N_STEPS} steps through "
          f"SigmaVP in {total_ms:.3f} ms of simulated time")
    jobs = {kind.value: n for kind, n
            in framework.dispatcher.stats.dispatched.items() if n}
    print(f"host jobs dispatched: {jobs}")
    print(f"mean height: {initial[:, 1].mean():.3f} -> {final[:, 1].mean():.3f} "
          "(falling, as physics demands)")
    print("functional check against the numpy reference: OK")


if __name__ == "__main__":
    main()
