"""Guest API errors surface where and when they always did.

The CUDA and OpenCL facades hand back the interception backend's own
generator instead of wrapping it, so an argument error is raised by the
facade call or by the backend's first step.  Either way the guest must
see the same exception, from the same simulation process, at the same
simulated instant; a kernel parameter the host function rejects fails
on the compute engine when the kernel completes.  The instants below
are pinned: a facade that charged guest time before validating, or
that deferred the check to a later step, would move them.
"""

import numpy as np
import pytest

from repro.core import SHARED_MEMORY, SigmaVP
from repro.kernels.functional import REGISTRY, FunctionalRegistry
from repro.vp.opencl_runtime import OpenCLRuntime
from repro.workloads.linalg import make_vectoradd_spec

ELEMENTS = 1024
SPEC = make_vectoradd_spec(ELEMENTS)


def _cuda(session):
    rt = session.runtime

    def prologue():
        a = yield from rt.malloc(4 * ELEMENTS)
        b = yield from rt.malloc(4 * ELEMENTS)
        out = yield from rt.malloc(4 * ELEMENTS)
        data = np.ones(ELEMENTS, dtype=np.float32)
        yield from rt.memcpy_h2d(a, data, sync=True)
        yield from rt.memcpy_h2d(b, data, sync=True)
        return a, b, out

    def malloc(nbytes):
        return rt.malloc(nbytes)

    def launch(args, out, params):
        return rt.launch_kernel(
            SPEC.kernel, SPEC.launch_config(), args=args, out=out,
            params=params, sync=False,
        )

    return prologue, malloc, launch, rt.synchronize


def _opencl(session):
    cl = OpenCLRuntime(session.runtime.backend)

    def prologue():
        a = yield from cl.create_buffer(4 * ELEMENTS)
        b = yield from cl.create_buffer(4 * ELEMENTS)
        out = yield from cl.create_buffer(4 * ELEMENTS)
        data = np.ones(ELEMENTS, dtype=np.float32)
        yield from cl.enqueue_write_buffer(a, data, blocking=True)
        yield from cl.enqueue_write_buffer(b, data, blocking=True)
        return a, b, out

    def malloc(nbytes):
        return cl.create_buffer(nbytes)

    def launch(args, out, params):
        launch_config = SPEC.launch_config()
        return cl.enqueue_nd_range_kernel(
            SPEC.kernel,
            global_size=launch_config.grid_size * launch_config.block_size,
            local_size=launch_config.block_size,
            args=args, out=out, params=params,
        )

    return prologue, malloc, launch, cl.finish


FACADES = {"cuda": _cuda, "opencl": _opencl}


def _run(facade, functional, failing_call):
    """Run one VP app that sets up two inputs, then makes ``failing_call``;
    returns the exception ``env.run()`` raised and its notes."""
    framework = SigmaVP(
        transport=SHARED_MEMORY,
        registry=REGISTRY if functional else FunctionalRegistry(),
    )
    session = framework.add_vp()
    prologue, malloc, launch, synchronize = FACADES[facade](session)

    def app():
        a, b, out = yield from prologue()
        yield from failing_call(malloc, launch, a, b, out)
        yield from synchronize()

    session.vp.run_app(app)
    with pytest.raises(Exception) as excinfo:
        framework.env.run()
    return excinfo.value, "\n".join(getattr(excinfo.value, "__notes__", []))


def _malloc_zero(malloc, launch, a, b, out):
    return malloc(0)


def _params_not_a_mapping(malloc, launch, a, b, out):
    return launch([a, b], out, 5)


def _params_the_kernel_rejects(malloc, launch, a, b, out):
    return launch([a, b], out, {"no_such_parameter": 1.0})


#: (call, functional run, exception type, raising component, instant);
#: the instants are the ones the wrapping facades gave.
CASES = {
    "malloc-zero": (
        _malloc_zero, False, ValueError,
        "vp:vp0/app", "t=0.5014690526315788ms",
    ),
    "params-not-a-mapping": (
        _params_not_a_mapping, False, TypeError,
        "vp:vp0/app", "t=0.5014690526315788ms",
    ),
    "params-the-kernel-rejects": (
        _params_the_kernel_rejects, True, TypeError,
        "gpu:0/compute", "t=0.8546708408668728ms",
    ),
}


@pytest.mark.parametrize("facade", sorted(FACADES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_facade_error_type_origin_and_instant(facade, case):
    call, functional, error, origin, instant = CASES[case]
    exc, notes = _run(facade, functional, call)
    assert type(exc) is error
    assert notes == f"raised in simulation process {origin!r} at {instant}"
