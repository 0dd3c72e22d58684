"""The execution backend behind a CLUDA-style API.

Everything in SigmaVP that actually *executes* functional kernel work —
allocations, H2D/D2H copies, launches — routes through one
:class:`ExecutionBackend` seam (the shape reikna's CLUDA gives CUDA and
OpenCL).  :class:`NumpyBackend` is the one implementation: it runs on
the host CPU, one ``launch`` per member of a merged kernel job.
``SigmaVP`` and the ``run_*`` scenario runners take the backend *class*
as a ``backend=`` parameter, so tests can inject a subclass; see
``docs/BACKENDS.md``.
"""

from .api import ExecutionBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
]
