"""Pluggable execution backends behind a CLUDA-style API.

Everything in SigmaVP that actually *executes* functional kernel work —
allocations, H2D/D2H copies, launches, batched launches — routes through
one :class:`ExecutionBackend` seam (the shape reikna's CLUDA gives CUDA
and OpenCL).  Backends are name-keyed plugins; the built-in ``numpy``
backend (the default) runs on the host CPU with stacked replication
batching for merged launches.  Select with ``--backend`` /
``REPRO_BACKEND`` / ``backend=`` on the scenario entry points; list with
``repro backends``.
"""

from .api import ExecutionBackend
from .config import BackendConfig
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND_NAME,
    available_backends,
    backend_from_config,
    backend_from_env,
    backend_scope,
    default_backend,
    default_backend_name,
    make_backend,
    register_backend,
    set_default_backend,
)

# Importing the module registers the built-in backend.
from .numpy_backend import NumpyBackend, stacked_rows

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND_NAME",
    "BackendConfig",
    "ExecutionBackend",
    "NumpyBackend",
    "available_backends",
    "backend_from_config",
    "backend_from_env",
    "backend_scope",
    "default_backend",
    "default_backend_name",
    "make_backend",
    "register_backend",
    "set_default_backend",
    "stacked_rows",
]
