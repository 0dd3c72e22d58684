"""Name-keyed execution-backend registry and process-default selection.

Mirrors ``repro.sched.registry`` (register/make/available triple) plus
a process default (env var + module default + scoped override), so
backend selection composes with the existing config surface:

* ``register_backend`` — class decorator; ``name``/``description`` come
  from class attributes, re-registration is last-wins (tests override).
* ``make_backend(name, **options)`` — factory; unknown names raise with
  the list of known backends.
* ``REPRO_BACKEND`` / ``set_default_backend`` / ``backend_scope`` —
  process-wide default used whenever a caller does not hand a backend
  down explicitly (standalone runtimes, farm workers, CLI).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

if TYPE_CHECKING:
    from ..kernels.functional import FunctionalRegistry
    from .api import ExecutionBackend
    from .config import BackendConfig

#: Environment variable selecting the process-default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Built-in default: host numpy execution with stacked batching.
DEFAULT_BACKEND_NAME = "numpy"

_BACKENDS: Dict[str, Tuple[Callable[..., "ExecutionBackend"], str]] = {}

_B = TypeVar("_B", bound="Type[ExecutionBackend]")


def register_backend(cls: _B) -> _B:
    """Class decorator adding an ``ExecutionBackend`` to the registry.

    The registry key and listing text come from the class's ``name`` and
    ``description`` attributes.  Registering the same name again
    replaces the earlier entry (tests rely on this to inject doubles).
    """
    name = getattr(cls, "name", "abstract")
    if not name or name == "abstract":
        raise ValueError(
            f"backend class {cls.__name__} must define a concrete 'name'"
        )
    _BACKENDS[name] = (cls, getattr(cls, "description", ""))
    return cls


def make_backend(name: str, **options: Any) -> "ExecutionBackend":
    """Instantiate the backend registered under ``name``."""
    try:
        factory, _ = _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS)) or "none registered"
        raise ValueError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return factory(**options)


def available_backends() -> List[Tuple[str, str]]:
    """Sorted ``(name, description)`` pairs of registered backends."""
    return sorted((name, desc) for name, (_, desc) in _BACKENDS.items())


# -- process default ------------------------------------------------------

_DEFAULT: Optional[str] = None


def backend_from_env() -> str:
    """Backend name from ``REPRO_BACKEND`` (falling back to built-in)."""
    return os.environ.get(BACKEND_ENV_VAR, "") or DEFAULT_BACKEND_NAME


def default_backend_name() -> str:
    """The effective process-default backend name, validated."""
    name = _DEFAULT if _DEFAULT is not None else backend_from_env()
    if name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS)) or "none registered"
        raise ValueError(
            f"unknown execution backend {name!r} selected via "
            f"{BACKEND_ENV_VAR} or set_default_backend (known: {known})"
        )
    return name


def set_default_backend(name: Optional[str]) -> Optional[str]:
    """Set the process-default backend name; returns the previous value.

    ``None`` reverts to the environment/built-in default.
    """
    global _DEFAULT
    if name is not None and name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS)) or "none registered"
        raise ValueError(
            f"unknown execution backend {name!r} (known: {known})"
        )
    previous = _DEFAULT
    _DEFAULT = name
    return previous


@contextmanager
def backend_scope(name: Optional[str]) -> Iterator[None]:
    """Temporarily override the process-default backend.

    Scoping (rather than passing ``backend=`` into job kwargs) keeps job
    config-hash keys identical, so result digests stay directly
    comparable across backends.
    """
    previous = set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


# -- shared default instances ---------------------------------------------

_INSTANCE_CAP = 32
_INSTANCES: "OrderedDict[Tuple[str, int], Tuple[Any, ExecutionBackend]]"
_INSTANCES = OrderedDict()


def default_backend(
    registry: Optional["FunctionalRegistry"] = None,
) -> "ExecutionBackend":
    """A shared instance of the process-default backend.

    Callers that are not handed a backend explicitly (standalone VP
    runtimes, direct ``HostGPU`` construction) share one instance per
    ``(backend name, functional registry)`` pair, so allocation ledgers
    and counters aggregate sensibly within a process.
    """
    name = default_backend_name()
    key = (name, 0 if registry is None else id(registry))
    entry = _INSTANCES.get(key)
    # The id() key could alias a garbage-collected registry; the strong
    # reference stored alongside both prevents that and lets us verify.
    if entry is not None and (registry is None or entry[0] is registry):
        return entry[1]
    instance = (
        make_backend(name) if registry is None else make_backend(name, registry=registry)
    )
    _INSTANCES[key] = (registry, instance)
    while len(_INSTANCES) > _INSTANCE_CAP:
        _INSTANCES.popitem(last=False)
    return instance


def backend_from_config(
    config: Optional["BackendConfig"],
    registry: Optional["FunctionalRegistry"] = None,
) -> "ExecutionBackend":
    """Build the backend a :class:`BackendConfig` describes.

    ``None`` means "process default" — a fresh instance bound to
    ``registry`` so framework-owned backends do not share ledgers with
    ambient callers.
    """
    name = config.name if config is not None else default_backend_name()
    options: Dict[str, Any] = dict(config.options) if config is not None else {}
    if registry is not None:
        options.setdefault("registry", registry)
    return make_backend(name, **options)
