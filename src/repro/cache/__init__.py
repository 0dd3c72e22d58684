"""Persistent cross-process artifact cache (the disk layer).

The PR-1 memo caches are in-process: every fresh process — each farm
worker, every CLI invocation — starts cold and re-derives the same
compiled kernels and timing profiles.  This package adds the persistent
tier below them:

* :class:`~repro.cache.disk.DiskCache` — the content-addressed store
  (atomic write-rename, corruption-safe reads, LRU-by-mtime eviction);
* :mod:`~repro.cache.keys` — exact content keys for compiles, profiles,
  and whole farm-job results;
* this module — process-wide configuration: where the store lives,
  whether it is consulted, and the scoped overrides the tests use.

Resolution order for the two knobs:

* **location** — explicit :func:`configure` root, else the
  ``REPRO_CACHE_DIR`` environment variable, else
  ``~/.cache/repro-sigmavp``;
* **enabled** — explicit :func:`set_disk_enabled` /
  :func:`configure` / :func:`disk_scope` override, else
  ``REPRO_DISK_CACHE`` (``0``/``false``/``off`` disables), else on.

The disk layer is deliberately independent of
:func:`repro.caching.caches_enabled`: that switch turns off the
*in-memory* memos, while a memory-cold process with a warm disk cache
is exactly what this layer exists to serve.  Callers that need a fully
uncached run disable both (``cache_scope(False)`` +
``disk_scope(False)``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Optional

from .disk import DEFAULT_MAX_BYTES, DiskCache, MISS
from .keys import (
    CACHE_VERSION,
    arch_config_hash,
    compile_key,
    job_result_key,
    profile_key,
)

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_MAX_BYTES",
    "DiskCache",
    "MISS",
    "arch_config_hash",
    "cache_stats",
    "clear_disk",
    "compile_key",
    "configure",
    "default_root",
    "disk_cache",
    "disk_enabled",
    "disk_scope",
    "job_result_key",
    "job_results_enabled",
    "profile_key",
    "set_disk_enabled",
    "set_job_results_enabled",
]

#: Environment overrides (read lazily, so tests may monkeypatch them).
ENV_ROOT = "REPRO_CACHE_DIR"
ENV_ENABLED = "REPRO_DISK_CACHE"

_FALSEY = {"0", "false", "off", "no", ""}

#: The lazily-created store singleton for the current configuration.
_STORE: Optional[DiskCache] = None
#: Explicit overrides; ``None`` means "resolve from the environment".
_ROOT_OVERRIDE: Optional[Path] = None
_ENABLED_OVERRIDE: Optional[bool] = None
_MAX_BYTES_OVERRIDE: Optional[int] = None
#: Whether the whole-job result layer (exec.farm.run_job) is active.
_JOB_RESULTS = True


def default_root() -> Path:
    """Where the store lives absent an explicit :func:`configure`."""
    if _ROOT_OVERRIDE is not None:
        return _ROOT_OVERRIDE
    env = os.environ.get(ENV_ROOT)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sigmavp"


def disk_enabled() -> bool:
    """Whether the disk layer is consulted at all."""
    if _ENABLED_OVERRIDE is not None:
        return _ENABLED_OVERRIDE
    env = os.environ.get(ENV_ENABLED)
    if env is not None:
        return env.strip().lower() not in _FALSEY
    return True


def set_disk_enabled(enabled: Optional[bool]) -> Optional[bool]:
    """Force the disk layer on/off (``None`` restores env resolution).

    Returns the previous override so scopes can nest.
    """
    global _ENABLED_OVERRIDE
    previous = _ENABLED_OVERRIDE
    _ENABLED_OVERRIDE = None if enabled is None else bool(enabled)
    return previous


def job_results_enabled() -> bool:
    """Whether :func:`repro.exec.farm.run_job` may serve whole results."""
    return _JOB_RESULTS


def set_job_results_enabled(enabled: bool) -> bool:
    global _JOB_RESULTS
    previous = _JOB_RESULTS
    _JOB_RESULTS = bool(enabled)
    return previous


def configure(
    root: Optional[Path] = None,
    max_bytes: Optional[int] = None,
    enabled: Optional[bool] = None,
) -> None:
    """Re-point the process's store (tests, workers, CLI overrides).

    Any argument left ``None`` keeps its current resolution; the store
    singleton is dropped so the next :func:`disk_cache` rebuilds it.
    """
    global _STORE, _ROOT_OVERRIDE, _MAX_BYTES_OVERRIDE, _ENABLED_OVERRIDE
    if root is not None:
        _ROOT_OVERRIDE = Path(root)
    if max_bytes is not None:
        _MAX_BYTES_OVERRIDE = int(max_bytes)
    if enabled is not None:
        _ENABLED_OVERRIDE = bool(enabled)
    _STORE = None


def disk_cache() -> Optional[DiskCache]:
    """The process's store, or ``None`` when the disk layer is off."""
    global _STORE
    if not disk_enabled():
        return None
    if _STORE is None or _STORE.root != default_root():
        _STORE = DiskCache(
            default_root(),
            max_bytes=_MAX_BYTES_OVERRIDE or DEFAULT_MAX_BYTES,
        )
    return _STORE


@contextmanager
def disk_scope(enabled: bool, root: Optional[Path] = None):
    """Temporarily force the disk layer on/off (optionally re-rooted)."""
    global _ROOT_OVERRIDE, _STORE
    previous_enabled = set_disk_enabled(enabled)
    previous_root = _ROOT_OVERRIDE
    if root is not None:
        _ROOT_OVERRIDE = Path(root)
        _STORE = None
    try:
        yield
    finally:
        global _ENABLED_OVERRIDE
        _ENABLED_OVERRIDE = previous_enabled
        if root is not None:
            _ROOT_OVERRIDE = previous_root
            _STORE = None


def clear_disk() -> int:
    """Delete every entry under the configured root; returns the count.

    Works even while the layer is disabled — ``repro cache clear`` must
    be able to clean up a store it is not currently reading.
    """
    store = disk_cache()
    if store is None:
        store = DiskCache(default_root())
    return store.clear()


def cache_stats() -> Dict[str, Any]:
    """JSON-able snapshot of the configured store (for ``repro cache``)."""
    store = disk_cache()
    if store is None:
        store = DiskCache(default_root())
        stats = store.stats()
        stats["enabled"] = False
        return stats
    stats = store.stats()
    stats["enabled"] = True
    return stats
