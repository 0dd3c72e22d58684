"""Global cache control for the hot-path memoization layers.

The simulator memoizes pure derived values in three places — compiled
kernels (:mod:`repro.kernels.compiler`), execution profiles
(:mod:`repro.gpu.timing`) and MonteCarlo's fixed-seed growth factor
(:mod:`repro.workloads.finance`).  Every cache returns values bit-identical to a
fresh computation, so caching is purely a wall-clock optimisation and
can be switched off globally.  The switch stays for the tests: the
uncached path is their oracle, and a scenario run under
``cache_scope(False)`` must give the same digest as the cached run.

These memos are the only cache tier.  They live and die with the
process: nothing is persisted, so a fresh process always recomputes
from the current model and can never be served a stale value.

The module sits below every other package (no repro imports) so any
layer may depend on it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List

_enabled = True

#: Clearer callbacks registered by each caching layer.
_clearers: List[Callable[[], None]] = []


def caches_enabled() -> bool:
    """Whether the memoization layers may serve cached values."""
    return _enabled


def set_caches_enabled(enabled: bool) -> bool:
    """Switch all memoization layers on/off; returns the previous state.

    Disabling also clears every registered cache so a later re-enable
    starts cold, exactly as a fresh process would.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    if not _enabled:
        clear_all_caches()
    return previous


@contextmanager
def cache_scope(enabled: bool):
    """Temporarily force caches on or off (the tests' uncached oracle)."""
    previous = set_caches_enabled(enabled)
    try:
        yield
    finally:
        set_caches_enabled(previous)


def register_cache_clearer(clearer: Callable[[], None]) -> Callable[[], None]:
    """Register a callback that empties one cache; returns it unchanged."""
    _clearers.append(clearer)
    return clearer


def clear_all_caches() -> None:
    """Empty every registered cache (cold-start state)."""
    for clearer in _clearers:
        clearer()
