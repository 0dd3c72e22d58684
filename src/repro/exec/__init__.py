"""Parallel scenario execution: the simulation farm.

Every figure, table, and sweep of this reproduction is a collection of
*independent* simulations — separate :class:`~repro.sim.Environment`
instances that share no state.  This package fans those scenario points
out over a process pool (:class:`ScenarioFarm`), gives every job a
config-hash identity and a deterministic seed (:class:`FarmJob`), and
names the scenario points those jobs run (:mod:`repro.exec.jobs`).
Results are compared by digest (:func:`results_digest`), which is how
the tests check that serial and parallel runs agree bit for bit.

Host speed is not measured here: the benchmark of record lives outside
the package, in ``bench/`` (``python3 bench/run.py``).

Cache control for the hot-path memoization the farm leans on lives in
:mod:`repro.caching` (re-exported here for convenience).
"""

from ..caching import (
    cache_scope,
    caches_enabled,
    clear_all_caches,
    register_cache_clearer,
    set_caches_enabled,
)
from .farm import (
    FarmJob,
    FarmResult,
    ScenarioFarm,
    canonical_json,
    config_key,
    results_digest,
    seed_for,
)

__all__ = [
    "FarmJob",
    "FarmResult",
    "ScenarioFarm",
    "canonical_json",
    "config_key",
    "results_digest",
    "seed_for",
    "cache_scope",
    "caches_enabled",
    "clear_all_caches",
    "register_cache_clearer",
    "set_caches_enabled",
]
