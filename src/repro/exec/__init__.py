"""Parallel scenario execution: the simulation farm.

Every figure, table, and sweep of this reproduction is a collection of
*independent* simulations — separate :class:`~repro.sim.Environment`
instances that share no state.  This package fans those scenario points
out over a process pool (:class:`ScenarioFarm`), gives every job a
config-hash identity and a deterministic seed (:class:`FarmJob`), and
provides the pinned benchmark-regression harness (``repro bench``,
:mod:`repro.exec.bench`) that tracks the wall-clock trajectory of the
whole stack in ``BENCH_*.json`` files.

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
from .bench import (
    BenchDigestError,
    BenchOverheadError,
    render_report,
    run_bench,
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
from .trajectory import (
    TrajectoryError,
    TrajectoryPoint,
    TrajectoryRegressionError,
    render_trajectory,
    write_trajectory,
)
from .trajectory import build as build_trajectory

__all__ = [
    "BenchDigestError",
    "BenchOverheadError",
    "TrajectoryError",
    "TrajectoryPoint",
    "TrajectoryRegressionError",
    "build_trajectory",
    "render_trajectory",
    "write_trajectory",
    "render_report",
    "run_bench",
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
