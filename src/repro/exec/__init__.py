"""Parallel scenario execution: the simulation farm.

Every figure, table, and sweep of this reproduction is a collection of
*independent* simulations — separate :class:`~repro.sim.Environment`
instances that share no state.  This package runs named jobs and
returns their values: :class:`ScenarioFarm` fans them out over a process
pool, and every :class:`FarmJob` carries a frozen tag
(:data:`~repro.exec.farm.JOB_HOMES` maps it to the function that runs
it) with a config-hash identity.  Results are compared by digest
(:func:`results_digest`), which is how the tests check that serial and
parallel runs agree bit for bit.

The dependency runs one way: :mod:`repro.api` and :mod:`repro.analysis`
build jobs and import this package; nothing here imports them.  Host
speed is not measured here: the benchmark of record lives outside the
package, in ``bench/`` (``python3 bench/run.py``).  Cache control for
the hot-path memoization the farm leans on is :mod:`repro.caching`; the
config-hash and seed algorithm is :mod:`repro.obs.export`.
"""

from .farm import FarmJob, FarmResult, ScenarioFarm, results_digest

__all__ = [
    "FarmJob",
    "FarmResult",
    "ScenarioFarm",
    "results_digest",
]
