"""The ScenarioFarm: coarse-grain parallelism over independent simulations.

Both parallel-simulator lines of work this farm follows (parallelizing a
modern GPU simulator; parallel SystemC virtual platforms) get their
throughput from the same observation: *independent simulations need no
synchronization*.  A sweep point, a figure's bar, or a Table-1 route is
one self-contained discrete-event simulation; the farm runs many of them
concurrently in worker processes and returns each one's value.

Design:

* **Jobs are descriptions, not closures.**  A :class:`FarmJob` names a
  job by a frozen **tag** plus JSON-able keyword arguments, so every job
  pickles trivially and has a stable **config-hash key** — the sha256 of
  the tag and the canonical-JSON encoding of its arguments.  The key
  names the job in every results digest and derives its run-stamp seed;
  a scenario's inputs are seeded by VP index, never by which worker ran
  it or in what order.
* **Tags are not import paths.**  :data:`JOB_HOMES` maps each tag to the
  ``"module:function"`` that runs it today.  A function can move without
  moving a config hash, seed or digest: only its home in the table
  changes.
* **Workers warm up once.**  Pool initializers pre-compile the workload
  catalog's kernels for the standard architectures into the process's
  shared compiler, so the first real job does not pay cold-compile cost.
* **Chunked submission** amortizes IPC for large job lists.
* **Serial fallback.**  ``workers=1`` (or a platform without ``fork``)
  runs jobs in-process through the *same* code path, which is what makes
  the ``workers=1`` vs ``workers=N`` digest-equality guarantee testable.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

# The config-hash / seed algorithm lives in repro.obs.export so exported
# trace and metrics stamps are byte-identical to farm job identities
# (one source of truth).
from ..obs import metrics as _obs_metrics
from ..obs.export import canonical_json, config_key, seed_for

__all__ = [
    "JOB_HOMES",
    "FarmJob",
    "FarmResult",
    "run_job",
    "warm_worker",
    "results_digest",
    "ScenarioFarm",
]

#: Job tag -> the ``"module:function"`` that runs it.  A tag enters every
#: config hash, seed and digest of its jobs, so it is frozen as written;
#: the ``repro.exec.jobs`` prefix is part of the tag, not a module.
JOB_HOMES: Dict[str, str] = {
    "repro.exec.jobs:scenario_summary": "repro.api:scenario_summary",
    "repro.exec.jobs:phase_point": "repro.core.scenarios:phase_point",
    "repro.exec.jobs:fig9a_point": "repro.analysis.figures:fig9a_point",
    "repro.exec.jobs:fig9b_point": "repro.analysis.figures:fig9b_point",
    "repro.exec.jobs:fig10a_point": "repro.analysis.figures:fig10a_point",
    "repro.exec.jobs:fig11_point": "repro.analysis.figures:fig11_point",
    "repro.exec.jobs:fig12_point": "repro.analysis.figures:fig12_point",
    "repro.exec.jobs:fig13_point": "repro.analysis.figures:fig13_point",
    "repro.exec.jobs:table1_route": "repro.analysis.tables:table1_route",
    "repro.exec.jobs:sweep_point": "repro.analysis.sweeps:sweep_point",
}


@dataclass(frozen=True)
class FarmJob:
    """One independent scenario run, described portably.

    ``fn`` is a job tag (a key of :data:`JOB_HOMES`), so the job can be
    pickled to any worker (and hashed) without capturing closures;
    ``kwargs`` must be JSON-able for the same reason.
    """

    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.fn not in JOB_HOMES:
            raise ValueError(
                f"unknown job tag {self.fn!r}; known: {', '.join(sorted(JOB_HOMES))}"
            )

    @property
    def key(self) -> str:
        """Config-hash identity: stable across processes and sessions."""
        return config_key(self.fn, self.kwargs)

    @property
    def seed(self) -> int:
        """Deterministic run-stamp seed derived from the config hash."""
        return seed_for(self.key)


@dataclass(frozen=True)
class FarmResult:
    """Outcome of one farm job."""

    job_key: str
    value: Any
    duration_s: float
    worker_pid: int


def _resolve(tag: str) -> Callable[..., Any]:
    module_name, _, attr = JOB_HOMES[tag].partition(":")
    fn: Callable[..., Any] = getattr(importlib.import_module(module_name), attr)
    return fn


def run_job(job: FarmJob) -> FarmResult:
    """Execute one job in the current process (worker or serial mode).

    Inside an observability capture the call is self-profiled into
    ``selfprof.farm.run_job_s``; with obs off the timer is one attribute
    check.
    """
    fn = _resolve(job.fn)
    started = time.perf_counter()
    with _obs_metrics.timed("farm.run_job"):
        value = fn(**job.kwargs)
    return FarmResult(
        job_key=job.key,
        value=value,
        duration_s=time.perf_counter() - started,
        worker_pid=os.getpid(),
    )


def warm_worker() -> None:
    """Pre-compile the workload catalog's kernels in this process.

    Populates the shared default compiler for the standard architectures
    so the first job starts from the same warm-compile state as every
    later one.  Called by :func:`repro.api.run`, by the daemon before it
    forks workers, by the farm's serial path and as the farm's pool
    initializer.
    """
    from ..gpu.arch import GRID_K520, QUADRO_4000, TEGRA_K1
    from ..kernels.compiler import compile_kernel
    from ..workloads import SUITE

    for spec in SUITE.values():
        for arch in (QUADRO_4000, GRID_K520, TEGRA_K1):
            compile_kernel(spec.kernel, arch)


def results_digest(results: Sequence[FarmResult]) -> str:
    """Digest of (job key, value) pairs, independent of completion order."""
    payload = canonical_json(
        sorted([(r.job_key, r.value) for r in results], key=lambda kv: kv[0])
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ScenarioFarm:
    """Runs batches of :class:`FarmJob` over a process pool.

    ``workers=1`` — or any platform without the ``fork`` start method —
    degrades gracefully to in-process serial execution of the identical
    job code path.  Results always come back in submission order.

    Each parallel :meth:`map` call forks its own pool, which is shut down
    before the call returns: workers are warmed by the pool initializer,
    so a farm object holds no processes between calls and needs no
    closing.
    """

    def __init__(self, workers: Optional[int] = None):
        requested = os.cpu_count() or 1 if workers is None else workers
        if requested < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.requested_workers = requested
        self.workers = requested if (requested == 1 or self._can_fork()) else 1

    @staticmethod
    def _can_fork() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def __repr__(self) -> str:
        return f"<ScenarioFarm workers={self.workers}>"

    def map(self, jobs: Sequence[FarmJob]) -> List[FarmResult]:
        """Run every job; results in submission order."""
        jobs = list(jobs)
        if not jobs:
            return []
        if self.workers == 1 or len(jobs) == 1:
            warm_worker()
            return [run_job(job) for job in jobs]
        # Chunked submission: a few chunks per worker balances scheduling
        # freedom (uneven job durations) against per-submission IPC.
        chunk = max(1, len(jobs) // (self.workers * 4))
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(jobs)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=warm_worker,
        ) as pool:
            return list(pool.map(run_job, jobs, chunksize=chunk))

    def map_values(self, jobs: Sequence[FarmJob]) -> List[Any]:
        """Like :meth:`map` but returns just each job's value."""
        return [result.value for result in self.map(jobs)]
