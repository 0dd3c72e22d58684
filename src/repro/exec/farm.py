"""The ScenarioFarm: coarse-grain parallelism over independent simulations.

Both parallel-simulator lines of work this PR follows (parallelizing a
modern GPU simulator; parallel SystemC virtual platforms) get their
throughput from the same observation: *independent simulations need no
synchronization*.  A sweep point, a figure's bar, or a Table-1 route is
one self-contained discrete-event simulation; the farm runs many of them
concurrently in worker processes.

Design:

* **Jobs are descriptions, not closures.**  A :class:`FarmJob` names a
  module-level function (``"package.module:function"``) plus JSON-able
  keyword arguments, so every job pickles trivially and has a stable
  **config-hash key** — the sha256 of the function reference and the
  canonical-JSON encoding of its arguments.  The key doubles as the
  source of the job's **deterministic seed**, so a scenario's randomness
  never depends on which worker ran it or in what order.
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
import inspect
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

# The config-hash / seed algorithm lives in repro.obs.export so exported
# trace and metrics stamps are byte-identical to farm job identities
# (one source of truth).
from ..obs import capture as _obs_capture
from ..obs import metrics as _obs_metrics
from ..obs.export import canonical_json, config_key, seed_for

__all__ = [
    "FarmJob",
    "FarmResult",
    "run_job",
    "warm_worker",
    "results_digest",
    "ScenarioFarm",
]


@dataclass(frozen=True)
class FarmJob:
    """One independent scenario run, described portably.

    ``fn`` is a ``"module.path:function"`` reference so the job can be
    pickled to any worker (and hashed) without capturing closures;
    ``kwargs`` must be JSON-able for the same reason.
    """

    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(
                f"fn must be a 'module:function' reference, got {self.fn!r}"
            )

    @property
    def key(self) -> str:
        """Config-hash identity: stable across processes and sessions."""
        return config_key(self.fn, self.kwargs)

    @property
    def seed(self) -> int:
        """Deterministic per-job seed derived from the config hash."""
        return seed_for(self.key)


@dataclass(frozen=True)
class FarmResult:
    """Outcome of one farm job.

    ``trace`` and ``metrics`` are populated only when the farm ran with
    observability capture on (``capture_obs=True``): the worker's trace
    buffer payload and metrics snapshot, serialized through the normal
    result channel.  Both are excluded from :func:`results_digest`, so
    capturing never perturbs digest equality.
    """

    job_key: str
    fn: str
    label: str
    value: Any
    duration_s: float
    worker_pid: int
    trace: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None


#: Per-process memo of resolved job functions and their seed-awareness.
_fn_cache: Dict[str, tuple] = {}

#: Per-process flag: when ``True`` each :func:`run_job` runs inside a
#: fresh observability capture and ships the buffers back on the result.
#: Set by the pool initializer in workers, or directly in serial mode.
_CAPTURE_OBS = False


def set_capture(on: bool) -> None:
    """Turn per-job observability capture on/off in *this* process."""
    global _CAPTURE_OBS
    _CAPTURE_OBS = bool(on)


def _resolve(fn_ref: str) -> tuple:
    cached = _fn_cache.get(fn_ref)
    if cached is not None:
        return cached
    module_name, _, attr = fn_ref.partition(":")
    fn: Callable = getattr(importlib.import_module(module_name), attr)
    takes_seed = "seed" in inspect.signature(fn).parameters
    _fn_cache[fn_ref] = (fn, takes_seed)
    return fn, takes_seed


def run_job(job: FarmJob) -> FarmResult:
    """Execute one job in the current process (worker or serial mode).

    With capture on (:func:`set_capture`), the job runs inside its own
    observability window — a fresh tracer and metrics registry scoped to
    exactly this job — and the result carries their payloads.  Each
    worker's span ids start at zero; the parent re-bases them when
    merging (:func:`repro.obs.aggregate.rebase_payloads`).
    """
    fn, takes_seed = _resolve(job.fn)
    kwargs = dict(job.kwargs)
    if takes_seed and "seed" not in kwargs:
        kwargs["seed"] = job.seed
    trace_payload: Optional[Dict[str, Any]] = None
    metrics_payload: Optional[Dict[str, Any]] = None
    started = time.perf_counter()
    if _CAPTURE_OBS:
        with _obs_capture() as window:
            with _obs_metrics.timed("farm.run_job"):
                value = fn(**kwargs)
        trace_payload = window.trace_payload()
        metrics_payload = window.metrics_payload()
    else:
        value = fn(**kwargs)
    return FarmResult(
        job_key=job.key,
        fn=job.fn,
        label=job.label or job.fn.rpartition(":")[2],
        value=value,
        duration_s=time.perf_counter() - started,
        worker_pid=os.getpid(),
        trace=trace_payload,
        metrics=metrics_payload,
    )


def warm_worker() -> None:
    """Pre-compile the workload catalog's kernels in this process.

    Populates the shared default compiler for the standard architectures
    so the first job starts from the same warm-compile state as every
    later one.  Called by :func:`repro.api.run`, by the daemon before it
    forks workers, by the farm's serial path and by the pool initializer
    :func:`_init_worker` (which arms observability capture only after
    warming, so warm-up compiles never pollute job metrics).
    """
    from ..gpu.arch import GRID_K520, QUADRO_4000, TEGRA_K1
    from ..kernels.compiler import compile_kernel
    from ..workloads import SUITE

    for spec in SUITE.values():
        for arch in (QUADRO_4000, GRID_K520, TEGRA_K1):
            compile_kernel(spec.kernel, arch)


def _init_worker(capture_obs: bool = False, warm: bool = True) -> None:
    """Pool initializer: optional warm-up, then capture."""
    if warm:
        warm_worker()
    if capture_obs:
        set_capture(True)


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
    before the call returns: workers are configured and warmed by the
    pool initializer, so a farm object holds no processes between calls
    and needs no closing.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        warmup: bool = True,
        capture_obs: bool = False,
    ):
        requested = os.cpu_count() or 1 if workers is None else workers
        if requested < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.requested_workers = requested
        self.workers = requested if (requested == 1 or self._can_fork()) else 1
        self.warmup = warmup
        self.capture_obs = capture_obs

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
            if self.warmup:
                warm_worker()
            if not self.capture_obs:
                return [run_job(job) for job in jobs]
            # Serial capture goes through the identical flag + run_job
            # path as workers do, restoring the caller's state after.
            previous = _CAPTURE_OBS
            set_capture(True)
            try:
                return [run_job(job) for job in jobs]
            finally:
                set_capture(previous)
        # Chunked submission: a few chunks per worker balances scheduling
        # freedom (uneven job durations) against per-submission IPC.
        chunk = max(1, len(jobs) // (self.workers * 4))
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(jobs)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(self.capture_obs, self.warmup),
        ) as pool:
            return list(pool.map(run_job, jobs, chunksize=chunk))

    def map_values(self, jobs: Sequence[FarmJob]) -> List[Any]:
        """Like :meth:`map` but returns just each job's value."""
        return [result.value for result in self.map(jobs)]
