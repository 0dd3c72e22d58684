"""The metrics registry: counters, gauges, and deterministic histograms.

Complements the tracer with aggregate numbers: how many events the sim
loop processed, how deep the Job Queue ran, how often the compile/timing
memo caches hit, what fraction of kernels the coalescer merged, and how
much host wall-clock the simulator's own hot paths cost (self-profiling).

Three metric kinds, mirroring the Prometheus vocabulary both related
parallel-simulator codebases report through:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a last-written value (utilizations, horizon);
* :class:`Histogram` — counts over **fixed, deterministic bucket
  edges**.  Edges are part of the metric's identity and never derived
  from the data, so two runs of the same scenario produce bit-identical
  snapshots and farm workers' histograms merge by plain bucket-wise
  addition.

Like the tracer, the registry is disabled by default: the module-level
:data:`REGISTRY` is ``None`` and hot paths guard with a single ``if
metrics_mod.REGISTRY is not None`` check, so the disabled mode adds no
allocations to the simulation.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple, Union

#: The active registry, or ``None`` when metrics collection is off.
REGISTRY: Optional["MetricsRegistry"] = None

#: Default edges for simulated-duration histograms (milliseconds).
MS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 5000.0,
)

#: Default edges for queue-depth / batch-size histograms.
DEPTH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Default edges for host wall-clock self-profiling (seconds).
WALL_S_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Bucketed observations over fixed edges.

    ``counts[i]`` counts observations ``<= edges[i]``; the final slot
    counts overflows.  Edges are fixed at construction — determinism and
    cross-process mergeability both depend on that.
    """

    __slots__ = ("edges", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, edges: Tuple[float, ...] = MS_BUCKETS) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram edges must be sorted, got {edges!r}")
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        # bisect_left gives Prometheus ``le`` semantics: a value equal
        # to an edge counts in that edge's bucket, not the next one.
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name-keyed store of metrics, created on first touch.

    Metric names are dotted paths (``engine.gpu0/compute.busy_ms``); the
    snapshot is sorted by name so its canonical-JSON encoding is stable.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter()
        return metric  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge()
        return metric  # type: ignore[return-value]

    def histogram(self, name: str, edges: Tuple[float, ...] = MS_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(edges)
        return metric  # type: ignore[return-value]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able, name-sorted dump of every metric."""
        return {
            name: self._metrics[name].snapshot() for name in sorted(self._metrics)
        }

    def clear(self) -> None:
        self._metrics.clear()


def enabled() -> bool:
    return REGISTRY is not None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    global REGISTRY
    REGISTRY = registry if registry is not None else MetricsRegistry()
    return REGISTRY


def disable() -> Optional[MetricsRegistry]:
    global REGISTRY
    previous, REGISTRY = REGISTRY, None
    return previous


# -- wall-clock self-profiling of simulator hot paths -----------------------


class _Timed:
    """Context manager timing one block into ``selfprof.<name>`` (seconds)."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timed":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class _Null:
    """Shared no-op context manager: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_Null":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL = _Null()


def timed(name: str) -> Union[_Timed, _Null]:
    """Time a block of host wall-clock into ``selfprof.<name>_s``.

    Returns a shared no-op context manager when metrics are disabled, so
    ``with timed("farm.run_job"):`` costs one attribute check and no
    allocation on the disabled path.
    """
    registry = REGISTRY
    if registry is None:
        return _NULL
    return _Timed(registry.histogram(f"selfprof.{name}_s", WALL_S_BUCKETS))


# -- end-of-run framework collection ----------------------------------------


def collect_framework(framework: Any, registry: Optional[MetricsRegistry] = None) -> None:
    """Record a finished :class:`~repro.core.framework.SigmaVP` run.

    Reads only public state (duck-typed, so no import cycle with
    ``repro.core``): per-engine busy/utilization gauges, per-VP elapsed
    times, IPC totals, coalescer merge rates, and the compile/profile
    memo hit counts.  Counters accumulate across frameworks collected
    into one registry; gauges describe the most recent run.

    Also emits per-VP lifetime spans to the active tracer (lane
    ``vp/<name>``, category ``vp``) so exported traces carry one track
    per virtual platform.
    """
    registry = registry if registry is not None else REGISTRY
    if registry is None:
        return
    from . import tracer as tracer_mod  # local: keep module load light

    env_now = framework.env.now
    registry.counter("framework.runs").inc()
    registry.gauge("sim.horizon_ms").set(env_now)
    registry.gauge("sim.pending_events").set(framework.env.pending)

    gpus = list(getattr(framework, "gpus", ()))
    for index, gpu in enumerate(gpus):
        prefix = f"gpu{index}"
        for role, engine in (
            ("h2d", gpu.h2d_engine),
            ("compute", gpu.compute_engine),
            ("d2h", gpu.d2h_engine),
        ):
            registry.gauge(f"engine.{prefix}/{role}.busy_ms").set(engine.busy_ms)
            registry.gauge(f"engine.{prefix}/{role}.utilization").set(
                engine.utilization(env_now)
            )
            registry.counter(f"engine.{prefix}/{role}.ops").inc(
                len(engine.timeline)
            )
        # Compile/profile cache hit/miss counters are recorded live at
        # the memo sites (kernels.compiler / gpu.timing), so they cover
        # every execution route, not just framework runs.

    ipc = getattr(framework, "ipc", None)
    if ipc is not None:
        registry.counter("ipc.messages").inc(ipc.messages_sent)
        registry.counter("ipc.bytes").inc(ipc.bytes_transferred)

    queue = getattr(framework, "queue", None)
    if queue is not None:
        registry.counter("jobqueue.enqueued").inc(queue.total_enqueued)

    coalescer = getattr(framework, "coalescer", None)
    if coalescer is not None:
        stats = coalescer.stats
        registry.counter("coalesce.merges").inc(stats.merges)
        registry.counter("coalesce.kernels_coalesced").inc(stats.kernels_coalesced)
        registry.counter("coalesce.copies_merged").inc(stats.copies_merged)
        batches = registry.histogram("coalesce.batch_size", DEPTH_BUCKETS)
        for size in stats.batch_sizes:
            batches.observe(size)

    profiler = getattr(framework, "profiler", None)
    if profiler is not None:
        registry.counter("profiler.records").inc(len(profiler))

    tracer = tracer_mod.TRACER
    sessions = getattr(framework, "sessions", {})
    for name in sorted(sessions):
        vp = sessions[name].vp
        start = vp.started_at_ms
        end = vp.finished_at_ms if vp.finished_at_ms is not None else env_now
        registry.gauge(f"vp.{name}.elapsed_ms").set(
            (end - start) if start is not None else 0.0
        )
        registry.counter(f"vp.{name}.stops").inc(vp.stop_count)
        if tracer is not None and start is not None:
            tracer.span(
                f"vp/{name}", name, start, end, cat="vp",
                args={"vp": name, "stops": vp.stop_count},
            )

    from . import account as account_mod  # local: keep module load light

    account_mod.collect_accounts(framework, registry)
