"""Outside-in layer tracer: spans around the program's public entry points.

The benchmark never edits the program.  Instead it wraps a table of
entry points (:data:`HOOKS`), each named after the module that owns it,
and records a span per call while a request is open.  A request opens
when a root hook (``api``) is called with no span open and closes when
that call returns.  Per request the spans are folded into self time per
layer (span duration minus the child spans it contains), call counts,
and the counters the hook observers keep.

A hook whose target is missing on the commit under test is reported as
``absent`` rather than failing, so later refactors keep the benchmark
runnable.  Generator functions are refused: wrapping one would time
only the creation of the generator, not its work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: The root layer: a call to one of its hooks opens a request.
ROOT = "api"

#: Layers in report order.
LAYERS = (
    "api", "workloads", "sim", "sched", "core.coalescing", "gpu.timing",
    "kernels.compiler", "backend",
)


class Span(NamedTuple):
    request: int
    span_id: int
    parent: Optional[int]
    layer: str
    fn: str
    start: float
    end: float


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    spans = list(spans)
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.layer] += (span.end - span.start) - child[span.span_id]
    return dict(out)


@dataclass
class RequestTrace:
    """One request's spans folded into per-layer totals."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    counts: Dict[str, float]

    def scaled(self, factor: float) -> "RequestTrace":
        """This trace with its times multiplied by ``factor``."""
        return RequestTrace({k: v * factor for k, v in self.self_s.items()}, self.calls,
                            self.counts)


@dataclass
class Tracer:
    """Collects spans for the requests that run while it is installed."""

    #: Requests whose raw spans are kept (for the Chrome trace).
    keep: int = 3
    requests: List[RequestTrace] = field(default_factory=list)
    kept: List[List[Span]] = field(default_factory=list)
    _stack: List[Tuple[int, str]] = field(default_factory=list)
    _spans: List[Span] = field(default_factory=list)
    _counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def parent_layer(self) -> Optional[str]:
        """The layer of the innermost open span, if any."""
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        self._counts[name] += value

    def call(self, layer: str, name: str, fn: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> Any:
        if not self._stack and layer != ROOT:
            return fn(*args, **kwargs)  # outside any request: not traced
        span_id = len(self._spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, layer))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._spans.append(Span(len(self.requests), span_id, parent, layer, name, start, end))
            if not self._stack:
                self._finish()

    def _finish(self) -> None:
        calls: Dict[str, int] = defaultdict(int)
        for span in self._spans:
            calls[span.layer] += 1
        trace = RequestTrace(self_times(self._spans), dict(calls), dict(self._counts))
        self.requests.append(trace)
        if len(self.kept) < self.keep:
            self.kept.append(sorted(self._spans, key=lambda s: s.start))
        self._spans = []
        self._counts = defaultdict(float)


# -- hook observers: counters taken where the work happens -----------------


def _memo_probe(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    """Before ``execute``/``kernel_time_ms``: was the profile memoized?"""
    if tracer.parent_layer() == "gpu.timing" or len(args) < 3:
        return
    model, compiled, launch = args[:3]
    tracer.count("gpu.timing.lookups")
    tracer.count("gpu.timing.memo_hits", model.profile_cached(compiled, launch))


def _memo_probe_batch(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    """Before ``execute_batch``: memo state of every item."""
    if tracer.parent_layer() == "gpu.timing" or len(args) < 2:
        return
    model, items = args[:2]
    for compiled, launch in items:
        tracer.count("gpu.timing.lookups")
        tracer.count("gpu.timing.memo_hits", model.profile_cached(compiled, launch))


def _count_inputs(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("workloads.input_bytes", sum(int(a.nbytes) for a in result))


def _count_idle(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("sched.decisions")
    tracer.count("sched.idle_decisions", getattr(result, "job", None) is None)


def _count_launch(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("backend.member_launches", result is not None)


def _count_batched(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("backend.batched_calls")
    if result is None:
        tracer.count("backend.fallbacks")
    else:
        tracer.count("backend.batched_members", len(result))


class Hook(NamedTuple):
    layer: str
    #: ``"module:Qualified.name"`` of the wrapped function.
    target: str
    #: Called as ``(tracer, args, None)`` before the wrapped call.
    before: Optional[Callable[[Tracer, Tuple[Any, ...], Any], None]] = None
    #: Called as ``(tracer, args, result)`` after it returns.
    after: Optional[Callable[[Tracer, Tuple[Any, ...], Any], None]] = None


HOOKS: Tuple[Hook, ...] = (
    Hook("api", "repro.api:scenario"),
    Hook("api", "repro.api:run"),
    Hook("workloads", "repro.workloads.base:WorkloadSpec.build_inputs", after=_count_inputs),
    Hook("sim", "repro.sim.engine:Environment.run"),
    Hook("sched", "repro.sched.pipeline:SchedulerPipeline.decide", after=_count_idle),
    Hook("core.coalescing", "repro.core.coalescing:KernelCoalescer.coalesce_pass"),
    Hook("core.coalescing", "repro.core.coalescing:KernelCoalescer.hold_deadline"),
    Hook("gpu.timing", "repro.gpu.timing:KernelTimingModel.execute", before=_memo_probe),
    Hook("gpu.timing", "repro.gpu.timing:KernelTimingModel.execute_batch",
         before=_memo_probe_batch),
    Hook("gpu.timing", "repro.gpu.timing:KernelTimingModel.kernel_time_ms",
         before=_memo_probe),
    Hook("kernels.compiler", "repro.kernels.compiler:KernelCompiler.compile"),
    Hook("backend", "repro.backend.api:ExecutionBackend.launch", after=_count_launch),
    Hook("backend", "repro.backend.api:ExecutionBackend.launch_batched",
         after=_count_batched),
    Hook("backend", "repro.backend.api:ExecutionBackend.h2d"),
    Hook("backend", "repro.backend.api:ExecutionBackend.d2h"),
)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for ``module:Qual.name``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


class Installation:
    """Hooks installed on the live classes; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer, hooks: Iterable[Hook] = HOOKS) -> None:
        self.status: Dict[str, str] = {}
        self._saved: List[Tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                self._install(tracer, hook)
        except BaseException:
            self.remove()
            raise

    def _install(self, tracer: Tracer, hook: Hook) -> None:
        try:
            owner, attr, fn = _resolve(hook.target)
        except (ImportError, AttributeError, KeyError):
            self.status[hook.target] = "absent"
            return
        if inspect.isgeneratorfunction(fn):
            raise TypeError(
                f"refusing to hook generator function {hook.target}: a span "
                "would time only the creation of the generator"
            )
        layer, name, before, after = hook

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None and tracer.parent_layer() is not None:
                before(tracer, args, None)
            result = tracer.call(layer, name, fn, args, kwargs)
            if after is not None and tracer.parent_layer() is not None:
                after(tracer, args, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        self.status[hook.target] = "hooked"

    def absent(self) -> List[str]:
        return sorted(t for t, s in self.status.items() if s == "absent")

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


def layer_metrics(traces: List[RequestTrace]) -> Dict[str, float]:
    """Per-layer self time, share and call rate, plus the hook ratios."""
    n = max(1, len(traces))
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for trace in traces:
        for layer, value in trace.self_s.items():
            self_s[layer] += value
        for layer, value in trace.calls.items():
            calls[layer] += value
        for name, value in trace.counts.items():
            counts[name] += value
    total = sum(self_s.values()) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_req"] = 1000.0 * self_s[layer] / n
        out[f"{layer}.share"] = self_s[layer] / total
        out[f"{layer}.calls_per_req"] = calls[layer] / n
    member_runs = counts["backend.batched_members"] + counts["backend.member_launches"]
    out["gpu.timing.memo_hit_ratio"] = _ratio(counts["gpu.timing.memo_hits"],
                                              counts["gpu.timing.lookups"])
    out["backend.batched_member_share"] = _ratio(counts["backend.batched_members"], member_runs)
    out["backend.fallback_ratio"] = _ratio(counts["backend.fallbacks"],
                                           counts["backend.batched_calls"])
    out["sched.idle_decision_ratio"] = _ratio(counts["sched.idle_decisions"],
                                              counts["sched.decisions"])
    out["workloads.input_mb_per_req"] = counts["workloads.input_bytes"] / 2 ** 20 / n
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def chrome_trace(requests: List[List[Span]]) -> Dict[str, Any]:
    """Chrome trace-event JSON: one thread per request, spans as slices."""
    events = []
    for spans in requests:
        origin = spans[0].start if spans else 0.0
        for span in spans:
            events.append({
                "name": span.fn, "cat": span.layer, "ph": "X", "pid": 1, "tid": span.request,
                "ts": (span.start - origin) * 1e6, "dur": (span.end - span.start) * 1e6,
                "args": {"span": span.span_id, "parent": span.parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
