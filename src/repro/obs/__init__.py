"""``repro.obs`` — end-to-end simulation tracing, metrics, accounting, export.

The observability layer for the whole stack:

* :mod:`.tracer` — spans and instant events from the sim engine, the
  GPU copy/compute engines, dispatcher decisions, the coalescer, IPC
  channels, and VP control; module-level no-op fast path when disabled;
* :mod:`.metrics` — counters / gauges / deterministic-bucket
  histograms, plus wall-clock self-profiling of simulator hot paths;
* :mod:`.export` — Chrome/Perfetto ``trace_event`` JSON and stamped
  metrics snapshots (every artifact carries the run's config hash and
  seed);
* :mod:`.aggregate` — schema validation and per-lane span counts of
  exported traces;
* :mod:`.account` — per-VP accounting (jobs, coalesced jobs, busy and
  wait time, guest CPU, deadlines) read from a finished run's
  completed log.

Instrumented modules follow one convention::

    from ..obs import tracer as _obs_trace

    if _obs_trace.TRACER is not None:          # one attr check when off
        _obs_trace.TRACER.span(...)

The :func:`capture` context manager is the one-stop entry point: it
installs a fresh tracer and registry, runs the block, restores the
previous state, and exposes the collected payloads.  It is the one
capture path: ``repro trace`` and ``repro metrics`` run their scenario
in-process inside it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from . import metrics as _metrics_mod
from . import tracer as _tracer_mod
from .account import VPUsage, collect_accounts, jain_index, render_accounts
from .aggregate import span_counts_by_lane, validate_chrome_trace
from .export import (
    config_key,
    git_commit,
    metrics_snapshot,
    render_metrics,
    run_stamp,
    seed_for,
    to_chrome_trace,
    write_metrics,
    write_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_framework,
    timed,
)
from .tracer import Tracer

__all__ = [
    "Capture",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "VPUsage",
    "capture",
    "collect_accounts",
    "collect_framework",
    "config_key",
    "disable",
    "enable",
    "enabled",
    "git_commit",
    "jain_index",
    "metrics_snapshot",
    "render_accounts",
    "render_metrics",
    "run_stamp",
    "seed_for",
    "span_counts_by_lane",
    "timed",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_metrics",
    "write_trace",
]


def enabled() -> bool:
    """Whether either the tracer or the metrics registry is active."""
    return _tracer_mod.TRACER is not None or _metrics_mod.REGISTRY is not None


def enable() -> "Capture":
    """Install a fresh tracer and registry; returns a live capture."""
    return Capture().start()


def disable() -> None:
    """Deactivate both the tracer and the metrics registry."""
    _tracer_mod.disable()
    _metrics_mod.disable()


class Capture:
    """One observability collection window (tracer + metrics together)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self._previous: Optional[tuple] = None

    def start(self) -> "Capture":
        self._previous = (_tracer_mod.TRACER, _metrics_mod.REGISTRY)
        _tracer_mod.enable(self.tracer)
        _metrics_mod.enable(self.registry)
        return self

    def stop(self) -> "Capture":
        if self._previous is not None:
            previous_tracer, previous_registry = self._previous
            self._previous = None
            if previous_tracer is None:
                _tracer_mod.disable()
            else:
                _tracer_mod.enable(previous_tracer)
            if previous_registry is None:
                _metrics_mod.disable()
            else:
                _metrics_mod.enable(previous_registry)
        return self

    def __enter__(self) -> "Capture":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- collected artifacts ------------------------------------------------

    def trace_payload(self) -> Dict[str, Any]:
        return self.tracer.to_payload()

    def metrics_payload(self) -> Dict[str, Any]:
        return self.registry.snapshot()


def capture() -> Capture:
    """``with capture() as cap:`` — trace + meter the enclosed block."""
    return Capture()
