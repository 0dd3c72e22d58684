"""Exporters: Chrome/Perfetto ``trace_event`` JSON and metrics snapshots.

The trace exporter emits the `Trace Event Format`_ consumed by
``chrome://tracing`` and by Perfetto's legacy-JSON importer
(ui.perfetto.dev opens these files directly):

* every **engine span** appears twice — once on its host-GPU engine
  track (process ``gpu<d>``, threads h2d / compute / d2h) and once on
  the submitting VP's track (process ``vp:<name>``, same three threads)
  — so the same busy interval can be read machine-centric *or*
  guest-centric;
* **scheduler decisions** (dispatch picks, reorders, coalescer merges,
  VP stop/resume) are instant events on a ``decisions`` track;
* simulated milliseconds map to trace microseconds (the format's native
  unit), so durations read naturally in the viewer.

Every exported file carries a **run stamp** — the scenario's
config-hash key (the scenario farm's job identity: sha256 over the job
tag and the canonical-JSON kwargs) plus the derived seed — so any
artifact on disk is attributable to an exact, re-runnable
configuration.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .metrics import MetricsRegistry
from .tracer import Tracer

#: pid spacing between the sources of one exported trace: each source's
#: process ids live in their own block so tracks never collide.
PID_STRIDE = 1000

#: Engine-role thread ids, fixed so tracks sort h2d, compute, d2h.
ROLE_TIDS = {"h2d": 1, "compute": 2, "d2h": 3}


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr-exact floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_key(fn: str, kwargs: Dict[str, Any]) -> str:
    """The farm's config-hash identity for one job description.

    This is byte-for-byte the :attr:`repro.exec.farm.FarmJob.key`
    algorithm (the farm imports it from here), so a trace captured by
    ``repro trace`` and a farm job running the same scenario stamp the
    same hash.
    """
    payload = f"{fn}|{canonical_json(kwargs)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def seed_for(key: str) -> int:
    """Deterministic seed derived from a config-hash key (farm rule)."""
    return int(key[:8], 16) % (2**31 - 1)


@lru_cache(maxsize=1)
def git_commit() -> str:
    """The working tree's HEAD commit hash, best-effort.

    Empty outside a git repository (or when git itself is unavailable) —
    artifacts must still export from a tarball checkout.  Cached for the
    process lifetime: artifacts written by one run all came from one
    revision.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_stamp(
    fn: str,
    kwargs: Dict[str, Any],
    seed: Optional[int] = None,
    label: str = "",
) -> Dict[str, Any]:
    """Attributability header for exported artifacts.

    Carries both the *configuration* identity (config hash + seed: what
    was run) and the *code* identity (``git_commit``: which revision ran
    it) so every artifact on disk maps to an exact, re-runnable point.
    """
    key = config_key(fn, kwargs)
    return {
        "tool": "repro.obs",
        "schema": 1,
        "fn": fn,
        "config": dict(kwargs),
        "config_hash": key,
        "seed": seed if seed is not None else seed_for(key),
        "label": label or fn.rpartition(":")[2],
        "git_commit": git_commit(),
    }


TracePayload = Dict[str, Any]
TraceSource = Union[Tracer, TracePayload]


def _payload(source: TraceSource) -> TracePayload:
    return source.to_payload() if isinstance(source, Tracer) else source


class _TrackTable:
    """Allocates (pid, tid) pairs and their metadata events."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self.metadata: List[dict] = []

    def pid(self, base: int, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = base + len(self._pids) + 1
            self._pids[process] = pid
            self.metadata.append({
                "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": process},
            })
        return pid

    def tid(self, pid: int, thread: str, fixed: Optional[int] = None) -> int:
        tid = self._tids.get((pid, thread))
        if tid is None:
            if fixed is not None:
                tid = fixed
            else:
                # Non-engine threads are numbered from 10, above the
                # fixed engine-role tids.
                used = {t for (p, _), t in self._tids.items() if p == pid}
                tid = 10
                while tid in used:
                    tid += 1
            self._tids[(pid, thread)] = tid
            self.metadata.append({
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": thread},
            })
        return tid


def _engine_tracks(args: Optional[dict], lane: str) -> List[Tuple[str, str]]:
    """(process, thread) placements for one engine span."""
    role = (args or {}).get("role")
    if role not in ROLE_TIDS:
        for candidate in ROLE_TIDS:
            if candidate in lane:
                role = candidate
                break
        else:
            return [("host", lane)]
    device = (args or {}).get("device", 0)
    tracks = [(f"gpu{device}", role)]
    vp = (args or {}).get("vp")
    if vp is not None:
        if (args or {}).get("members"):
            # Merged jobs carry a synthetic per-merge VP name
            # (``coalesced#N``); fold them onto one shared track — the
            # real member VPs stay listed in the span args.
            vp = "coalesced"
        tracks.append((f"vp:{vp}", role))
    return tracks


def to_chrome_trace(
    sources: Sequence[Tuple[str, TraceSource]],
    stamp: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert one or more trace buffers to one Chrome/Perfetto JSON dict.

    ``sources`` is a sequence of ``(label, tracer_or_payload)`` pairs;
    each source gets its own pid block (:data:`PID_STRIDE`) and its span
    ids are re-based onto one monotonic sequence, so separate captures
    (each starting its ids at zero) share one file without collisions.
    """
    events: List[dict] = []
    tracks = _TrackTable()
    next_id = 0

    for index, (label, source) in enumerate(sources):
        payload = _payload(source)
        base = index * PID_STRIDE
        prefix = f"{label}/" if len(sources) > 1 and label else ""

        for span in payload.get("spans", ()):
            args = span.get("args") or {}
            cat = span["cat"]
            placements = (
                _engine_tracks(args, span["lane"])
                if cat == "engine"
                else [(span["lane"], span["lane"].rpartition("/")[2] or "main")]
            )
            for process, thread in placements:
                pid = tracks.pid(base, prefix + process)
                tid = tracks.tid(pid, thread, ROLE_TIDS.get(thread))
                events.append({
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "cat": cat,
                    "name": span["name"],
                    "ts": span["start_ms"] * 1000.0,
                    "dur": (span["end_ms"] - span["start_ms"]) * 1000.0,
                    "args": {**args, "span_id": next_id, "job_label": label},
                })
            next_id += 1

        for instant in payload.get("instants", ()):
            args = instant.get("args") or {}
            pid = tracks.pid(base, prefix + "decisions")
            tid = tracks.tid(pid, instant["lane"])
            events.append({
                "ph": "i",
                "s": "p",
                "pid": pid,
                "tid": tid,
                "cat": instant["cat"],
                "name": instant["name"],
                "ts": instant["ts_ms"] * 1000.0,
                "args": {**args, "span_id": next_id, "job_label": label},
            })
            next_id += 1

    return {
        "traceEvents": tracks.metadata + events,
        "displayTimeUnit": "ms",
        "otherData": dict(stamp or {}),
    }


def write_trace(
    path: Union[str, Path],
    sources: Sequence[Tuple[str, TraceSource]],
    stamp: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a Chrome/Perfetto trace JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(sources, stamp), indent=1) + "\n")
    return path


def metrics_snapshot(
    registry: Union[MetricsRegistry, Dict[str, Any]],
    stamp: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Flat, stamped, JSON-able dump of a metrics registry."""
    snap = (
        registry.snapshot()
        if isinstance(registry, MetricsRegistry)
        else dict(registry)
    )
    return {
        "schema": "repro.obs.metrics/1",
        "stamp": dict(stamp or {}),
        "metrics": snap,
    }


def write_metrics(
    path: Union[str, Path],
    registry: Union[MetricsRegistry, Dict[str, Any]],
    stamp: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a stamped metrics JSON snapshot; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_snapshot(registry, stamp), indent=1) + "\n")
    return path


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """Human-readable metrics table (``repro metrics``)."""
    metrics = snapshot.get("metrics", snapshot)
    lines = []
    stamp = snapshot.get("stamp") or {}
    if stamp:
        lines.append(
            f"run {stamp.get('label', '?')}  config_hash={stamp.get('config_hash')}"
            f"  seed={stamp.get('seed')}"
        )
    width = max((len(name) for name in metrics), default=4)
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("type", "?")
        if kind == "histogram":
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            detail = f"count={entry['count']} sum={entry['sum']:.6g} mean={mean:.6g}"
        else:
            detail = f"{entry['value']:.6g}"
        lines.append(f"{name.ljust(width)}  {kind:<9}  {detail}")
    return "\n".join(lines)
