"""Critical-path attribution: what bounds a scenario's simulated time.

It answers *which* lane the simulated clock is actually waiting on —
compute, one of the copy directions, IPC, or nothing at all (host-call
gaps and scheduling stalls) — which is what ``repro trace --critpath``
prints.

The attribution walks one captured trace payload
(:meth:`Tracer.to_payload`) and classifies every instant of ``[0,
horizon]`` by a fixed priority — ``compute > h2d > d2h > ipc > idle`` —
so each millisecond of simulated time lands in exactly one named bucket
and the buckets sum to the horizon (100% coverage by construction).
Priority resolves overlap: a millisecond where a kernel runs *and* a
copy streams is compute-bound — removing the copy would not shorten it.

Alongside the exclusive attribution, the report carries overlap
diagnostics (time with ≥2 engine roles active — the Kernel Interleaving
win) and the longest individual spans, the first places to look when a
category dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .reporting import render_table

#: Classification priority, most-binding first; ``idle`` is implicit.
CATEGORY_PRIORITY: Tuple[str, ...] = ("compute", "h2d", "d2h", "ipc")

#: All named buckets, in report order.
CATEGORIES: Tuple[str, ...] = CATEGORY_PRIORITY + ("idle",)


@dataclass
class DeviceAttribution:
    """One host GPU's exclusive time attribution."""

    device: str
    horizon_ms: float
    by_category: Dict[str, float] = field(default_factory=dict)
    overlap_ms: float = 0.0  # >= 2 engine roles simultaneously busy

    @property
    def bound(self) -> str:
        """The dominant category — what this device's timeline waits on."""
        return max(CATEGORIES, key=lambda c: self.by_category.get(c, 0.0))

    @property
    def busy_ms(self) -> float:
        return sum(
            self.by_category.get(c, 0.0) for c in CATEGORY_PRIORITY
        )


@dataclass
class CritPathReport:
    """Whole-scenario attribution: per device plus the overall verdict."""

    horizon_ms: float
    devices: List[DeviceAttribution] = field(default_factory=list)
    overall: Dict[str, float] = field(default_factory=dict)
    top_spans: List[Dict[str, Any]] = field(default_factory=list)
    span_count: int = 0

    @property
    def bound(self) -> str:
        return max(CATEGORIES, key=lambda c: self.overall.get(c, 0.0))

    @property
    def coverage(self) -> float:
        """Fraction of the horizon attributed to named segments.

        1.0 by construction (idle is a named segment); pinned by the
        acceptance tests rather than assumed.
        """
        if self.horizon_ms <= 0.0:
            return 1.0
        return sum(self.overall.values()) / self.horizon_ms


def _category_of(span: Dict[str, Any]) -> Optional[str]:
    """Map one span to its attribution category (None = not attributable)."""
    cat = span.get("cat")
    if cat == "engine":
        role = (span.get("args") or {}).get("role")
        if role in ("compute", "h2d", "d2h"):
            return str(role)
        # Fall back to the lane name (seed-era spans carry no role arg).
        lane = str(span.get("lane", ""))
        for candidate in ("compute", "h2d", "d2h"):
            if candidate in lane:
                return candidate
        return "compute" if "engine" in lane else None
    if cat == "ipc":
        return "ipc"
    return None


def _device_of(span: Dict[str, Any]) -> Optional[int]:
    """The host GPU a span is bound to; IPC spans are device-agnostic."""
    if span.get("cat") != "engine":
        return None
    device = (span.get("args") or {}).get("device", 0)
    try:
        return int(device)
    except (TypeError, ValueError):
        return 0


def _sweep(
    intervals: List[Tuple[float, float, str]], horizon_ms: float
) -> Tuple[Dict[str, float], float]:
    """Exclusive priority attribution of ``[0, horizon]``.

    Returns ``(by_category, overlap_ms)``; ``by_category`` includes the
    ``idle`` remainder so its values always sum to ``horizon_ms``.
    Overlap counts time where at least two *engine* roles are active
    simultaneously (the copy/compute concurrency win).
    """
    by_category = {category: 0.0 for category in CATEGORIES}
    overlap_ms = 0.0
    if horizon_ms <= 0.0:
        return by_category, overlap_ms

    events: List[Tuple[float, int, str]] = []
    for start, end, category in intervals:
        start = max(0.0, start)
        end = min(horizon_ms, end)
        if end <= start:
            continue
        events.append((start, +1, category))
        events.append((end, -1, category))
    events.sort(key=lambda e: e[0])

    active = {category: 0 for category in CATEGORY_PRIORITY}
    cursor = 0.0
    index = 0
    total = len(events)
    while index < total:
        t = events[index][0]
        if t > cursor:
            # Attribute [cursor, t) to the highest-priority active lane.
            span_ms = t - cursor
            for category in CATEGORY_PRIORITY:
                if active[category] > 0:
                    by_category[category] += span_ms
                    break
            else:
                by_category["idle"] += span_ms
            engine_active = sum(
                1 for c in ("compute", "h2d", "d2h") if active[c] > 0
            )
            if engine_active >= 2:
                overlap_ms += span_ms
            cursor = t
        while index < total and events[index][0] == t:
            _, delta, category = events[index]
            active[category] += delta
            index += 1
    if horizon_ms > cursor:
        by_category["idle"] += horizon_ms - cursor
    return by_category, overlap_ms


def attribute(
    payload: Dict[str, Any], horizon_ms: Optional[float] = None
) -> CritPathReport:
    """Attribute a trace payload's simulated time, per device and overall.

    ``horizon_ms`` defaults to the latest span end in the payload (the
    scenario's finish line).  Every device gets its own sweep over the
    *whole* horizon — IPC spans, which are device-agnostic, participate
    in each device's sweep — and the ``overall`` view sweeps all lanes
    together, answering "what bounds the scenario" host-wide.
    """
    spans = list(payload.get("spans", ()))
    if horizon_ms is None:
        horizon_ms = max(
            (float(span.get("end_ms", 0.0)) for span in spans), default=0.0
        )

    classified: List[Tuple[Optional[int], float, float, str]] = []
    for span in spans:
        category = _category_of(span)
        if category is None:
            continue
        classified.append(
            (
                _device_of(span),
                float(span["start_ms"]),
                float(span["end_ms"]),
                category,
            )
        )

    devices_seen = sorted(
        {device for device, *_ in classified if device is not None}
    )
    report = CritPathReport(horizon_ms=horizon_ms, span_count=len(classified))

    for device in devices_seen:
        intervals = [
            (start, end, category)
            for dev, start, end, category in classified
            if dev == device or dev is None  # IPC participates everywhere
        ]
        by_category, overlap_ms = _sweep(intervals, horizon_ms)
        report.devices.append(
            DeviceAttribution(
                device=f"gpu{device}",
                horizon_ms=horizon_ms,
                by_category=by_category,
                overlap_ms=overlap_ms,
            )
        )

    overall_intervals = [
        (start, end, category) for _, start, end, category in classified
    ]
    report.overall, _ = _sweep(overall_intervals, horizon_ms)

    ranked = sorted(
        (span for span in spans if _category_of(span) is not None),
        key=lambda s: float(s["end_ms"]) - float(s["start_ms"]),
        reverse=True,
    )
    report.top_spans = [
        {
            "lane": span["lane"],
            "name": span["name"],
            "category": _category_of(span),
            "duration_ms": float(span["end_ms"]) - float(span["start_ms"]),
        }
        for span in ranked[:10]
    ]
    return report


def render_critpath(report: CritPathReport) -> str:
    """Text report for ``repro trace --critpath``."""
    lines: List[str] = [
        f"horizon: {report.horizon_ms:.3f} ms over {report.span_count} spans"
        f"  (coverage {report.coverage * 100.0:.1f}%)",
        f"scenario bound: {report.bound}",
        "",
    ]
    rows: List[List[object]] = []
    for device in report.devices:
        rows.append(
            [device.device]
            + [device.by_category.get(c, 0.0) for c in CATEGORIES]
            + [device.overlap_ms, device.bound]
        )
    rows.append(
        ["overall"]
        + [report.overall.get(c, 0.0) for c in CATEGORIES]
        + ["-", report.bound]
    )
    lines.append(
        render_table(
            ["Device"] + [f"{c} (ms)" for c in CATEGORIES] + ["overlap (ms)", "bound"],
            rows,
            title="Critical-path attribution (exclusive, compute > h2d > d2h > ipc > idle)",
        )
    )
    if report.top_spans:
        lines.append("")
        lines.append(
            render_table(
                ["Lane", "Span", "Category", "Duration (ms)"],
                [
                    (s["lane"], s["name"], s["category"], s["duration_ms"])
                    for s in report.top_spans
                ],
                title="Longest attributable spans",
            )
        )
    return "\n".join(lines)
