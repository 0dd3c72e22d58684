"""Checks over exported traces: schema validation and per-lane counts.

:func:`validate_chrome_trace` is the strict schema check the CI trace
smoke job and the exporter tests run on a Chrome/Perfetto export;
:func:`span_counts_by_lane` is the per-lane summary ``repro trace``
prints.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .export import TracePayload


def validate_chrome_trace(trace: Dict[str, Any]) -> List[str]:
    """Schema check for an exported Chrome/Perfetto trace dict.

    Returns a list of problems (empty = valid).  Used by the CI trace
    smoke job and the exporter tests; intentionally strict about the
    fields the Perfetto legacy-JSON importer requires.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "C"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"{where}: pid/tid must be ints")
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing name")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems


def span_counts_by_lane(payload: TracePayload) -> Dict[str, int]:
    """How many spans each lane carries (smoke-check helper)."""
    counts: Dict[str, int] = {}
    for span in payload.get("spans", ()):
        counts[span["lane"]] = counts.get(span["lane"], 0) + 1
    return dict(sorted(counts.items()))
