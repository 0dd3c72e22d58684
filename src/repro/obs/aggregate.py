"""Farm-wide aggregation: one coherent trace from many worker processes.

Scenario-farm workers run with observability *captured*: each job
records into a fresh tracer/registry whose serialized payloads ride
back to the parent on the job's :class:`~repro.exec.farm.FarmResult`
(the same fork-worker result channel every other field uses).  This
module merges those buffers in the parent:

* **traces** — every worker's span/instant ids start at zero, so the
  merge re-bases them onto one monotonic sequence and tags every record
  with its job label; the Chrome exporter additionally gives each job
  its own pid block so tracks never collide;
* **metrics** — counters and histograms sum bucket-wise (identical
  fixed edges are asserted); gauges are per-run statements, so they are
  never summed: the merged snapshot carries them in a dedicated
  ``gauges`` section labeled by originating job (see
  :func:`merge_metric_snapshots` for the full per-kind policy).

Everything operates on plain payload dicts (duck-typed against
``FarmResult``), so the module has no import edge back into
``repro.exec``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .export import TracePayload


def rebase_payloads(
    items: Sequence[Tuple[str, TracePayload]],
) -> TracePayload:
    """Merge trace payloads, re-basing ids per worker buffer.

    Each input payload's monotonic ids (0, 1, 2, ...) are shifted so the
    merged payload's ids are globally unique and strictly increasing in
    (payload order, record order); every record's ``args`` gains the
    originating ``job`` label.
    """
    spans: List[dict] = []
    instants: List[dict] = []
    offset = 0
    for label, payload in items:
        highest = -1
        for span in payload.get("spans", ()):
            record = dict(span)
            highest = max(highest, record["id"])
            record["id"] += offset
            record["args"] = {**(record.get("args") or {}), "job": label}
            spans.append(record)
        for instant in payload.get("instants", ()):
            record = dict(instant)
            highest = max(highest, record["id"])
            record["id"] += offset
            record["args"] = {**(record.get("args") or {}), "job": label}
            instants.append(record)
        offset += highest + 1
    return {"schema": "repro.obs.trace/1", "spans": spans, "instants": instants}


def merge_metric_snapshots(
    items: Sequence[Tuple[str, Dict[str, Any]]],
) -> Dict[str, Any]:
    """Combine per-job metric snapshots into totals plus per-job detail.

    Merge policy, by metric kind:

    * **counter** — summed into ``totals``: counters are monotonic event
      totals, so cross-job addition is exact.
    * **histogram** — summed bucket-wise into ``totals``; edges must
      agree (they are fixed constants, so a mismatch means two
      incompatible code versions — raise rather than mis-merge).
      Because edges are never derived from data, the merged histogram
      is *exactly* the histogram one process observing every sample
      would have produced.
    * **gauge** — never enters ``totals``: a gauge is a last-written
      per-run statement (a utilization, a horizon) with no meaningful
      cross-job sum, and silently keeping one job's value would let a
      last-writer masquerade as an aggregate.  Instead every gauge is
      surfaced under ``gauges`` as ``name -> {job_label: value}``, so
      readers always see which job said what (plus the full per-job
      snapshots under ``per_job``).
    """
    totals: Dict[str, Dict[str, Any]] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    per_job: Dict[str, Dict[str, Any]] = {}
    for label, snapshot in items:
        metrics = snapshot.get("metrics", snapshot)
        per_job[label] = metrics
        for name, entry in metrics.items():
            kind = entry.get("type")
            if kind == "gauge":
                gauges.setdefault(name, {})[label] = entry["value"]
                continue
            merged = totals.get(name)
            if merged is None:
                totals[name] = {
                    key: (list(value) if isinstance(value, list) else value)
                    for key, value in entry.items()
                }
                continue
            if merged["type"] != kind:
                raise ValueError(f"metric {name!r} changes type across jobs")
            if kind == "counter":
                merged["value"] += entry["value"]
            elif kind == "histogram":
                if merged["edges"] != entry["edges"]:
                    raise ValueError(
                        f"histogram {name!r} has mismatched bucket edges"
                    )
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], entry["counts"])
                ]
                merged["count"] += entry["count"]
                merged["sum"] += entry["sum"]
    return {
        "schema": "repro.obs.metrics-merged/1",
        "totals": {name: totals[name] for name in sorted(totals)},
        "gauges": {
            name: dict(sorted(gauges[name].items())) for name in sorted(gauges)
        },
        "per_job": {label: per_job[label] for label in sorted(per_job)},
    }


def _observed_results(results: Sequence[Any]) -> List[Any]:
    return [r for r in results if getattr(r, "trace", None) is not None]


def farm_trace_sources(results: Sequence[Any]) -> List[Tuple[str, TracePayload]]:
    """(label, payload) pairs from farm results that captured a trace."""
    return [(r.label or r.job_key, r.trace) for r in _observed_results(results)]


def farm_merged_trace(results: Sequence[Any]) -> TracePayload:
    """One re-based payload covering every captured farm job."""
    return rebase_payloads(farm_trace_sources(results))


def farm_merged_metrics(results: Sequence[Any]) -> Dict[str, Any]:
    """Merged metric snapshot across every captured farm job."""
    return merge_metric_snapshots([
        (r.label or r.job_key, r.metrics)
        for r in results
        if getattr(r, "metrics", None) is not None
    ])


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
