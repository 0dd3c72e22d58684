"""The crash-safe job journal: append-only JSONL under the state dir.

Every job state transition is one appended record, flushed (and
fsync'd) before the transition is acknowledged anywhere else.  The
journal is the daemon's *only* persistent state: replaying it from the
top deterministically reconstructs every job's final state, which is
how a restarted daemon resumes queued work and faults whatever was
mid-run when the previous process died.

Record shapes (all carry ``job_id``):

* ``submit``  — the full request payload, tenant, qos, and queue seq;
* ``start``   — execution began (worker pid);
* ``done``    — terminal success: result value + digest;
* ``fail``    — terminal failure: structured error;
* ``cancel``  — terminal cancellation (``where``: queued/running);
* ``requeue`` — a running job pushed back to the queue (graceful stop);
* ``fault``   — replay marked a mid-run-at-crash job as faulted.

A partial trailing line (the classic torn write of a crash mid-append)
is ignored, counted, and reported — never a replay error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .protocol import JobState

__all__ = ["Journal", "replay_journal"]


class Journal:
    """Append-only JSONL writer with per-record durability."""

    def __init__(self, path: Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.records_written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[TextIO] = None

    def _handle(self) -> TextIO:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        fh = self._handle()
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Journal record type -> the state a job lands in after that record.
_TERMINAL_STATES = {
    "done": JobState.DONE,
    "fail": JobState.FAILED,
    "cancel": JobState.CANCELLED,
    "fault": JobState.FAULTED,
}


def replay_journal(
    path: Path,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Fold a journal into per-job final records, deterministically.

    Returns ``(records, stats)`` where ``records`` holds one dict per
    job in original submission order with its replayed ``state``
    (``queued`` jobs are the ones a restarted daemon must resume), and
    ``stats`` counts what replay saw.  A job whose last record is
    ``start`` was mid-run at the crash: replay marks it ``faulted``
    (with a structured error) rather than silently re-running it — a
    re-run is a *policy* decision the client makes by resubmitting.

    Replay is a pure fold over the file: same journal bytes, same
    outcome, on every restart.
    """
    jobs: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    stats = {"records": 0, "torn": 0, "unknown": 0}
    if not Path(path).exists():
        return [], stats
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Torn tail write from a crash mid-append; anything
                # after it is unreachable by construction (appends are
                # sequential), so stop folding here.
                stats["torn"] += 1
                break
            if not isinstance(record, dict) or "job_id" not in record:
                stats["unknown"] += 1
                continue
            stats["records"] += 1
            kind = record.get("type")
            job_id = str(record["job_id"])
            if kind == "submit":
                jobs[job_id] = {
                    "job_id": job_id,
                    "request": record.get("request", {}),
                    "tenant": record.get("tenant", "default"),
                    "qos": record.get("qos"),
                    "seq": record.get("seq", len(order)),
                    "state": JobState.QUEUED,
                    "error": None,
                    "value": None,
                    "digest": None,
                    "promoted_fault": False,
                }
                order.append(job_id)
                continue
            job = jobs.get(job_id)
            if job is None:
                stats["unknown"] += 1
                continue
            if kind == "start":
                job["state"] = JobState.RUNNING
            elif kind == "requeue":
                job["state"] = JobState.QUEUED
            elif kind in _TERMINAL_STATES:
                job["state"] = _TERMINAL_STATES[kind]
                job["error"] = record.get("error")
                job["value"] = record.get("value")
                job["digest"] = record.get("digest")
            else:
                stats["unknown"] += 1
    records: List[Dict[str, Any]] = []
    for job_id in order:
        job = jobs[job_id]
        if job["state"] is JobState.RUNNING:
            # Mid-run at crash: deterministic fault, never a silent
            # re-run (results may have had partial side effects only
            # the client can reason about).
            job["state"] = JobState.FAULTED
            job["promoted_fault"] = True
            job["error"] = {
                "code": "daemon-crash",
                "message": "job was mid-run when the daemon stopped "
                           "uncleanly; resubmit to retry",
            }
        records.append(job)
    return records, stats
