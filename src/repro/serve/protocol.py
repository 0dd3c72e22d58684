"""The daemon's wire protocol: newline-delimited JSON frames.

One frame per line, UTF-8, canonical JSON.  Client requests carry an
``op`` plus op-specific fields; the daemon answers every request with at
least one frame carrying ``ok`` (``true``/``false``).  Failures are
*structured*: ``{"ok": false, "error": {"code": ..., "message": ...}}``
— a malformed line, an unknown schema version, a full queue, and an
unknown job id are all distinguishable by machine-readable code.

Ops (client -> daemon):

======== ============================================================
op        meaning
======== ============================================================
ping      liveness probe; answers with daemon identity and counts
submit    a :class:`~repro.api.RunRequest` payload under ``request``
status    one job's current record (``job_id``)
result    one job's terminal record, error if not terminal yet
wait      block until the job is terminal; answers with the record
watch     stream one event frame per state transition, then close out
cancel    cancel a queued or running job
jobs      list job records (optionally filtered by ``tenant``)
stats     queue/worker counters and a metrics snapshot
shutdown  graceful stop; ``drain`` finishes running jobs first
======== ============================================================

The submission payload is exactly :meth:`repro.api.RunRequest.to_dict`
— the daemon re-validates it through :meth:`RunRequest.from_dict`, so
local and remote validation cannot drift.  Protocol changes ride the
RunRequest ``schema`` field; frames themselves carry no separate
version (the socket is local, client and daemon come from one tree).
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, Optional

__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "JobState",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "ok_frame",
]

#: Hard cap on one frame's encoded size.  A RunRequest is a few hundred
#: bytes; anything near this limit is a malformed or hostile client.
MAX_FRAME_BYTES = 1 << 20

#: The ops a daemon understands (unknown ops get ``unknown-op``).
OPS = (
    "ping", "submit", "status", "result", "wait", "watch", "cancel",
    "jobs", "stats", "shutdown",
)


class JobState(str, enum.Enum):
    """Lifecycle of one submitted job.

    ``QUEUED -> RUNNING -> DONE`` is the happy path.  ``CANCELLED``
    may be entered from ``QUEUED`` or ``RUNNING``; ``FAILED`` carries a
    structured error from execution; ``FAULTED`` is the deterministic
    replay outcome for a job that was mid-run when the daemon died.
    A gracefully stopped daemon *requeues* running jobs (back to
    ``QUEUED``) before exiting, so ``FAULTED`` only ever means a crash.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    FAULTED = "faulted"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE, JobState.FAILED, JobState.CANCELLED,
            JobState.FAULTED,
        )


class ProtocolError(Exception):
    """A frame the daemon cannot act on, with a machine-readable code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    def frame(self) -> Dict[str, Any]:
        return error_frame(self.code, self.message)


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One frame: canonical JSON plus the line terminator."""
    line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} cap",
        )
    return data


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a frame dict (structured errors)."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES} cap",
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-frame", f"not a JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad-frame",
            f"frame must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def ok_frame(event: str, **data: Any) -> Dict[str, Any]:
    """A success frame: ``{"ok": true, "event": ..., **data}``."""
    frame: Dict[str, Any] = {"ok": True, "event": event}
    frame.update(data)
    return frame


def error_frame(
    code: str, message: str, job_id: Optional[str] = None
) -> Dict[str, Any]:
    """A structured failure frame."""
    frame: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if job_id is not None:
        frame["job_id"] = job_id
    return frame
