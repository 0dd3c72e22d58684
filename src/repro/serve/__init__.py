"""``repro serve``: the long-running multi-tenant simulation service.

The one-shot CLI becomes a daemon: clients submit
:class:`~repro.api.RunRequest` payloads over a local Unix socket
(newline-delimited JSON, :mod:`repro.serve.protocol`), the daemon admits
them into a bounded persistent queue (:mod:`repro.serve.queue`) with
per-tenant quotas and explicit backpressure, schedules tenants through
the *existing* :mod:`repro.sched` select policies (fair-share DRR,
priority-deadline QoS), executes each job through the scenario farm's
``run_job`` path in a cancellable worker process
(:mod:`repro.serve.server`), and streams status/result events back.

Every state transition is journaled append-only under the state
directory (:mod:`repro.serve.journal`), so a restarted daemon resumes
queued jobs and deterministically faults the ones that were mid-run at
a crash.  Because execution is the farm's ``run_job`` — same
config-hash key, same in-process memos — a
daemon-produced result digest is bit-identical to ``repro.api.run()``
and to the legacy ``repro run`` CLI path for the same request.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from .client import ServeClient, ServeError
from .journal import Journal, replay_journal
from .protocol import (
    MAX_FRAME_BYTES,
    JobState,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from .queue import QueueFullError, QuotaExceededError, ServiceJob, ServiceQueue
from .server import ServeDaemon

__all__ = [
    "Journal",
    "JobState",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "QueueFullError",
    "QuotaExceededError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServiceJob",
    "ServiceQueue",
    "decode_frame",
    "default_socket_path",
    "default_state_dir",
    "encode_frame",
    "error_frame",
    "ok_frame",
    "replay_journal",
]

#: Environment override for the daemon's Unix socket path.
ENV_SOCKET = "REPRO_SERVE_SOCKET"

#: Environment override for the daemon's state directory (its journal).
ENV_STATE_DIR = "REPRO_SERVE_DIR"


def default_state_dir() -> Path:
    """Where the daemon journals its state.

    ``$REPRO_SERVE_DIR`` when that variable is set, else
    ``~/.cache/repro-sigmavp/serve``.
    """
    env = os.environ.get(ENV_STATE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sigmavp" / "serve"


def default_socket_path(explicit: Optional[Union[str, Path]] = None) -> Path:
    """Resolve the daemon socket path (explicit > env > state dir)."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_SOCKET)
    if env:
        return Path(env)
    return default_state_dir() / "serve.sock"
