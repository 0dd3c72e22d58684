"""The ``repro serve`` daemon: socket server, scheduler, worker spawner.

One :class:`ServeDaemon` owns an accept thread, a handler thread per
client connection, and one worker process plus one reaper thread per
running job.  No thread sleeps on a timer; each blocks on its event.

* The **accept loop** on the Unix socket spawns a handler thread per
  client connection (``wait``/``watch`` block their own connection, so
  thread-per-connection is the natural shape).
* **Scheduling is a call, not a thread.**  Wherever a job or a worker
  slot appears (a submit, a job's terminal transition, the jobs
  recovered at start) the daemon asks the
  :class:`~repro.serve.queue.ServiceQueue` for the policy's picks among
  tenant heads and forks a worker **process** for each while a slot is
  free.
* A **reaper thread** per running job blocks until the worker reports
  or exits, then records the job's outcome; it is the only thread that
  does.  Cancel and stop act on the worker process (``terminate()`` — a
  forked process is the cancellation boundary the paper's farm already
  implies: scenarios are independent, so killing one cannot corrupt
  another), and the reaper turns the exit into ``cancelled`` or, on a
  stop without drain, a ``requeue``.

Execution inside the worker is :func:`repro.api.run` — the farm's
``run_job`` under the request's config-hash key — so a daemon-produced
digest is bit-identical to the local path.  The daemon pre-warms the kernel compiler *before* forking; with
the ``fork`` start method every worker inherits the warm caches and
skips cold-compile cost, the service-shaped analog of the farm's pool
initializer.

Every state transition journals (append + fsync) **before** it is
acknowledged to any client, which is what makes restart recovery
deterministic: replay of the journal alone reconstructs the queue.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue as _thread_queue
import socketserver
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api import RequestError, RunRequest
from ..obs.metrics import MetricsRegistry
from .journal import Journal, replay_journal
from .protocol import (
    OPS,
    JobState,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from .queue import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TENANT_QUOTA,
    QueueFullError,
    QuotaExceededError,
    ServiceJob,
    ServiceQueue,
)

__all__ = ["ServeDaemon"]


def _worker_main(payload: Dict[str, Any], conn: Any) -> None:
    """Worker-process entry: execute one request, ship the outcome back.

    Runs in a forked child.  Uses :func:`repro.api.run` so the executed
    path (and therefore the digest) is identical to a local ``run()``.
    """
    try:
        from ..api import run

        request = RunRequest.from_dict(payload)
        outcome = run(request)
        conn.send(
            {
                "ok": True,
                "value": outcome.value,
                "digest": outcome.digest,
                "duration_s": outcome.duration_s,
                "worker_pid": os.getpid(),
            }
        )
    except BaseException as exc:  # noqa: BLE001 - must report, not raise
        conn.send(
            {
                "ok": False,
                "error": {
                    "code": "execution-error",
                    "message": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=20),
                },
            }
        )
    finally:
        conn.close()


class ServeDaemon:
    """The multi-tenant simulation service behind one Unix socket."""

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        state_dir: Optional[Union[str, Path]] = None,
        max_depth: int = DEFAULT_MAX_DEPTH,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        policy: str = "fair-share",
        max_workers: int = 1,
        warm: bool = True,
        fsync_journal: bool = True,
    ) -> None:
        from . import default_socket_path, default_state_dir

        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.state_dir = (
            Path(state_dir) if state_dir is not None else default_state_dir()
        )
        self.socket_path = (
            Path(socket_path)
            if socket_path is not None
            else default_socket_path()
        )
        self.journal_path = self.state_dir / "journal.jsonl"
        self.max_workers = max_workers
        self.warm = warm
        self.queue = ServiceQueue(
            max_depth=max_depth,
            tenant_quota=tenant_quota,
            policy=policy,
        )
        #: Private registry: the daemon's own counters never clobber the
        #: process-global observability state a host test may be using.
        self.registry = MetricsRegistry()
        self._journal = Journal(self.journal_path, fsync=fsync_journal)
        self._lock = threading.RLock()
        #: Every job this daemon knows, replayed or live, by id.
        self._jobs: Dict[str, ServiceJob] = {}
        #: Jobs currently executing, by id, with their process + reaper.
        self._procs: Dict[
            str, Tuple[multiprocessing.Process, threading.Thread]
        ] = {}
        #: Per-job watch subscriptions, fed on transitions; None ends one.
        self._watchers: Dict[
            str, List["_thread_queue.Queue[Optional[Dict[str, Any]]]"]
        ] = {}
        #: Signals any job state change and stop (``wait`` blocks on it).
        self._transition = threading.Condition(self._lock)
        self._next_job_number = 1
        self._stop = threading.Event()
        #: Set once stop() has finished (``join`` blocks on it).
        self._stopped = threading.Event()
        self._drain = False
        self._server: Optional[socketserver.ThreadingUnixStreamServer] = None
        self.started_at = 0.0
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: resume queued jobs, fault mid-run ones."""
        records, stats = replay_journal(self.journal_path)
        faulted = 0
        resumed = 0
        unreadable = 0
        for record in records:
            job_id = record["job_id"]
            number = _job_number(job_id)
            if number is not None:
                self._next_job_number = max(self._next_job_number, number + 1)
            try:
                request = RunRequest.from_dict(record["request"])
            except RequestError:
                # Journaled under an older schema: neither resumed nor
                # served, but counted so the loss is visible.
                unreadable += 1
                continue
            job = ServiceJob(
                job_id=job_id,
                request=request,
                tenant=record["tenant"],
                qos=record["qos"],
                state=record["state"],
            )
            job.value = record["value"]
            job.digest = record["digest"]
            job.error = record["error"]
            self._jobs[job_id] = job
            if job.state is JobState.QUEUED:
                # Accepted work survives the restart: requeue bypasses
                # admission (the depth check already passed once).
                self.queue.requeue(job)
                job.requeues -= 1  # requeue() counts; recovery is not one
                resumed += 1
            elif record.get("promoted_fault"):
                # Replay decided the fault; make it durable so the next
                # restart folds to the same answer without re-deciding.
                self._journal.append(
                    {"type": "fault", "job_id": job_id, "error": job.error}
                )
                faulted += 1
        self.recovery = {
            "resumed": resumed,
            "faulted": faulted,
            "unreadable": unreadable,
            "replayed": stats["records"],
            "torn": stats["torn"],
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the socket, start the accept thread, launch recovered jobs."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        if self.warm:
            from ..exec.farm import warm_worker

            # Warm the compiler before any fork: children inherit the
            # compiled-kernel caches instead of cold-compiling per job.
            warm_worker()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        daemon = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                daemon._serve_connection(self)

        self._server = socketserver.ThreadingUnixStreamServer(
            str(self.socket_path), _Handler
        )
        self._server.daemon_threads = True
        self.started_at = time.time()
        threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        ).start()
        self._launch_ready()

    def stop(self, drain: bool = False, timeout: float = 30.0) -> None:
        """Graceful shutdown.

        ``drain=True`` lets running jobs finish (for up to ``timeout``
        seconds); otherwise their workers are terminated and each
        reaper **requeues** its job (journaled), so no accepted work is
        lost — a restarted daemon resumes them.  Queued jobs stay queued
        in the journal either way.  Blocked ``wait`` calls get
        ``daemon-stopping`` and ``watch`` streams end at once.
        """
        with self._lock:
            self._drain = drain
            self._stop.set()
            for watchers in self._watchers.values():
                for watcher in watchers:
                    watcher.put(None)
            self._transition.notify_all()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        with self._transition:
            if drain:
                self._transition.wait_for(lambda: not self._procs, timeout)
            # Whatever still runs (no drain, or the drain timed out) is
            # terminated; its reaper sees the stop and requeues it.
            self._drain = False
            running = list(self._procs.values())
            for proc, _ in running:
                proc.terminate()
        for _, reaper in running:
            reaper.join()
        self._journal.close()
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._stopped.set()

    def join(self) -> None:
        """Block until :meth:`stop` has finished."""
        self._stopped.wait()

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- scheduling and execution -----------------------------------------

    def _launch_ready(self) -> None:
        """Start the policy's picks while a worker slot is free."""
        with self._lock:
            while not self._stop.is_set() and len(self._procs) < self.max_workers:
                job = self.queue.next_job()
                if job is None:
                    return
                parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.get_context("fork").Process(
                    target=_worker_main,
                    args=(job.request.to_dict(), child_conn),
                    name=f"repro-serve-{job.job_id}",
                    daemon=True,
                )
                job.started_at = time.time()
                self._journal.append({"type": "start", "job_id": job.job_id})
                proc.start()
                child_conn.close()
                job.worker_pid = proc.pid
                reaper = threading.Thread(
                    target=self._reap,
                    args=(job, proc, parent_conn),
                    name=f"repro-serve-reap-{job.job_id}",
                    daemon=True,
                )
                self._procs[job.job_id] = (proc, reaper)
                self.registry.counter("serve.jobs.started").inc()
                self._notify(job)
                reaper.start()

    def _reap(
        self,
        job: ServiceJob,
        proc: multiprocessing.Process,
        conn: Any,
    ) -> None:
        """Block until one worker reports or exits; record the outcome.

        The reaper is the only thread that ends a running job: a cancel
        or a stop only terminates the worker, and the reaper reads the
        exit as ``cancelled``, a ``requeue`` (stop without drain) or
        ``worker-died``.  The pipe is drained once after the wake-up, so
        a result sent just before the worker exits is kept.
        """
        multiprocessing.connection.wait([conn, proc.sentinel])
        outcome: Optional[Dict[str, Any]] = None
        try:
            if conn.poll():
                outcome = conn.recv()
        except (EOFError, OSError):
            outcome = None  # killed mid-send, or exited without a word
        conn.close()
        proc.join()
        with self._lock:
            self._procs.pop(job.job_id, None)
            stopping = self._stop.is_set() and not self._drain
            if outcome is None and stopping and not job.cancel_requested:
                self._journal.append({"type": "requeue", "job_id": job.job_id})
                self.queue.requeue(job)
                self._notify(job)
                return
            self.queue.mark_finished(job)
            if outcome is None and job.cancel_requested:
                self._finish(job, JobState.CANCELLED, error=None)
            elif outcome is None:
                self._finish(
                    job,
                    JobState.FAILED,
                    error={
                        "code": "worker-died",
                        "message": (
                            f"worker process exited with code "
                            f"{proc.exitcode} before reporting a result"
                        ),
                    },
                )
            elif outcome.get("ok"):
                job.value = outcome["value"]
                job.digest = outcome["digest"]
                job.worker_pid = outcome.get("worker_pid", job.worker_pid)
                if job.started_at is not None:
                    self.queue.observe_duration(
                        job, time.time() - job.started_at
                    )
                self._finish(job, JobState.DONE, error=None)
            else:
                self._finish(job, JobState.FAILED, error=outcome.get("error"))
            self._launch_ready()

    def _finish(
        self,
        job: ServiceJob,
        state: JobState,
        error: Optional[Dict[str, Any]],
    ) -> None:
        """Journal + apply one terminal transition (caller holds lock)."""
        job.state = state
        job.error = error
        job.finished_at = time.time()
        record: Dict[str, Any] = {"job_id": job.job_id}
        if state is JobState.DONE:
            record.update(type="done", value=job.value, digest=job.digest)
        elif state is JobState.CANCELLED:
            record.update(type="cancel", where="running")
        else:
            record.update(type="fail", error=error)
        self._journal.append(record)
        self.registry.counter(f"serve.jobs.{state.value}").inc()
        self._notify(job)

    def _notify(self, job: ServiceJob) -> None:
        """Broadcast one transition to waiters and watchers."""
        frame = ok_frame("transition", **job.record(include_request=False))
        for watcher in self._watchers.get(job.job_id, []):
            watcher.put(frame)
        self._transition.notify_all()

    # -- protocol ops ------------------------------------------------------

    def _serve_connection(self, handler: socketserver.StreamRequestHandler) -> None:
        """One client connection: frames in, frames out, until EOF."""
        while not self._stop.is_set():
            try:
                line = handler.rfile.readline()
            except (OSError, ValueError):
                return
            if not line:
                return
            if line.strip() == b"":
                continue
            try:
                frames = self._dispatch(decode_frame(line), handler)
            except ProtocolError as exc:
                frames = [exc.frame()]
            except RequestError as exc:
                frames = [error_frame(exc.code, exc.message)]
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                frames = [
                    error_frame(
                        "internal-error", f"{type(exc).__name__}: {exc}"
                    )
                ]
            try:
                for frame in frames:
                    handler.wfile.write(encode_frame(frame))
                handler.wfile.flush()
            except (OSError, ValueError, BrokenPipeError):
                return

    def _dispatch(
        self,
        frame: Dict[str, Any],
        handler: socketserver.StreamRequestHandler,
    ) -> List[Dict[str, Any]]:
        op = frame.get("op")
        if op not in OPS:
            raise ProtocolError(
                "unknown-op",
                f"unknown op {op!r}; this daemon speaks: {', '.join(OPS)}",
            )
        if op == "ping":
            return [self._op_ping()]
        if op == "submit":
            return [self._op_submit(frame)]
        if op == "status":
            return [ok_frame("status", **self._get_job(frame).record())]
        if op == "result":
            return [self._op_result(frame)]
        if op == "wait":
            return [self._op_wait(frame)]
        if op == "watch":
            return self._op_watch(frame, handler)
        if op == "cancel":
            return [self._op_cancel(frame)]
        if op == "jobs":
            return [self._op_jobs(frame)]
        if op == "stats":
            return [self._op_stats()]
        # shutdown
        drain = bool(frame.get("drain", False))
        threading.Thread(
            target=self.stop, kwargs={"drain": drain}, daemon=True
        ).start()
        return [ok_frame("shutdown", drain=drain)]

    def _op_ping(self) -> Dict[str, Any]:
        with self._lock:
            return ok_frame(
                "pong",
                pid=os.getpid(),
                started_at=self.started_at,
                queued=self.queue.depth(),
                running=len(self._procs),
                jobs=len(self._jobs),
                policy=self.queue.policy_name,
                max_depth=self.queue.max_depth,
                recovery=self.recovery,
            )

    def _op_submit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        payload = frame.get("request")
        request = RunRequest.from_dict(payload)  # RequestError -> error frame
        with self._lock:
            job_id = f"job-{self._next_job_number:06d}"
            self._next_job_number += 1
            job = ServiceJob(
                job_id=job_id,
                request=request,
                tenant=request.tenant,
                qos=request.qos,
            )
            job.submitted_at = time.time()
            try:
                self.queue.submit(job)
            except QueueFullError as exc:
                self.registry.counter("serve.rejected.queue_full").inc()
                return error_frame("queue-full", str(exc))
            except QuotaExceededError as exc:
                self.registry.counter("serve.rejected.quota").inc()
                return error_frame("quota-exceeded", str(exc))
            # Journal *after* admission (a rejected submit leaves no
            # trace) but before the ack (an acked job is durable).
            self._journal.append(
                {
                    "type": "submit",
                    "job_id": job_id,
                    "request": request.to_dict(),
                    "tenant": job.tenant,
                    "qos": job.qos,
                    "seq": job.seq,
                }
            )
            self._jobs[job_id] = job
            self.registry.counter("serve.jobs.submitted").inc()
            self._notify(job)
            ack = ok_frame("submitted", **job.record())
            self._launch_ready()
            return ack

    def _get_job(self, frame: Dict[str, Any]) -> ServiceJob:
        job_id = frame.get("job_id")
        if not isinstance(job_id, str):
            raise ProtocolError("bad-frame", "op requires a 'job_id' string")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError("unknown-job", f"no such job: {job_id}")
        return job

    def _op_result(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        job = self._get_job(frame)
        with self._lock:
            if not job.state.terminal:
                return error_frame(
                    "not-finished",
                    f"job {job.job_id} is {job.state.value}; use 'wait'",
                    job_id=job.job_id,
                )
            return ok_frame("result", **job.record())

    def _op_wait(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        job = self._get_job(frame)
        timeout = frame.get("timeout")
        with self._transition:
            self._transition.wait_for(
                lambda: job.state.terminal or self._stop.is_set(),
                float(timeout) if timeout else None,
            )
            if job.state.terminal:
                return ok_frame("result", **job.record())
            if self._stop.is_set():
                return error_frame(
                    "daemon-stopping",
                    "daemon is shutting down; job will be requeued",
                    job_id=job.job_id,
                )
            return error_frame(
                "wait-timeout",
                f"job {job.job_id} still {job.state.value} after {timeout}s",
                job_id=job.job_id,
            )

    def _op_watch(
        self,
        frame: Dict[str, Any],
        handler: socketserver.StreamRequestHandler,
    ) -> List[Dict[str, Any]]:
        """Stream a frame per transition until the job ends or stop().

        Writes directly to the connection (this handler thread is
        dedicated to it), then returns the final record as the
        dispatcher's reply.
        """
        job = self._get_job(frame)
        events: "_thread_queue.Queue[Optional[Dict[str, Any]]]"
        events = _thread_queue.Queue()
        with self._lock:
            self._watchers.setdefault(job.job_id, []).append(events)
            snapshot = ok_frame(
                "transition", **job.record(include_request=False)
            )
            terminal = job.state.terminal or self._stop.is_set()
        try:
            handler.wfile.write(encode_frame(snapshot))
            handler.wfile.flush()
            while not terminal:
                event = events.get()
                if event is None:  # the daemon is stopping
                    break
                handler.wfile.write(encode_frame(event))
                handler.wfile.flush()
                terminal = JobState(event["state"]).terminal
        finally:
            with self._lock:
                watchers = self._watchers.get(job.job_id, [])
                if events in watchers:
                    watchers.remove(events)
                if not watchers:
                    self._watchers.pop(job.job_id, None)
        return [ok_frame("watch-end", **job.record())]

    def _op_cancel(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        job = self._get_job(frame)
        with self._lock:
            if job.state.terminal:
                return error_frame(
                    "already-finished",
                    f"job {job.job_id} already {job.state.value}",
                    job_id=job.job_id,
                )
            job.cancel_requested = True
            if job.state is JobState.QUEUED:
                # Launches pop under this same lock, so a queued job is
                # still in the queue and never starts once cancelled.
                self.queue.cancel_queued(job.job_id)
                job.finished_at = time.time()
                job.state = JobState.CANCELLED
                self._journal.append(
                    {"type": "cancel", "job_id": job.job_id, "where": "queued"}
                )
                self.registry.counter("serve.jobs.cancelled").inc()
                self._notify(job)
                return ok_frame("cancelled", **job.record())
            # Running: kill the worker; its reaper journals the cancel and
            # the client observes it via wait/watch.
            proc, _ = self._procs[job.job_id]
            proc.terminate()
            return ok_frame("cancelling", **job.record())

    def _op_jobs(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        tenant = frame.get("tenant")
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.job_id)
            if tenant is not None:
                jobs = [j for j in jobs if j.tenant == tenant]
            return ok_frame(
                "jobs",
                jobs=[j.record(include_request=False) for j in jobs],
            )

    def _op_stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            tenants: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
                tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
            return ok_frame(
                "stats",
                queued=self.queue.depth(),
                running=len(self._procs),
                max_depth=self.queue.max_depth,
                tenant_quota=self.queue.tenant_quota,
                policy=self.queue.policy_name,
                states=states,
                tenants=tenants,
                metrics=self.registry.snapshot(),
                journal_records=self._journal.records_written,
                recovery=self.recovery,
            )


def _job_number(job_id: str) -> Optional[int]:
    """The numeric suffix of a ``job-NNNNNN`` id, if it has one."""
    prefix, _, suffix = job_id.rpartition("-")
    if prefix == "job" and suffix.isdigit():
        return int(suffix)
    return None
