"""Service lifecycle: submit/status/result, cancel, backpressure, replay.

These tests drive a real :class:`~repro.serve.server.ServeDaemon` over
its Unix socket (state dirs live under short ``/tmp`` paths — AF_UNIX
caps socket paths at ~108 bytes, so pytest's deep ``tmp_path`` roots are
unusable).  Determinism notes:

* backpressure/quota tests pin the single worker slot with a slow job
  first, so queued depth is exact when the over-limit submit arrives;
* crash recovery is tested by writing journal bytes directly and
  constructing a fresh daemon over them — the replay fold is pure, so
  no real ``kill -9`` is needed to exercise it.
"""

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunRequest, run
from repro.serve import (
    ServeClient,
    ServeDaemon,
    ServeError,
    default_socket_path,
    default_state_dir,
)
from repro.serve.journal import Journal, replay_journal
from repro.serve.protocol import JobState
from repro.serve.queue import (
    QueueFullError,
    QuotaExceededError,
    ServiceJob,
    ServiceQueue,
)

#: Fast enough to finish within a wait() in every test (<0.2 s warm).
SMALL = RunRequest(app="vectorAdd", n_vps=2, scale_elements=256,
                   scale_iterations=2)

#: Slow enough (~3 s) that a poll loop reliably observes it RUNNING.
SLOW = RunRequest(app="vectorAdd", n_vps=4, scale_iterations=80)


@pytest.fixture()
def state_dir():
    # Short /tmp root: the daemon's socket lives inside it.
    path = Path(tempfile.mkdtemp(prefix="reprosrv-", dir="/tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _daemon(state_dir, **kw):
    kw.setdefault("warm", False)
    kw.setdefault("fsync_journal", False)
    return ServeDaemon(
        socket_path=state_dir / "serve.sock", state_dir=state_dir, **kw
    )


def _wait_for(predicate, timeout=20.0, interval=0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def _connect(daemon):
    _wait_for(lambda: daemon.socket_path.exists(), timeout=10.0)
    return ServeClient.connect(daemon.socket_path)


# -- happy path ------------------------------------------------------------------


def test_submit_status_result_roundtrip(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        accepted = client.submit(SMALL)
        job_id = accepted["job_id"]
        assert accepted["state"] == "queued"
        assert accepted["config_hash"] == SMALL.config_hash
        final = client.wait(job_id, timeout=60.0)
        assert final["state"] == "done"
        assert final["value"]["total_ms"] > 0
        assert client.status(job_id)["state"] == "done"
        assert client.result(job_id)["digest"] == final["digest"]


def test_daemon_digest_is_bit_identical_to_local_run(state_dir):
    """The acceptance property: service and direct paths share one
    execution (``repro.api.run``), so digests match exactly."""
    local = run(SMALL)
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        job_id = client.submit(SMALL)["job_id"]
        final = client.wait(job_id, timeout=60.0)
    assert final["digest"] == local.digest
    assert final["value"] == local.value


def test_result_before_finish_is_structured_error(state_dir):
    with _daemon(state_dir, max_workers=1) as daemon, _connect(daemon) as client:
        running_id = client.submit(SLOW)["job_id"]
        _wait_for(lambda: client.status(running_id)["state"] == "running")
        with pytest.raises(ServeError) as excinfo:
            client.result(running_id)
        assert excinfo.value.code == "not-finished"
        client.cancel(running_id)
        client.wait(running_id, timeout=30.0)


def test_ping_and_stats_report_shape(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        pong = client.ping()
        assert pong["policy"] == "fair-share"
        assert pong["recovery"]["replayed"] == 0
        job_id = client.submit(SMALL)["job_id"]
        client.wait(job_id, timeout=60.0)
        stats = client.stats()
        assert stats["states"].get("done") == 1
        assert stats["tenants"] == {"default": 1}
        assert stats["journal_records"] >= 2  # submit + done at least


# -- cancellation ----------------------------------------------------------------


def test_cancel_mid_queue(state_dir):
    with _daemon(state_dir, max_workers=1) as daemon, _connect(daemon) as client:
        running_id = client.submit(SLOW)["job_id"]
        _wait_for(lambda: client.status(running_id)["state"] == "running")
        queued_id = client.submit(SMALL)["job_id"]
        assert client.status(queued_id)["state"] == "queued"
        cancelled = client.cancel(queued_id)
        assert cancelled["event"] == "cancelled"
        assert cancelled["state"] == "cancelled"
        # Cancelling a terminal job is rejected, structurally.
        with pytest.raises(ServeError) as excinfo:
            client.cancel(queued_id)
        assert excinfo.value.code == "already-finished"
        client.cancel(running_id)
        client.wait(running_id, timeout=30.0)


def test_cancel_mid_run_terminates_worker(state_dir):
    with _daemon(state_dir, max_workers=1) as daemon, _connect(daemon) as client:
        job_id = client.submit(SLOW)["job_id"]
        _wait_for(lambda: client.status(job_id)["state"] == "running")
        pid = client.status(job_id)["worker_pid"]
        assert pid is not None
        acked = client.cancel(job_id)
        assert acked["event"] == "cancelling"
        final = client.wait(job_id, timeout=30.0)
        assert final["state"] == "cancelled"
        # The forked worker is gone (cancellation boundary = process).
        _wait_for(lambda: not Path(f"/proc/{pid}").exists(), timeout=10.0)


# -- admission control -----------------------------------------------------------


def test_serve_command_sets_max_depth_and_tenant_quota(
    state_dir, capsys, monkeypatch
):
    from repro.cli import main

    # Shut the daemon down where the command would block on it.
    monkeypatch.setattr(ServeDaemon, "join", ServeDaemon.stop)
    assert main([
        "serve", "--socket", str(state_dir / "serve.sock"),
        "--state-dir", str(state_dir), "--no-warm",
        "--max-depth", "3", "--tenant-quota", "2",
    ]) == 0
    assert "max depth 3, tenant quota 2," in capsys.readouterr().out


def test_backpressure_rejects_at_max_depth(state_dir):
    with _daemon(state_dir, max_workers=1, max_depth=2) as daemon:
        with _connect(daemon) as client:
            running_id = client.submit(SLOW)["job_id"]
            _wait_for(lambda: client.status(running_id)["state"] == "running")
            queued = [client.submit(SMALL)["job_id"] for _ in range(2)]
            with pytest.raises(ServeError) as excinfo:
                client.submit(SMALL)
            assert excinfo.value.code == "queue-full"
            # The rejected submission left no trace: no new job id.
            assert {j["job_id"] for j in client.jobs()} == {
                running_id, *queued
            }
            client.cancel(running_id)
            for job_id in queued:
                client.wait(job_id, timeout=60.0)


def test_tenant_quota_rejects_but_other_tenants_proceed(state_dir):
    with _daemon(
        state_dir, max_workers=1, tenant_quota=2
    ) as daemon, _connect(daemon) as client:
        running_id = client.submit(SLOW.with_overrides(tenant="acme"))["job_id"]
        _wait_for(lambda: client.status(running_id)["state"] == "running")
        client.submit(SMALL.with_overrides(tenant="acme"))
        with pytest.raises(ServeError) as excinfo:
            client.submit(SMALL.with_overrides(tenant="acme"))
        assert excinfo.value.code == "quota-exceeded"
        other = client.submit(SMALL.with_overrides(tenant="zenith"))
        assert other["state"] == "queued"
        client.cancel(running_id)


# -- protocol errors -------------------------------------------------------------


def test_malformed_and_unknown_frames_get_structured_errors(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        client._send({"op": "frobnicate"})
        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(client._recv_frame(timeout=10.0))
        assert excinfo.value.code == "unknown-op"

        client._sock.sendall(b"this is not json\n")
        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(client._recv_frame(timeout=10.0))
        assert excinfo.value.code == "bad-frame"

        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(
                client.request(
                    "submit", timeout=10.0,
                    request={"app": "vectorAdd", "schema": 99},
                )
            )
        assert excinfo.value.code == "bad-schema"

        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(
                client.request(
                    "submit", timeout=10.0,
                    request={"app": "vectorAdd", "colour": "red"},
                )
            )
        assert excinfo.value.code == "bad-field"

        with pytest.raises(ServeError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.code == "unknown-job"


def test_submit_of_unknown_app_is_rejected_before_the_journal(state_dir):
    """An unrunnable request gets an error frame, not a job id."""
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(
                client.request(
                    "submit", timeout=10.0, request={"app": "doom"},
                )
            )
        assert excinfo.value.code == "bad-value"
        assert "doom" in str(excinfo.value)
        assert client.stats()["journal_records"] == 0
    assert replay_journal(daemon.journal_path)[0] == []


# -- default paths ---------------------------------------------------------------


_ROOT_ENV = {"REPRO_SERVE_SOCKET": "env.sock", "REPRO_SERVE_DIR": "root"}


@pytest.mark.parametrize(
    "explicit, env, state, socket",
    [
        ("given.sock", _ROOT_ENV, "root", "given.sock"),
        (None, _ROOT_ENV, "root", "env.sock"),
        (None, {"REPRO_SERVE_DIR": "root"}, "root", "root/serve.sock"),
        (
            None,
            {},
            "home/.cache/repro-sigmavp/serve",
            "home/.cache/repro-sigmavp/serve/serve.sock",
        ),
    ],
    ids=["explicit", "socket-env", "serve-dir-env", "home"],
)
def test_default_paths_resolve_explicit_then_env_then_home(
    tmp_path, monkeypatch, explicit, env, state, socket
):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for name in ("REPRO_SERVE_SOCKET", "REPRO_SERVE_DIR"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, str(tmp_path / value))
    given = None if explicit is None else tmp_path / explicit
    assert default_state_dir() == tmp_path / state
    assert default_socket_path(given) == tmp_path / socket


# -- queue unit behavior ---------------------------------------------------------


def _service_job(number, tenant="default", qos=None, request=SMALL):
    return ServiceJob(
        job_id=f"job-{number:06d}",
        request=request.with_overrides(tenant=tenant, qos=qos),
        tenant=tenant,
        qos=qos,
    )


def test_queue_admission_raises_before_any_state_change():
    queue = ServiceQueue(max_depth=1, tenant_quota=0)
    queue.submit(_service_job(1))
    with pytest.raises(QueueFullError):
        queue.submit(_service_job(2))
    assert queue.depth() == 1

    quota_queue = ServiceQueue(max_depth=8, tenant_quota=1)
    quota_queue.submit(_service_job(3, tenant="acme"))
    with pytest.raises(QuotaExceededError):
        quota_queue.submit(_service_job(4, tenant="acme"))
    quota_queue.submit(_service_job(5, tenant="zenith"))
    assert quota_queue.tenant_load("acme") == 1
    assert quota_queue.tenant_load("zenith") == 1


def test_fair_share_interleaves_tenants():
    queue = ServiceQueue(policy="fair-share")
    for number in range(4):
        queue.submit(_service_job(number, tenant="acme"))
    queue.submit(_service_job(10, tenant="zenith"))
    first, second = queue.next_job(), queue.next_job()
    # DRR across tenants: the lone zenith job is not starved behind
    # acme's four even though every acme seq is older.
    assert {first.tenant, second.tenant} == {"acme", "zenith"}


def test_priority_deadline_prefers_higher_qos_tier():
    queue = ServiceQueue(policy="priority-deadline")
    queue.submit(_service_job(0, tenant="batch", qos=2))
    queue.submit(_service_job(1, tenant="interactive", qos=0))
    picked = queue.next_job()
    assert picked.tenant == "interactive"


# -- crash recovery --------------------------------------------------------------


def _journal_submit(journal, job_id, request, seq):
    journal.append({
        "type": "submit", "job_id": job_id, "request": request.to_dict(),
        "tenant": request.tenant, "qos": request.qos, "seq": seq,
    })


def test_replay_promotes_mid_run_job_to_faulted(state_dir):
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        _journal_submit(journal, "job-000001", SMALL, 0)
        journal.append({"type": "start", "job_id": "job-000001"})
        _journal_submit(journal, "job-000002", SMALL, 1)
    daemon = _daemon(state_dir)
    assert daemon.recovery["faulted"] == 1
    assert daemon.recovery["resumed"] == 1
    crashed = daemon._jobs["job-000001"]
    assert crashed.state is JobState.FAULTED
    assert crashed.error["code"] == "daemon-crash"
    survivor = daemon._jobs["job-000002"]
    assert survivor.state is JobState.QUEUED
    assert survivor.requeues == 0
    # The promotion was made durable: a second replay folds to the same
    # answer without re-deciding (no new fault records pile up).
    daemon2 = _daemon(state_dir)
    assert daemon2.recovery["faulted"] == 0
    assert daemon2._jobs["job-000001"].state is JobState.FAULTED
    records = (state_dir / "journal.jsonl").read_text().splitlines()
    assert sum(1 for r in records if '"type":"fault"' in r) == 1


def test_replay_counts_jobs_journaled_under_an_older_schema(state_dir):
    schema1 = dict(SMALL.to_dict(), schema=1, shards=None)
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        journal.append({
            "type": "submit", "job_id": "job-000001", "request": schema1,
            "tenant": "default", "qos": None, "seq": 0,
        })
        _journal_submit(journal, "job-000002", SMALL, 1)
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        assert daemon.recovery["unreadable"] == 1
        assert daemon.recovery["resumed"] == 1
        assert "job-000001" not in daemon._jobs
        assert client.ping()["recovery"]["unreadable"] == 1
        assert client.wait("job-000002", timeout=60.0)["state"] == "done"


def test_replay_counts_jobs_journaled_under_schema_2(state_dir):
    # Schema 2 still carried ``backend``; schema 3 dropped it.
    schema2 = dict(SMALL.to_dict(), schema=2, backend=None)
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        journal.append({
            "type": "submit", "job_id": "job-000001", "request": schema2,
            "tenant": "default", "qos": None, "seq": 0,
        })
        _journal_submit(journal, "job-000002", SMALL, 1)
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        assert daemon.recovery["unreadable"] == 1
        assert daemon.recovery["resumed"] == 1
        assert "job-000001" not in daemon._jobs
        assert client.wait("job-000002", timeout=60.0)["state"] == "done"


def test_replay_ignores_torn_tail(state_dir):
    path = state_dir / "journal.jsonl"
    with Journal(path, fsync=False) as journal:
        _journal_submit(journal, "job-000001", SMALL, 0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"type":"start","job_id":"job-0')  # crash mid-append
    records, stats = replay_journal(path)
    assert stats["torn"] == 1
    assert records[0]["state"] is JobState.QUEUED  # the torn start never took


def test_recovered_queued_job_runs_to_completion(state_dir):
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        _journal_submit(journal, "job-000001", SMALL, 0)
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        final = client.wait("job-000001", timeout=60.0)
        assert final["state"] == "done"
        assert final["digest"] == run(SMALL).digest
        # New submissions never reuse a replayed id.
        assert client.submit(SMALL)["job_id"] == "job-000002"


def test_graceful_stop_requeues_running_job(state_dir):
    daemon = _daemon(state_dir, max_workers=1)
    daemon.start()
    try:
        with _connect(daemon) as client:
            job_id = client.submit(SLOW)["job_id"]
            _wait_for(lambda: client.status(job_id)["state"] == "running")
    finally:
        daemon.stop(drain=False)
    job = daemon._jobs[job_id]
    assert job.state is JobState.QUEUED
    assert job.requeues == 1
    # A restarted daemon resumes it from the journal alone.
    daemon2 = _daemon(state_dir)
    assert daemon2.recovery["resumed"] == 1
    assert daemon2._jobs[job_id].state is JobState.QUEUED


def test_watch_streams_transitions_to_terminal(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        job_id = client.submit(SMALL)["job_id"]
        with ServeClient.connect(daemon.socket_path) as watcher:
            states = [f["state"] for f in watcher.watch(job_id)]
        assert states[-1] == "done"
        assert states == sorted(
            states, key=["queued", "running", "done"].index
        )


# -- reaper interleavings ----------------------------------------------------------


def _send_and_exit(conn, outcome):
    conn.send(outcome)
    conn.close()


def _die_silently(conn):
    os.kill(os.getpid(), signal.SIGKILL)


def _forked_worker(target, *args):
    """A real forked worker and the daemon's read end of its pipe."""
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.get_context("fork").Process(
        target=target, args=(child_conn, *args), daemon=True
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def test_reaper_keeps_result_sent_just_before_worker_exit(state_dir):
    daemon = _daemon(state_dir)
    job = _service_job(1)
    daemon._jobs[job.job_id] = job
    outcome = {"ok": True, "value": {"total_ms": 1.0}, "digest": "abc123"}
    proc, conn = _forked_worker(_send_and_exit, outcome)
    proc.join()  # the worker is gone before the reaper first looks
    daemon._reap(job, proc, conn)
    assert job.state is JobState.DONE, job.error
    assert job.digest == "abc123"


def test_reaper_reports_worker_died_when_pipe_is_empty(state_dir):
    daemon = _daemon(state_dir)
    job = _service_job(1)
    daemon._jobs[job.job_id] = job
    proc, conn = _forked_worker(_die_silently)
    daemon._reap(job, proc, conn)
    assert job.state is JobState.FAILED
    assert job.error["code"] == "worker-died"
    assert "exited with code -9" in job.error["message"]


# -- stop paths ------------------------------------------------------------------


def test_drain_stop_lets_running_job_finish(state_dir):
    daemon = _daemon(state_dir, max_workers=1)
    daemon.start()
    try:
        with _connect(daemon) as client:
            job_id = client.submit(SLOW)["job_id"]
            _wait_for(lambda: client.status(job_id)["state"] == "running")
    finally:
        daemon.stop(drain=True)
    assert daemon._jobs[job_id].state is JobState.DONE
    records = (state_dir / "journal.jsonl").read_text().splitlines()
    assert not [r for r in records if '"type":"requeue"' in r]


def test_stop_wakes_a_blocked_wait_at_once(state_dir):
    daemon = _daemon(state_dir, max_workers=1)
    daemon.start()
    replies = []

    def wait_for_job():
        with ServeClient.connect(daemon.socket_path) as waiter:
            try:
                waiter.wait(job_id)
            except ServeError as exc:
                replies.append((exc.code, time.monotonic()))

    try:
        with _connect(daemon) as client:
            # Runs for seconds unless stopped, so the wait cannot end
            # with a result before stop() is called.
            long_run = SLOW.with_overrides(scale_iterations=800)
            job_id = client.submit(long_run)["job_id"]
            _wait_for(lambda: client.status(job_id)["state"] == "running")
            thread = threading.Thread(target=wait_for_job, daemon=True)
            thread.start()
            time.sleep(0.2)  # let the waiter block inside the daemon
    finally:
        # A draining stop leaves the worker running for its timeout, so
        # no job transition can wake the waiter: only the stop itself.
        stop_called = time.monotonic()
        daemon.stop(drain=True, timeout=1.0)
    thread.join(timeout=10.0)
    assert [code for code, _ in replies] == ["daemon-stopping"]
    assert replies[0][1] - stop_called < 0.5
    # The drain timed out: the job was terminated and requeued.
    assert daemon._jobs[job_id].state is JobState.QUEUED
