"""Reproducing the paper's Fig. 3: the interleaved engine schedule.

Fig. 3 contrasts two VPs' (copy, kernel, copy)-style submissions without
(a) and with (b) Kernel Interleaving.  These tests assert the *schedule
shapes* directly from the engine timelines: without interleaving the
phases serialize; with it, VP B's copy slots into the gap while VP A's
kernel runs, and the engines overlap.
"""

import pytest

from repro.core import SHARED_MEMORY
from repro.core.scenarios import run_sigma_vp
from repro.workloads.synthetic import make_phase_workload


@pytest.fixture(scope="module")
def schedules():
    spec = make_phase_workload(t_kernel_ms=6.0, t_copy_ms=6.0)
    serial = run_sigma_vp(spec, n_vps=2, interleaving=False, coalescing=False,
                          transport=SHARED_MEMORY)
    inter = run_sigma_vp(spec, n_vps=2, interleaving=True, coalescing=False,
                         transport=SHARED_MEMORY)
    return serial, inter


def _gpu(result):
    return result.extras["framework"].gpu


def test_fig3a_serial_never_overlaps(schedules):
    serial, _ = schedules
    gpu = _gpu(serial)
    spans = sorted(
        gpu.h2d_engine.timeline + gpu.compute_engine.timeline
        + gpu.d2h_engine.timeline,
        key=lambda s: s.start_ms,
    )
    for left, right in zip(spans, spans[1:]):
        assert right.start_ms >= left.end_ms - 1e-9


def test_fig3b_interleaved_overlaps_copy_and_compute(schedules):
    _, inter = schedules
    gpu = _gpu(inter)
    kernel_spans = gpu.compute_engine.timeline
    copy_spans = gpu.h2d_engine.timeline + gpu.d2h_engine.timeline
    overlaps = sum(
        1
        for k in kernel_spans
        for c in copy_spans
        if c.start_ms < k.end_ms - 1e-9 and k.start_ms < c.end_ms - 1e-9
    )
    assert overlaps >= 1  # Fig. 3(b): COPY B1 under KERNEL.X


def test_fig3b_b_copy_starts_during_a_kernel(schedules):
    """The defining move: while VP A's kernel occupies the compute
    engine, VP B's input copy proceeds on the copy engine."""
    _, inter = schedules
    gpu = _gpu(inter)
    first_kernel = gpu.compute_engine.timeline[0]
    h2d_spans = gpu.h2d_engine.timeline
    assert any(
        span.start_ms < first_kernel.end_ms - 1e-9
        and span.end_ms > first_kernel.start_ms
        for span in h2d_spans[1:]  # some copy other than the very first
    )


def test_fig3_total_time_improves(schedules):
    serial, inter = schedules
    assert inter.total_ms < serial.total_ms * 0.8
