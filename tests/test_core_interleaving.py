"""Tests for the analytical Kernel Interleaving models (Eqs. 7-8)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.interleaving import (
    balanced_speedup,
    expected_speedup,
    interleaved_total_time,
    serial_total_time,
)


def test_serial_is_3nt_when_balanced():
    assert serial_total_time(4, 10.0, 10.0) == pytest.approx(120.0)  # 3NT


def test_interleaved_matches_eq7():
    # Ttotal = 2*Tm + N*max(Tm, Tk)
    assert interleaved_total_time(4, 10.0, 25.0) == pytest.approx(20 + 4 * 25)
    assert interleaved_total_time(4, 25.0, 10.0) == pytest.approx(50 + 4 * 25)


def test_balanced_speedup_matches_eq8():
    # Speedup = 3N / (2 + N)
    assert balanced_speedup(2) == pytest.approx(1.5)
    assert balanced_speedup(4) == pytest.approx(2.0)
    assert balanced_speedup(32) == pytest.approx(96 / 34)


def test_balanced_speedup_approaches_three():
    assert balanced_speedup(1000) == pytest.approx(3.0, abs=0.01)


def test_expected_speedup_consistent_with_balanced():
    for n in (2, 4, 8, 16, 32):
        assert expected_speedup(n, 5.0, 5.0) == pytest.approx(balanced_speedup(n))


def test_speedup_peaks_when_kernel_equals_copy():
    """Fig. 9(a): the maximum sits at Tk = Tm (the latency-hiding sweet
    spot marked by the orange dotted line)."""
    tm = 13.44
    peak = expected_speedup(2, tm, tm)
    assert expected_speedup(2, tm, tm / 4) < peak
    assert expected_speedup(2, tm, tm * 4) < peak


def test_validation():
    with pytest.raises(ValueError):
        serial_total_time(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        interleaved_total_time(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        balanced_speedup(0)


@given(
    # Eq. 7 models the pipelined schedule of N >= 2 programs.
    n=st.integers(min_value=2, max_value=256),
    tm=st.floats(min_value=0.01, max_value=1000, allow_nan=False),
    tk=st.floats(min_value=0.01, max_value=1000, allow_nan=False),
)
def test_interleaving_never_slower(n, tm, tk):
    """Eq. 7 never exceeds the serial schedule and never beats 3x."""
    serial = serial_total_time(n, tm, tk)
    interleaved = interleaved_total_time(n, tm, tk)
    assert interleaved <= serial + 1e-9
    assert serial / interleaved <= 3.0 + 1e-9


def test_interleaving_achieves_near_bound_end_to_end():
    """The pipelined dispatcher lands close to the analytic lower bound
    for the Fig-9 phase loop (Eq. 7 *is* that bound plus pipeline fill)."""
    from repro.core import SHARED_MEMORY
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads.synthetic import make_phase_workload

    spec = make_phase_workload(t_kernel_ms=4.0, t_copy_ms=4.0)
    result = run_sigma_vp(spec, n_vps=8, interleaving=True, coalescing=False,
                          transport=SHARED_MEMORY)
    # Engine-load bound: 8 copies of ~4 ms on the busiest engine.
    bound = 8 * 4.0
    assert result.total_ms >= bound
    assert result.total_ms < bound * 1.6  # within 60% of provably optimal
