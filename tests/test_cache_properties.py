"""Property-based tests for the probabilistic cache model's monotonicity.

The estimators lean on this model on both sides of Eq. (5); its
qualitative behaviour must be trustworthy: bigger caches never hit
less, more locality never hits less, and stall predictions respond in
the right direction.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import QUADRO_4000, TEGRA_K1
from repro.gpu.arch import CacheGeometry
from repro.gpu.cache import (
    data_stall_cycles,
    exposed_stall_cycles,
    hit_probability,
    memory_throughput_cycles,
)
from repro.kernels import MemoryFootprint


def _fp(working_set, locality, coalesced=0.9):
    return MemoryFootprint(
        bytes_in=working_set, bytes_out=0,
        working_set_bytes=working_set,
        locality=locality, coalesced_fraction=coalesced,
    )


def _cache(size_kb):
    return CacheGeometry(size_kb=size_kb, line_bytes=128, associativity=16,
                         miss_penalty_cycles=400.0)


@settings(max_examples=50, deadline=None)
@given(
    working_set=st.integers(min_value=1024, max_value=1 << 28),
    locality=st.floats(min_value=0, max_value=1, allow_nan=False),
    small_kb=st.integers(min_value=16, max_value=256),
    factor=st.integers(min_value=2, max_value=32),
)
def test_bigger_cache_never_hits_less(working_set, locality, small_kb, factor):
    fp = _fp(working_set, locality)
    small = hit_probability(fp, _cache(small_kb))
    large = hit_probability(fp, _cache(small_kb * factor))
    assert large >= small - 1e-12


@settings(max_examples=50, deadline=None)
@given(
    working_set=st.integers(min_value=1024, max_value=1 << 26),
    lo=st.floats(min_value=0, max_value=1, allow_nan=False),
    hi=st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_more_locality_never_hits_less_when_fitting(working_set, lo, hi):
    """When the working set fits the cache, temporal locality can only
    help (reuse hits dominate spatial-only streaming hits)."""
    lo, hi = sorted((lo, hi))
    cache = _cache(max(64, 2 * working_set // 1024 + 1))
    assert cache.size_bytes >= working_set
    p_lo = hit_probability(_fp(working_set, lo), cache)
    p_hi = hit_probability(_fp(working_set, hi), cache)
    assert p_hi >= p_lo - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    accesses=st.floats(min_value=0, max_value=1e8, allow_nan=False),
    working_set=st.integers(min_value=1024, max_value=1 << 26),
)
def test_stalls_scale_with_accesses(accesses, working_set):
    fp = _fp(working_set, 0.5)
    half = exposed_stall_cycles(QUADRO_4000, fp, accesses / 2, 256, 64)
    full = exposed_stall_cycles(QUADRO_4000, fp, accesses, 256, 64)
    assert full >= half - 1e-9
    assert full == pytest.approx(2 * half, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    accesses=st.floats(min_value=1e3, max_value=1e7, allow_nan=False),
    issue=st.floats(min_value=0, max_value=1e7, allow_nan=False),
)
def test_combined_stalls_bounded_below_by_components(accesses, issue):
    fp = _fp(1 << 22, 0.3)
    combined = data_stall_cycles(TEGRA_K1, fp, accesses, 256, 128, issue)
    latency = exposed_stall_cycles(TEGRA_K1, fp, accesses, 256, 128)
    throughput = memory_throughput_cycles(TEGRA_K1, fp, accesses)
    assert combined >= latency - 1e-9
    assert combined >= throughput - 0.7 * issue - 1e-6
    assert combined >= 0


@settings(max_examples=30, deadline=None)
@given(issue=st.floats(min_value=0, max_value=1e8, allow_nan=False))
def test_more_issue_hides_more_bandwidth(issue):
    """A fatter issue stream never increases the exposed data stalls."""
    fp = _fp(1 << 24, 0.1)
    base = data_stall_cycles(QUADRO_4000, fp, 1e6, 256, 512, issue)
    more = data_stall_cycles(QUADRO_4000, fp, 1e6, 256, 512, issue * 2 + 1)
    assert more <= base + 1e-9
