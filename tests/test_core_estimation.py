"""Tests for profile-based execution analysis (paper Section 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimation import ExecutionAnalyzer
from repro.gpu import GRID_K520, QUADRO_4000, TEGRA_K1
from repro.kernels import (
    InstructionType,
    LaunchConfig,
    MemoryFootprint,
    uniform_kernel,
)


def _kernel(per_thread=None, working_set=96 * 1024, locality=0.85):
    return uniform_kernel(
        "est-k",
        per_thread or {"fp32": 20, "int": 8, "load": 2, "store": 1, "branch": 2},
        MemoryFootprint(
            bytes_in=working_set,
            bytes_out=working_set,
            working_set_bytes=working_set,
            locality=locality,
        ),
    )


def _launch(grid=128, block=256):
    return LaunchConfig(grid_size=grid, block_size=block, elements=grid * block)


@pytest.fixture
def analyzer():
    return ExecutionAnalyzer(QUADRO_4000, TEGRA_K1)


# -- sigma (Eq. 1) ------------------------------------------------------------


def test_sigma_differs_between_host_and_target(analyzer):
    """Fig. 8: the same kernel compiles to more instructions on target."""
    kernel, launch = _kernel(), _launch()
    sigma_host = sum(analyzer.sigma(kernel, launch, QUADRO_4000).values())
    sigma_target = sum(analyzer.sigma(kernel, launch, TEGRA_K1).values())
    assert sigma_target > sigma_host


def test_sigma_scales_with_launch(analyzer):
    kernel = _kernel()
    small = sum(analyzer.sigma(kernel, _launch(grid=16), TEGRA_K1).values())
    large = sum(analyzer.sigma(kernel, _launch(grid=64), TEGRA_K1).values())
    assert large == pytest.approx(4 * small)


# -- estimators (Eqs. 2, 4, 5) ----------------------------------------------------


def test_estimate_c_matches_peak_ipc_formula(analyzer):
    kernel, launch = _kernel(), _launch()
    sigma_total = sum(analyzer.sigma(kernel, launch, TEGRA_K1).values())
    assert analyzer.estimate_c(kernel, launch) == pytest.approx(
        sigma_total / TEGRA_K1.ipc_peak
    )


def test_ideal_cycles_use_device_tau(analyzer):
    kernel, launch = _kernel({"fp32": 10}), _launch()
    sigma = analyzer.sigma(kernel, launch, TEGRA_K1)
    expected = sigma[InstructionType.FP32] * TEGRA_K1.device_issue_cycles(
        InstructionType.FP32
    )
    assert analyzer.ideal_cycles(kernel, launch, TEGRA_K1) == pytest.approx(expected)


def test_refinement_ladder_approaches_truth(analyzer):
    """Fig. 12's shape: C < C' < C'' with C'' near the observation."""
    kernel, launch = _kernel(), _launch()
    host_profile = analyzer.profile_on_host(kernel, launch)
    truth = analyzer.observe_on_target(kernel, launch).elapsed_cycles

    est = analyzer.analyze(kernel, launch, host_profile=host_profile)
    err_c = abs(est.c_cycles - truth) / truth
    err_cp = abs(est.c_prime_cycles - truth) / truth
    err_cpp = abs(est.c_double_prime_cycles - truth) / truth

    assert err_cpp < err_cp < err_c
    assert err_cpp < 0.15


def test_c_double_prime_accurate_across_hosts():
    """Fig. 12(b): the estimate holds whichever host profiles the kernel."""
    kernel, launch = _kernel(), _launch()
    for host in (QUADRO_4000, GRID_K520):
        analyzer = ExecutionAnalyzer(host, TEGRA_K1)
        truth = analyzer.observe_on_target(kernel, launch).elapsed_cycles
        est = analyzer.analyze(kernel, launch)
        assert est.c_double_prime_cycles == pytest.approx(truth, rel=0.15)


def test_estimate_selection_by_name(analyzer):
    kernel, launch = _kernel(), _launch()
    est = analyzer.analyze(kernel, launch)
    assert est.cycles("C") == est.c_cycles
    assert est.cycles("C'") == est.c_prime_cycles
    assert est.cycles("C''") == est.c_double_prime_cycles
    with pytest.raises(ValueError):
        est.cycles("C'''")


def test_analyze_profiles_host_when_not_given(analyzer):
    kernel, launch = _kernel(), _launch()
    est = analyzer.analyze(kernel, launch)
    explicit = analyzer.analyze(
        kernel, launch, host_profile=analyzer.profile_on_host(kernel, launch)
    )
    assert est.c_double_prime_cycles == pytest.approx(explicit.c_double_prime_cycles)


def test_estimated_time_uses_target_clock(analyzer):
    cycles = 852_000.0  # one ms at Tegra's 852 MHz
    assert analyzer.estimated_time_ms(cycles) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        analyzer.estimated_time_ms(-1.0)


# -- power (Eq. 6) --------------------------------------------------------------


def test_power_estimate_within_paper_band(analyzer):
    """Fig. 13: estimates within ~10% of the measured value."""
    kernel, launch = _kernel(), _launch()
    measured = analyzer.observed_power(kernel, launch)
    estimated = analyzer.estimate_power(kernel, launch)
    error = abs(estimated.total_w - measured.total_w) / measured.total_w
    assert error < 0.12


def test_power_includes_static_component(analyzer):
    kernel, launch = _kernel(), _launch()
    estimate = analyzer.estimate_power(kernel, launch)
    assert estimate.static_w == TEGRA_K1.static_power_w
    assert estimate.total_w > TEGRA_K1.static_power_w
    assert estimate.dynamic_w > 0


def test_measured_power_exceeds_estimate_for_memory_heavy_kernels(analyzer):
    """DRAM interface energy is visible to the meter, not to Eq. (6)."""
    kernel = _kernel(
        {"load": 8, "store": 4, "int": 2},
        working_set=64 * 1024 * 1024,
        locality=0.1,
    )
    launch = _launch()
    measured = analyzer.observed_power(kernel, launch)
    estimated = analyzer.estimate_power(kernel, launch)
    assert measured.total_w > estimated.total_w


def test_power_energy_consistency(analyzer):
    kernel, launch = _kernel(), _launch()
    estimate = analyzer.estimate_power(kernel, launch)
    assert estimate.energy_mj == pytest.approx(
        estimate.total_w * estimate.execution_time_ms / 1e3
    )


def test_fp_heavy_kernel_draws_more_power(analyzer):
    launch = _launch()
    light = analyzer.estimate_power(_kernel({"int": 4, "load": 1}), launch)
    heavy = analyzer.estimate_power(
        _kernel({"fp32": 60, "load": 1}), launch
    )
    assert heavy.dynamic_w > light.dynamic_w


@settings(max_examples=15, deadline=None)
@given(
    fp32=st.floats(min_value=1, max_value=200, allow_nan=False),
    # Eq. (5)'s correction targets data-dependency stalls; for nearly
    # load-free kernels the swap is noise, so the ladder claim starts at
    # a modest memory intensity.
    loads=st.floats(min_value=0.5, max_value=10, allow_nan=False),
    # Tiny grids sit inside one device wave, where quantization noise
    # dominates both estimates; the ladder holds from a few waves up.
    grid=st.integers(min_value=32, max_value=1024),
)
def test_ladder_property(fp32, loads, grid):
    """The refinement chain never inverts: err(C'') <= err(C') or both tiny."""
    analyzer = ExecutionAnalyzer(QUADRO_4000, TEGRA_K1)
    kernel = _kernel({"fp32": fp32, "load": loads, "int": 2})
    launch = _launch(grid=grid)
    truth = analyzer.observe_on_target(kernel, launch).elapsed_cycles
    est = analyzer.analyze(kernel, launch)
    err_cp = abs(est.c_prime_cycles - truth) / truth
    err_cpp = abs(est.c_double_prime_cycles - truth) / truth
    assert err_cpp <= err_cp + 0.05
