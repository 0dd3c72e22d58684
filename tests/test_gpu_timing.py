"""Tests for the reference kernel timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.gpu import GRID_K520, QUADRO_4000, TEGRA_K1
from repro.gpu.timing import ExecutionProfile, KernelTimingModel
from repro.kernels import (
    InstructionMix,
    InstructionType,
    KernelCompiler,
    KernelIR,
    LaunchConfig,
    MemoryFootprint,
    ProgramBlock,
    uniform_kernel,
)

COMPILER = KernelCompiler()


def _kernel(per_thread=None, working_set=64 * 1024, locality=0.8, name="k"):
    return uniform_kernel(
        name,
        per_thread or {"fp32": 8, "int": 4, "load": 2, "store": 1, "branch": 1},
        MemoryFootprint(
            bytes_in=working_set,
            bytes_out=working_set // 2,
            working_set_bytes=working_set,
            locality=locality,
        ),
    )


def _profile(arch, kernel=None, launch=None):
    kernel = kernel or _kernel()
    launch = launch or LaunchConfig(grid_size=64, block_size=256, elements=64 * 256)
    model = KernelTimingModel(arch)
    compiled = COMPILER.compile(kernel, arch)
    return model.execute(compiled, launch)


def test_profile_basic_structure():
    profile = _profile(QUADRO_4000)
    assert profile.arch_name == "Quadro 4000"
    assert profile.elapsed_cycles > 0
    assert profile.time_ms > 0
    assert profile.sigma_total > 0
    assert 0.0 < profile.occupancy <= 1.0


def test_elapsed_at_least_components():
    profile = _profile(QUADRO_4000)
    assert profile.elapsed_cycles >= profile.issue_cycles
    assert profile.elapsed_cycles >= profile.memory_cycles
    assert profile.elapsed_cycles >= profile.data_stall_cycles


def test_stall_breakdown_percentages():
    profile = _profile(QUADRO_4000)
    breakdown = profile.stall_breakdown()
    assert set(breakdown) == {"data_dependency", "other"}
    assert all(0 <= v <= 100 for v in breakdown.values())


def test_wrong_architecture_rejected():
    model = KernelTimingModel(QUADRO_4000)
    compiled = COMPILER.compile(_kernel(), TEGRA_K1)
    launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
    with pytest.raises(ValueError):
        model.execute(compiled, launch)


def test_target_slower_than_hosts():
    """The embedded Tegra K1 must be slower than both host GPUs."""
    launch = LaunchConfig(grid_size=128, block_size=256, elements=128 * 256)
    kernel = _kernel()
    tegra = _profile(TEGRA_K1, kernel, launch)
    quadro = _profile(QUADRO_4000, kernel, launch)
    grid = _profile(GRID_K520, kernel, launch)
    assert tegra.time_ms > 3 * quadro.time_ms
    assert tegra.time_ms > 3 * grid.time_ms


def test_fp64_heavy_kernel_penalized_on_kepler():
    """Kepler is 1/24-rate FP64: the FP64/FP32 time ratio exceeds Fermi's."""
    launch = LaunchConfig(grid_size=64, block_size=256, elements=64 * 256)
    fp32 = _kernel({"fp32": 32}, name="fp32k")
    fp64 = _kernel({"fp64": 32}, name="fp64k")
    quadro_ratio = (
        _profile(QUADRO_4000, fp64, launch).issue_cycles
        / _profile(QUADRO_4000, fp32, launch).issue_cycles
    )
    kepler_ratio = (
        _profile(GRID_K520, fp64, launch).issue_cycles
        / _profile(GRID_K520, fp32, launch).issue_cycles
    )
    assert kepler_ratio > quadro_ratio


def test_grid_staircase():
    """Fig. 10(b): grid sizes within one SM-multiple cost the same."""
    model = KernelTimingModel(QUADRO_4000)
    kernel = _kernel()

    def issue(grid):
        launch = LaunchConfig(grid_size=grid, block_size=512, elements=grid * 512)
        return model.issue_cycles(COMPILER.compile(kernel, QUADRO_4000), launch)

    # The wave quantum at 512-thread blocks is 16 resident blocks:
    # grids 9..16 cost one wave (the paper's Fig. 10b observation).
    assert issue(9) == pytest.approx(issue(16))
    assert issue(16) < issue(17)
    assert issue(17) == pytest.approx(issue(32))


def test_issue_cycles_grow_linearly_with_full_waves():
    model = KernelTimingModel(QUADRO_4000)
    kernel = _kernel()

    def issue(grid):
        launch = LaunchConfig(grid_size=grid, block_size=512, elements=grid * 512)
        return model.issue_cycles(COMPILER.compile(kernel, QUADRO_4000), launch)

    assert issue(32) == pytest.approx(2 * issue(16))
    assert issue(64) == pytest.approx(4 * issue(16))


def test_memory_bound_kernel_limited_by_bandwidth():
    """A streaming kernel's elapsed time tracks memory, not issue, cycles."""
    kernel = _kernel(
        {"load": 8, "store": 4, "int": 1},
        working_set=256 * 1024 * 1024,
        locality=0.05,
    )
    profile = _profile(QUADRO_4000, kernel)
    assert profile.memory_cycles > profile.issue_cycles


def test_compute_bound_kernel_limited_by_issue():
    kernel = _kernel({"fp32": 200, "load": 0.25}, working_set=16 * 1024, locality=0.95)
    profile = _profile(QUADRO_4000, kernel)
    assert profile.issue_cycles > profile.memory_cycles


def test_kernel_time_includes_launch_overhead():
    model = KernelTimingModel(QUADRO_4000)
    compiled = COMPILER.compile(_kernel(), QUADRO_4000)
    launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
    profile = model.execute(compiled, launch)
    total = model.kernel_time_ms(compiled, launch)
    assert total == pytest.approx(
        QUADRO_4000.kernel_launch_overhead_ms + profile.time_ms
    )


def test_sigma_matches_compiled_sigma():
    compiled = COMPILER.compile(_kernel(), QUADRO_4000)
    launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
    profile = KernelTimingModel(QUADRO_4000).execute(compiled, launch)
    assert profile.sigma == compiled.sigma(launch)


def test_waves_counted():
    launch = LaunchConfig(grid_size=48, block_size=512, elements=48 * 512)
    profile = _profile(QUADRO_4000, launch=launch)
    # 16 concurrent 512-thread blocks on Quadro: 48 blocks = 3 waves.
    assert profile.waves == 3


@settings(max_examples=30, deadline=None)
@given(
    grid=st.integers(min_value=1, max_value=4096),
    block=st.sampled_from([64, 128, 256, 512]),
)
def test_time_monotonic_in_grid(grid, block):
    """More blocks never run meaningfully faster (same per-block work).

    Issue cycles are strictly monotone in the grid; elapsed time may dip
    slightly when extra resident blocks improve latency hiding, so it is
    checked with a tolerance.
    """
    model = KernelTimingModel(QUADRO_4000)
    kernel = _kernel()
    compiled = COMPILER.compile(kernel, QUADRO_4000)
    smaller = LaunchConfig(grid_size=grid, block_size=block, elements=grid * block)
    larger = LaunchConfig(
        grid_size=grid + 8, block_size=block, elements=(grid + 8) * block
    )
    assert model.issue_cycles(compiled, larger) >= model.issue_cycles(
        compiled, smaller
    )
    t_small = model.execute(compiled, smaller).elapsed_cycles
    t_large = model.execute(compiled, larger).elapsed_cycles
    # Within a wave, extra resident blocks can improve latency hiding by
    # up to the hiding model's range, so the elapsed dip can reach ~25%.
    assert t_large >= 0.7 * t_small


@settings(max_examples=20, deadline=None)
@given(
    fp32=st.floats(min_value=0, max_value=100, allow_nan=False),
    loads=st.floats(min_value=0, max_value=20, allow_nan=False),
)
def test_profile_invariants(fp32, loads):
    kernel = _kernel({"fp32": fp32, "load": loads, "int": 1})
    profile = _profile(TEGRA_K1, kernel)
    assert profile.elapsed_cycles > 0
    assert profile.time_ms == pytest.approx(
        TEGRA_K1.cycles_to_ms(profile.elapsed_cycles)
    )
    assert profile.cache_hits >= 0 and profile.cache_misses >= 0


# -- profile memo tiers --------------------------------------------------------


def _multiblock_kernel():
    """Multi-block kernel with a launch-dependent (callable) trip count."""
    return KernelIR(
        name="multiblock",
        blocks=(
            ProgramBlock(
                name="body",
                mix=InstructionMix(
                    {
                        InstructionType.FP32: 6.0,
                        InstructionType.INT: 2.0,
                        InstructionType.LOAD: 2.0,
                        InstructionType.STORE: 1.0,
                    }
                ),
                trips=lambda ctx: ctx.elements_per_thread,
            ),
            ProgramBlock(
                name="tail",
                mix=InstructionMix(
                    {InstructionType.BRANCH: 1.0, InstructionType.BIT: 2.0}
                ),
                trips=3.0,
            ),
        ),
        footprint=MemoryFootprint(
            bytes_in=256 * 1024,
            bytes_out=128 * 1024,
            working_set_bytes=256 * 1024,
            locality=0.5,
        ),
        elements_per_thread=8.0,
    )


def test_profile_cached_peeks_without_side_effects():
    compiled = COMPILER.compile(_multiblock_kernel(), QUADRO_4000)
    launch = LaunchConfig(grid_size=4, block_size=256, elements=4 * 256 * 8)
    model = KernelTimingModel(QUADRO_4000)
    assert not model.profile_cached(compiled, launch)
    assert model.cache_hits == 0 and model.cache_misses == 0
    model.execute(compiled, launch)
    assert model.profile_cached(compiled, launch)


def test_content_tier_shares_profiles_across_compiles():
    """Structurally identical compiles (fresh ids) reuse one profile.

    This is the coalescer's shape: every merge pass mints a brand-new
    merged ``KernelIR``, so the id-keyed memo always misses even though
    the launch is structurally identical to last round's.
    """
    kernel = _multiblock_kernel()
    launch = LaunchConfig(grid_size=9, block_size=512, elements=9 * 512 * 8)
    first = KernelCompiler().compile(kernel, QUADRO_4000)
    second = KernelCompiler().compile(kernel, QUADRO_4000)
    assert first is not second
    model = KernelTimingModel(QUADRO_4000)
    with obs.capture() as cap:
        p1 = model.execute(first, launch)
        p2 = model.execute(second, launch)
    assert p2 is p1
    snap = cap.registry.snapshot()
    assert snap["cache.profile.misses"]["value"] == 2
    assert snap["cache.profile.content_hits"]["value"] == 1


def test_component_methods_match_profile_fields():
    kernel = _multiblock_kernel()
    for arch in (QUADRO_4000, GRID_K520, TEGRA_K1):
        compiled = COMPILER.compile(kernel, arch)
        launch = LaunchConfig(grid_size=17, block_size=256, elements=17 * 256 * 8)
        model = KernelTimingModel(arch)
        profile = model.execute(compiled, launch)
        assert model.issue_cycles(compiled, launch) == profile.issue_cycles
        assert model.memory_cycles(compiled, launch) == profile.memory_cycles
        assert (
            model.data_stall_cycles(compiled, launch)
            == profile.data_stall_cycles
        )


# -- degenerate-elapsed handling -----------------------------------------------


def _degenerate_profile(elapsed):
    return ExecutionProfile(
        kernel_name="degenerate",
        arch_name="Quadro 4000",
        launch=LaunchConfig(grid_size=1, block_size=1, elements=0),
        sigma={t: 0.0 for t in InstructionType},
        issue_cycles=0.0,
        memory_cycles=0.0,
        data_stall_cycles=5.0,
        other_stall_cycles=5.0,
        elapsed_cycles=elapsed,
        time_ms=0.0,
        cache_hits=0.0,
        cache_misses=0.0,
        cache_hit_probability=0.0,
        waves=0,
        occupancy=0.0,
    )


@pytest.mark.parametrize("elapsed", [0.0, -1.0])
def test_stall_views_agree_on_degenerate_launches(elapsed):
    """``stall_breakdown`` and ``stall_fraction`` share the ``<= 0`` guard."""
    profile = _degenerate_profile(elapsed)
    assert profile.stall_fraction == 0.0
    assert profile.stall_breakdown() == {"data_dependency": 0.0, "other": 0.0}


def test_stall_views_consistent_when_positive():
    profile = _degenerate_profile(20.0)
    breakdown = profile.stall_breakdown()
    assert breakdown == {"data_dependency": 25.0, "other": 25.0}
    assert profile.stall_fraction == 0.5
