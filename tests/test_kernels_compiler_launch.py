"""Tests for per-architecture compilation and launch geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu import QUADRO_4000, TEGRA_K1
from repro.kernels import (
    InstructionType,
    KernelCompiler,
    LaunchConfig,
    MemoryFootprint,
    launch_for_elements,
    natural_launch,
    uniform_kernel,
)


def _kernel(per_thread=None, name="k"):
    return uniform_kernel(
        name,
        per_thread or {"fp32": 4, "int": 2, "load": 1, "store": 1, "branch": 1},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=8192),
    )


# -- compiler ----------------------------------------------------------------


def test_compile_identity_on_host():
    compiler = KernelCompiler()
    compiled = compiler.compile(_kernel(), QUADRO_4000)
    # Quadro has identity expansion: static counts match the IR.
    assert compiled.blocks[0].static_count(InstructionType.FP32) == 4


def test_compile_expansion_on_target():
    compiler = KernelCompiler()
    kernel = _kernel({"int": 10, "branch": 4})
    compiled = compiler.compile(kernel, TEGRA_K1)
    # Tegra's toolchain emits more scaffolding (paper Fig. 8).
    assert compiled.blocks[0].static_count(InstructionType.INT) == pytest.approx(12.0)
    assert compiled.blocks[0].static_count(InstructionType.BRANCH) == pytest.approx(5.0)


def test_target_compile_has_more_instructions_than_host():
    """Fig. 8: 32 instructions on host vs 43 on target for the same block."""
    compiler = KernelCompiler()
    kernel = _kernel({"int": 10, "bit": 5, "branch": 5, "load": 6, "store": 6})
    host = compiler.compile(kernel, QUADRO_4000)
    target = compiler.compile(kernel, TEGRA_K1)
    ctx = LaunchConfig(grid_size=1, block_size=32, elements=32).context()
    assert target.per_thread_mix(ctx).total > host.per_thread_mix(ctx).total


def test_compile_caching():
    compiler = KernelCompiler()
    kernel = _kernel()
    first = compiler.compile(kernel, QUADRO_4000)
    second = compiler.compile(kernel, QUADRO_4000)
    assert first is second
    assert len(compiler) == 1


def test_compile_cache_distinguishes_architectures():
    compiler = KernelCompiler()
    kernel = _kernel()
    host = compiler.compile(kernel, QUADRO_4000)
    target = compiler.compile(kernel, TEGRA_K1)
    assert host is not target
    assert len(compiler) == 2


def test_compiler_clear():
    compiler = KernelCompiler()
    compiler.compile(_kernel(), QUADRO_4000)
    compiler.clear()
    assert len(compiler) == 0


def test_sigma_scales_with_threads():
    compiler = KernelCompiler()
    compiled = compiler.compile(_kernel(), QUADRO_4000)
    small = LaunchConfig(grid_size=1, block_size=128, elements=128)
    large = LaunchConfig(grid_size=4, block_size=128, elements=512)
    sigma_small = compiled.sigma_total(small)
    sigma_large = compiled.sigma_total(large)
    assert sigma_large == pytest.approx(4 * sigma_small)


def test_sigma_per_type_structure():
    compiler = KernelCompiler()
    compiled = compiler.compile(_kernel({"fp64": 3}), QUADRO_4000)
    launch = LaunchConfig(grid_size=2, block_size=64, elements=128)
    sigma = compiled.sigma(launch)
    assert sigma[InstructionType.FP64] == pytest.approx(3 * 128)
    assert sigma[InstructionType.FP32] == 0.0


# -- launch ---------------------------------------------------------------------


def test_launch_validation():
    with pytest.raises(ValueError):
        LaunchConfig(grid_size=0, block_size=256, elements=10)
    with pytest.raises(ValueError):
        LaunchConfig(grid_size=1, block_size=0, elements=10)
    with pytest.raises(ValueError):
        LaunchConfig(grid_size=1, block_size=1, elements=-1)


def test_launch_threads():
    launch = LaunchConfig(grid_size=9, block_size=512, elements=4608)
    assert launch.threads == 4608


def test_launch_for_elements_covers_data():
    launch = launch_for_elements(1000, block_size=256)
    assert launch.threads >= 1000
    assert launch.grid_size == 4


def test_launch_for_elements_per_thread():
    launch = launch_for_elements(1024, block_size=256, elements_per_thread=4)
    assert launch.grid_size == 1
    assert launch.elements == 1024


def test_natural_launch_uses_kernel_ratio():
    kernel = _kernel()
    launch = natural_launch(kernel, elements=512, block_size=128)
    assert launch.grid_size == 4


def test_merged_launch_adds_grids_and_elements():
    a = LaunchConfig(grid_size=4, block_size=256, elements=1024)
    b = LaunchConfig(grid_size=2, block_size=256, elements=512)
    merged = LaunchConfig.merge([a, b])
    assert merged.grid_size == 6
    assert merged.elements == 1536
    assert merged.block_size == 256


def test_merged_launch_requires_same_block_size():
    a = LaunchConfig(grid_size=1, block_size=256, elements=256)
    b = LaunchConfig(grid_size=1, block_size=128, elements=128)
    with pytest.raises(ValueError):
        LaunchConfig.merge([a, b])


@given(
    st.integers(min_value=1, max_value=10**7),
    st.sampled_from([32, 64, 128, 256, 512, 1024]),
)
def test_launch_for_elements_minimal_grid(elements, block_size):
    launch = launch_for_elements(elements, block_size=block_size)
    assert launch.threads >= elements
    # Grid is minimal: one block fewer would not cover the data.
    assert (launch.grid_size - 1) * block_size < elements


@given(
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
def test_merged_launch_is_commutative(grid_a, grid_b):
    a = LaunchConfig(grid_size=grid_a, block_size=256, elements=grid_a * 256)
    b = LaunchConfig(grid_size=grid_b, block_size=256, elements=grid_b * 256)
    ab, ba = LaunchConfig.merge([a, b]), LaunchConfig.merge([b, a])
    assert ab.grid_size == ba.grid_size
    assert ab.elements == ba.elements


# -- oracle: the pairwise merges the n-ary folds replaced ---------------------------


def _merged_with(self, other):
    """Two launches merged: the pairwise step the coalescer once folded."""
    if self.block_size != other.block_size:
        raise ValueError(
            "cannot merge launches with different block sizes: "
            f"{self.block_size} vs {other.block_size}"
        )
    return LaunchConfig(
        grid_size=self.grid_size + other.grid_size,
        block_size=self.block_size,
        elements=self.elements + other.elements,
        problem_size=max(self.problem_size, other.problem_size),
    )


def _footprint_merged(self, other):
    """Two footprints merged: the pairwise step the coalescer once folded."""
    weight_self = self.bytes_in + self.bytes_out or 1
    weight_other = other.bytes_in + other.bytes_out or 1
    total_weight = weight_self + weight_other
    return MemoryFootprint(
        bytes_in=self.bytes_in + other.bytes_in,
        bytes_out=self.bytes_out + other.bytes_out,
        working_set_bytes=max(self.working_set_bytes, other.working_set_bytes),
        locality=(self.locality * weight_self + other.locality * weight_other)
        / total_weight,
        coalesced_fraction=(
            self.coalesced_fraction * weight_self
            + other.coalesced_fraction * weight_other
        )
        / total_weight,
    )


def _left_fold(step, items):
    merged = items[0]
    for item in items[1:]:
        merged = step(merged, item)
    return merged


_LAUNCHES = st.builds(
    LaunchConfig,
    grid_size=st.integers(min_value=1, max_value=1 << 16),
    block_size=st.just(256),
    elements=st.integers(min_value=0, max_value=1 << 24),
    problem_size=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)

#: Zero byte counts are frequent, so the ``or 1`` weight of a member (and
#: of a running fold) that moves no bytes is exercised.
_BYTES = st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << 30))
_FRACTIONS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_FOOTPRINTS = st.builds(
    MemoryFootprint,
    bytes_in=_BYTES,
    bytes_out=_BYTES,
    working_set_bytes=_BYTES,
    locality=_FRACTIONS,
    coalesced_fraction=_FRACTIONS,
)


@given(st.lists(_LAUNCHES, min_size=1, max_size=64))
def test_launch_merge_equals_the_pairwise_fold(launches):
    assert LaunchConfig.merge(launches) == _left_fold(_merged_with, launches)


@given(st.lists(_FOOTPRINTS, min_size=1, max_size=64))
def test_footprint_merge_equals_the_pairwise_fold(footprints):
    merged = MemoryFootprint.merge(footprints)
    expected = _left_fold(_footprint_merged, footprints)
    assert merged == expected
    # Bit for bit, not merely equal: the weighted means fold in one order.
    assert merged.locality.hex() == expected.locality.hex()
    assert merged.coalesced_fraction.hex() == expected.coalesced_fraction.hex()


def test_footprint_merge_weighs_a_byteless_fold_as_one():
    # Two byteless members fold to a byteless footprint, which then
    # weighs one byte again (not two) against the third member.
    empty = MemoryFootprint(bytes_in=0, bytes_out=0, working_set_bytes=0,
                            locality=1.0, coalesced_fraction=0.0)
    third = MemoryFootprint(bytes_in=1, bytes_out=0, working_set_bytes=0,
                            locality=0.0, coalesced_fraction=1.0)
    merged = MemoryFootprint.merge([empty, empty, third])
    assert merged == _left_fold(_footprint_merged, [empty, empty, third])
    assert merged.locality == 0.5
    assert merged.coalesced_fraction == 0.5


@given(st.lists(_LAUNCHES, min_size=1, max_size=63), st.data())
def test_launch_merge_rejects_a_block_size_mismatch_anywhere(launches, data):
    at = data.draw(st.integers(min_value=0, max_value=len(launches)))
    odd = LaunchConfig(grid_size=1, block_size=128, elements=128)
    mixed = [*launches[:at], odd, *launches[at:]]
    with pytest.raises(ValueError, match="different block sizes") as raised:
        LaunchConfig.merge(mixed)
    with pytest.raises(ValueError) as expected:
        _left_fold(_merged_with, mixed)
    assert str(raised.value) == str(expected.value)
