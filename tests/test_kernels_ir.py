"""Tests for the kernel IR: instruction mixes, blocks, footprints."""

import pytest
from hypothesis import given, strategies as st

from repro.kernels import (
    ALL_TYPES,
    InstructionMix,
    InstructionType,
    KernelIR,
    MemoryFootprint,
    ProgramBlock,
    align_up,
    ceil_div,
    uniform_kernel,
)
from repro.kernels.ir import LaunchContext


# -- InstructionMix --------------------------------------------------------


def test_mix_from_kwargs():
    mix = InstructionMix(fp32=4, load=2)
    assert mix[InstructionType.FP32] == 4
    assert mix[InstructionType.LOAD] == 2
    assert mix[InstructionType.STORE] == 0


def test_mix_from_mapping():
    mix = InstructionMix({InstructionType.INT: 3})
    assert mix[InstructionType.INT] == 3


def test_mix_string_keys():
    mix = InstructionMix({"fp64": 1, "BRANCH": 2})
    assert mix[InstructionType.FP64] == 1
    assert mix[InstructionType.BRANCH] == 2


def test_mix_unknown_type_rejected():
    with pytest.raises(KeyError):
        InstructionMix(simd=1)


def test_mix_negative_rejected():
    with pytest.raises(ValueError):
        InstructionMix(fp32=-1)


def test_mix_total_and_flops():
    mix = InstructionMix(fp32=2, fp64=3, int=5, load=1)
    assert mix.total == 11
    assert mix.flops == 5
    assert mix.memory_accesses == 1


def test_mix_scaled():
    mix = InstructionMix(fp32=2).scaled(3)
    assert mix[InstructionType.FP32] == 6


def test_mix_scaled_negative_rejected():
    with pytest.raises(ValueError):
        InstructionMix(fp32=1).scaled(-1)


def test_mix_combined():
    a = InstructionMix(fp32=1, load=2)
    b = InstructionMix(fp32=3, store=1)
    c = a.combined(b)
    assert c[InstructionType.FP32] == 4
    assert c[InstructionType.LOAD] == 2
    assert c[InstructionType.STORE] == 1


def test_mix_expanded():
    mix = InstructionMix(int=10, branch=4).expanded({InstructionType.INT: 1.2})
    assert mix[InstructionType.INT] == pytest.approx(12.0)
    assert mix[InstructionType.BRANCH] == 4.0


def test_mix_equality():
    assert InstructionMix(fp32=1) == InstructionMix(fp32=1)
    assert InstructionMix(fp32=1) != InstructionMix(fp32=2)


@given(
    st.dictionaries(
        st.sampled_from([t.name.lower() for t in ALL_TYPES]),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        max_size=7,
    ),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_mix_scaling_is_linear(counts, factor):
    mix = InstructionMix(**counts)
    scaled = mix.scaled(factor)
    assert scaled.total == pytest.approx(mix.total * factor, rel=1e-9, abs=1e-6)


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from([t.name.lower() for t in ALL_TYPES]),
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            max_size=7,
        ),
        min_size=2,
        max_size=5,
    )
)
def test_mix_combination_is_commutative_in_total(count_dicts):
    mixes = [InstructionMix(**d) for d in count_dicts]
    forward = mixes[0]
    for mix in mixes[1:]:
        forward = forward.combined(mix)
    backward = mixes[-1]
    for mix in reversed(mixes[:-1]):
        backward = backward.combined(mix)
    assert forward.total == pytest.approx(backward.total)


# -- ProgramBlock -------------------------------------------------------------


def test_block_constant_trips():
    block = ProgramBlock("body", InstructionMix(fp32=1), trips=5)
    ctx = LaunchContext(elements=100, threads=10)
    assert block.trip_count(ctx) == 5.0


def test_block_callable_trips():
    block = ProgramBlock(
        "loop", InstructionMix(int=1), trips=lambda ctx: ctx.elements_per_thread
    )
    ctx = LaunchContext(elements=100, threads=10)
    assert block.trip_count(ctx) == 10.0


def test_block_negative_trips_rejected():
    block = ProgramBlock("bad", InstructionMix(int=1), trips=-1)
    with pytest.raises(ValueError):
        block.trip_count(LaunchContext(elements=1, threads=1))


def test_launch_context_elements_per_thread_zero_threads():
    ctx = LaunchContext(elements=100, threads=0)
    assert ctx.elements_per_thread == 0.0


# -- MemoryFootprint -----------------------------------------------------------


def test_footprint_validation():
    with pytest.raises(ValueError):
        MemoryFootprint(bytes_in=-1, bytes_out=0, working_set_bytes=0)
    with pytest.raises(ValueError):
        MemoryFootprint(bytes_in=0, bytes_out=0, working_set_bytes=0, locality=1.5)
    with pytest.raises(ValueError):
        MemoryFootprint(
            bytes_in=0, bytes_out=0, working_set_bytes=0, coalesced_fraction=-0.1
        )


def test_footprint_scaled():
    fp = MemoryFootprint(bytes_in=100, bytes_out=50, working_set_bytes=200)
    doubled = fp.scaled(2.0)
    assert doubled.bytes_in == 200
    assert doubled.bytes_out == 100
    assert doubled.working_set_bytes == 400
    assert doubled.locality == fp.locality


def test_footprint_merged_adds_bytes():
    a = MemoryFootprint(bytes_in=100, bytes_out=10, working_set_bytes=100, locality=0.5)
    b = MemoryFootprint(bytes_in=300, bytes_out=30, working_set_bytes=300, locality=0.9)
    merged = MemoryFootprint.merge([a, b])
    assert merged.bytes_in == 400
    assert merged.bytes_out == 40
    # Working sets do not add: the active set stays the larger member's.
    assert merged.working_set_bytes == 300
    # Weighted toward the larger data set.
    assert 0.5 < merged.locality < 0.9
    assert merged.locality > 0.7


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)
def test_footprint_merge_is_symmetric(size_a, size_b):
    a = MemoryFootprint(bytes_in=size_a, bytes_out=size_a // 2, working_set_bytes=size_a)
    b = MemoryFootprint(bytes_in=size_b, bytes_out=size_b // 2, working_set_bytes=size_b)
    ab, ba = MemoryFootprint.merge([a, b]), MemoryFootprint.merge([b, a])
    assert ab.bytes_in == ba.bytes_in
    assert ab.working_set_bytes == ba.working_set_bytes
    assert ab.locality == pytest.approx(ba.locality)


# -- KernelIR ---------------------------------------------------------------


def _footprint():
    return MemoryFootprint(bytes_in=1024, bytes_out=512, working_set_bytes=2048)


def test_kernel_requires_blocks():
    with pytest.raises(ValueError):
        KernelIR(name="empty", blocks=(), footprint=_footprint())


def test_kernel_signature_defaults_to_name():
    kernel = uniform_kernel("k", {"fp32": 1}, _footprint())
    assert kernel.signature == "k"


def test_kernel_explicit_signature():
    kernel = uniform_kernel("instance-1", {"fp32": 1}, _footprint(), signature="shared")
    assert kernel.signature == "shared"


def test_kernel_per_thread_mix_sums_blocks():
    blocks = (
        ProgramBlock("init", InstructionMix(int=2), trips=1),
        ProgramBlock("loop", InstructionMix(fp32=1, load=1), trips=10),
    )
    kernel = KernelIR(name="k", blocks=blocks, footprint=_footprint())
    mix = kernel.per_thread_mix(LaunchContext(elements=1, threads=1))
    assert mix[InstructionType.INT] == 2
    assert mix[InstructionType.FP32] == 10
    assert mix[InstructionType.LOAD] == 10


def test_kernel_with_footprint_replaces_only_footprint():
    kernel = uniform_kernel("k", {"fp32": 1}, _footprint())
    new_fp = MemoryFootprint(bytes_in=9, bytes_out=9, working_set_bytes=9)
    replaced = kernel.with_footprint(new_fp)
    assert replaced.footprint.bytes_in == 9
    assert replaced.name == kernel.name
    assert replaced.blocks == kernel.blocks


# -- helpers ------------------------------------------------------------------


def test_ceil_div():
    assert ceil_div(10, 3) == 4
    assert ceil_div(9, 3) == 3
    assert ceil_div(1, 512) == 1


def test_ceil_div_zero_denominator():
    with pytest.raises(ValueError):
        ceil_div(1, 0)


def test_align_up():
    assert align_up(4608, 8192) == 8192
    assert align_up(8192, 8192) == 8192
    assert align_up(8193, 8192) == 16384


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_align_up_properties(value, unit):
    aligned = align_up(value, unit)
    assert aligned >= value
    assert aligned % unit == 0
    assert aligned - value < unit
