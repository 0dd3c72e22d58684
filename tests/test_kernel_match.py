"""Tests for the Kernel Match submodule (structural kernel identity)."""

from repro.core.kernel_match import kernel_digest, kernels_match, match_key
from repro.kernels import (
    InstructionMix,
    KernelIR,
    MemoryFootprint,
    ProgramBlock,
    uniform_kernel,
)


def _footprint(size=4096):
    return MemoryFootprint(bytes_in=size, bytes_out=size, working_set_bytes=size)


def _blocks(fp32=4.0, trips=2.0):
    return (
        ProgramBlock("body", InstructionMix(fp32=fp32, load=1), trips=trips),
    )


def test_identical_structure_matches_across_instances():
    """Two VPs' binaries submit the same kernel code: they must match,
    whatever Python objects they were built from."""
    a = KernelIR(name="appA-kernel", blocks=_blocks(), footprint=_footprint(),
                 signature="appA-kernel")
    b = KernelIR(name="appB-kernel", blocks=_blocks(), footprint=_footprint(),
                 signature="appB-kernel")
    assert kernels_match(a, b)
    assert kernel_digest(a) == kernel_digest(b)


def test_different_mix_does_not_match():
    a = KernelIR(name="k", blocks=_blocks(fp32=4.0), footprint=_footprint())
    b = KernelIR(name="k", blocks=_blocks(fp32=5.0), footprint=_footprint())
    assert not kernels_match(a, b)


def test_different_trip_count_does_not_match():
    a = KernelIR(name="k", blocks=_blocks(trips=2.0), footprint=_footprint())
    b = KernelIR(name="k", blocks=_blocks(trips=3.0), footprint=_footprint())
    assert not kernels_match(a, b)


def test_footprint_is_not_part_of_identity():
    """Coalesced launches differ in data size; the code identity must not."""
    a = KernelIR(name="k", blocks=_blocks(), footprint=_footprint(4096))
    b = KernelIR(name="k", blocks=_blocks(), footprint=_footprint(1 << 20))
    assert kernels_match(a, b)


def test_callable_trips_match_by_behaviour():
    a = KernelIR(
        name="k",
        blocks=(ProgramBlock("loop", InstructionMix(fp64=1),
                             trips=lambda ctx: ctx.problem_size),),
        footprint=_footprint(),
    )
    b = KernelIR(
        name="k",
        blocks=(ProgramBlock("loop", InstructionMix(fp64=1),
                             trips=lambda ctx: ctx.problem_size * 1.0),),
        footprint=_footprint(),
    )
    assert kernels_match(a, b)


def test_callable_trips_differ_by_behaviour():
    a = KernelIR(
        name="k",
        blocks=(ProgramBlock("loop", InstructionMix(fp64=1),
                             trips=lambda ctx: ctx.problem_size),),
        footprint=_footprint(),
    )
    b = KernelIR(
        name="k",
        blocks=(ProgramBlock("loop", InstructionMix(fp64=1),
                             trips=lambda ctx: 2 * ctx.problem_size),),
        footprint=_footprint(),
    )
    assert not kernels_match(a, b)


def test_block_structure_order_matters():
    first = ProgramBlock("a", InstructionMix(int=1), trips=1)
    second = ProgramBlock("b", InstructionMix(fp32=1), trips=1)
    k1 = KernelIR(name="k", blocks=(first, second), footprint=_footprint())
    k2 = KernelIR(name="k", blocks=(second, first), footprint=_footprint())
    assert not kernels_match(k1, k2)


def test_match_key_includes_block_size():
    kernel = uniform_kernel("k", {"fp32": 1}, _footprint())
    assert match_key(kernel, 256) != match_key(kernel, 512)
    assert match_key(kernel, 256) == (kernel_digest(kernel), 256)


def test_match_key_none_for_non_coalescible():
    kernel = uniform_kernel("k", {"fp32": 1}, _footprint(), coalescible=False)
    assert match_key(kernel, 256) is None


def test_digest_is_cached_and_stable():
    kernel = uniform_kernel("k", {"fp32": 1}, _footprint())
    first = kernel_digest(kernel)
    assert kernel.__dict__["_code_digest"] == first
    assert kernel_digest(kernel) == first


def test_digest_survives_with_footprint():
    """with_footprint builds a new object; identity must carry over."""
    kernel = uniform_kernel("k", {"fp32": 1}, _footprint())
    resized = kernel.with_footprint(_footprint(1 << 16))
    assert kernels_match(kernel, resized)
