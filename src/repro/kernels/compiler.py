"""Per-architecture kernel lowering.

The paper's profile-based execution analysis compiles each kernel twice —
for the host GPU and for the target GPU (Fig. 7, step 1) — and uses the
resulting *static* per-block instruction counts mu{b,T} together with the
dynamic iteration counts lambda_b to derive the expected dynamic count
sigma{K,T} (Eq. 1, Fig. 8).  The "compiler" here applies each
architecture's per-type expansion factors to the abstract IR, which models
exactly the effect Fig. 8 illustrates: the same source block contains 32
instructions when compiled for the host and 43 for the target.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from ..caching import caches_enabled, register_cache_clearer
from ..obs import metrics as _obs_metrics

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..gpu.arch import GPUArchitecture

from .ir import (
    ALL_TYPES,
    InstructionMix,
    InstructionType,
    KernelIR,
    LaunchContext,
    ProgramBlock,
)
from .launch import LaunchConfig


@dataclass(frozen=True)
class CompiledBlock:
    """A program block lowered for one architecture: mu{b,T} per type."""

    source: ProgramBlock
    mix: InstructionMix  # static per-execution counts after expansion

    @property
    def name(self) -> str:
        return self.source.name

    def static_count(self, itype: InstructionType) -> float:
        """mu{b_i, T}: static instructions of type ``i`` in this block."""
        return self.mix[itype]


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel lowered for one architecture."""

    ir: KernelIR
    arch: GPUArchitecture
    blocks: Tuple[CompiledBlock, ...]

    @property
    def name(self) -> str:
        return self.ir.name

    def per_thread_mix(self, ctx: LaunchContext) -> InstructionMix:
        """Dynamic per-thread mix: sum_b lambda_b * mu{b,T}."""
        mix = InstructionMix()
        for block in self.blocks:
            trips = block.source.trip_count(ctx)
            mix = mix.combined(block.mix.scaled(trips))
        return mix

    def sigma(self, launch: LaunchConfig) -> Dict[InstructionType, float]:
        """Expected dynamic instruction counts sigma{K_i, T} (Eq. 1).

        lambda_b here is the *total* execution count of block b across all
        launched threads, so sigma is the total executed instructions —
        the quantity the profiler reports and Eqs. (2)-(6) consume.
        """
        ctx = launch.context()
        per_thread = self.per_thread_mix(ctx)
        threads = launch.threads
        return {t: per_thread[t] * threads for t in ALL_TYPES}

    def sigma_total(self, launch: LaunchConfig) -> float:
        return sum(self.sigma(launch).values())


#: Default bound on a compiler's memo; far above any real kernel count,
#: it only guards pathological churn (e.g. endless merged-kernel variants).
DEFAULT_COMPILE_CACHE_SIZE = 4096


class KernelCompiler:
    """Lowers :class:`KernelIR` to per-architecture static counts.

    Compilation results are memoized per **(kernel id, arch name)**
    with LRU eviction: SigmaVP compiles each distinct kernel object once
    per architecture and reuses the result across the many launches
    that the multiplexed VPs submit.  Keying on the object
    identity (the cache entry holds a strong reference, so the id cannot
    be recycled while the entry lives) means two same-signature kernels
    that differ in footprint or trip rules — e.g. the coalescer's merged
    variants — never collide or evict each other.
    """

    def __init__(self, cache_size: int = DEFAULT_COMPILE_CACHE_SIZE):
        if cache_size < 1:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[int, str], CompiledKernel]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def compile(self, kernel: KernelIR, arch: GPUArchitecture) -> CompiledKernel:
        key = (id(kernel), arch.name)
        registry = _obs_metrics.REGISTRY
        if caches_enabled():
            cached = self._cache.get(key)
            if cached is not None and cached.ir is kernel:
                self.hits += 1
                if registry is not None:
                    registry.counter("cache.compile.hits").inc()
                self._cache.move_to_end(key)
                return cached
        self.misses += 1
        if registry is not None:
            registry.counter("cache.compile.misses").inc()
        blocks = tuple(
            CompiledBlock(source=block, mix=block.mix.expanded(arch.compile_expansion))
            for block in kernel.blocks
        )
        compiled = CompiledKernel(ir=kernel, arch=arch, blocks=blocks)
        if caches_enabled():
            self._cache[key] = compiled
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return compiled

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


#: A module-level compiler instance for convenience; components that need
#: isolated caches construct their own.
DEFAULT_COMPILER = KernelCompiler()

register_cache_clearer(DEFAULT_COMPILER.clear)


def compile_kernel(kernel: KernelIR, arch: GPUArchitecture) -> CompiledKernel:
    """Compile with the shared default compiler."""
    return DEFAULT_COMPILER.compile(kernel, arch)
