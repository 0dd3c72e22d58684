"""Reference kernel timing model.

This is the microarchitecture-level model that plays the role of *real
hardware* in the reproduction: the host GPU device model uses it to time
kernel executions (producing the profiles the paper reads from the
manufacturer's profiler), and running it with the target architecture's
parameters provides the ground-truth "observed execution on an actual
target device" against which the estimators of
:mod:`repro.core.estimation` are judged (paper Fig. 12).

Model structure
---------------
A launch of ``grid`` blocks distributes blocks round-robin over the SMs;
the most-loaded SM carries ``ceil(grid / sm_count)`` blocks and determines
the elapsed issue time.  This directly yields the grid-alignment staircase
of the paper's Fig. 10(b) and Eq. (9): every grid size in
``(k-1)*sm_count+1 .. k*sm_count`` costs the same.

Elapsed cycles are **issue + data stalls + other stalls**:

* **issue cycles** — per-warp instruction issue through each SM's
  schedulers at per-type reciprocal throughput (Eq. 3's tau), quantized
  to full device waves;
* **data stalls** — the probabilistic cache model's
  Upsilon[data]{K,T}: the larger of exposed miss-latency stalls and the
  DRAM-bandwidth time the issue stream cannot hide;
* **other stalls** — a small fixed pipeline/launch overhead plus a
  fraction of issue (fetch/sync hiccups).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..caching import caches_enabled
from ..kernels.compiler import CompiledKernel
from ..obs import metrics as _obs_metrics
from ..kernels.ir import ALL_TYPES, InstructionMix, InstructionType, MEMORY_TYPES
from ..kernels.launch import LaunchConfig
from . import cache as cache_model
from .arch import GPUArchitecture

#: Fraction of ideal issue cycles lost to miscellaneous (non-data) stalls:
#: instruction fetch, synchronization, pipeline drain.
OTHER_STALL_FRACTION = 0.04

#: Fixed per-launch pipeline ramp cycles (in addition to the driver-level
#: launch overhead accounted in milliseconds by the device model).
PIPELINE_RAMP_CYCLES = 1500.0

#: Default bound on a timing model's profile memo.  The multiplexed VPs
#: launch the same few (kernel, geometry) pairs thousands of times, so a
#: few thousand distinct entries cover any realistic simulation.
DEFAULT_PROFILE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ExecutionProfile:
    """Everything the profiler learns from one kernel execution.

    This is the reproduction's analog of the vendor profiler output the
    paper lists in Section 2: "the number of executed instructions (per
    instruction type), the elapsed clock cycles, and the percentages of
    each occurred stall".
    """

    kernel_name: str
    arch_name: str
    launch: LaunchConfig
    sigma: Dict[InstructionType, float]
    issue_cycles: float
    memory_cycles: float
    data_stall_cycles: float
    other_stall_cycles: float
    elapsed_cycles: float
    time_ms: float
    cache_hits: float
    cache_misses: float
    cache_hit_probability: float
    waves: int
    occupancy: float

    @property
    def sigma_total(self) -> float:
        return sum(self.sigma.values())

    @property
    def stall_fraction(self) -> float:
        if self.elapsed_cycles <= 0:
            return 0.0
        return (self.data_stall_cycles + self.other_stall_cycles) / self.elapsed_cycles

    def stall_breakdown(self) -> Dict[str, float]:
        """Percentages of elapsed cycles per stall reason.

        A degenerate launch (zero or negative elapsed cycles) reports 0%
        for every reason — the same guard :attr:`stall_fraction` applies,
        so the two views can never disagree about whether stalls exist.
        """
        if self.elapsed_cycles <= 0:
            return {"data_dependency": 0.0, "other": 0.0}
        return {
            "data_dependency": 100.0 * self.data_stall_cycles / self.elapsed_cycles,
            "other": 100.0 * self.other_stall_cycles / self.elapsed_cycles,
        }


class KernelTimingModel:
    """Times compiled-kernel launches on a given architecture.

    The full profile of a launch is a pure function of the compiled
    kernel and the launch geometry, and the multiplexed VPs submit the
    same (kernel, geometry) pairs over and over, so :meth:`execute`
    memoizes its :class:`ExecutionProfile` per **(compiled kernel,
    launch)** with LRU eviction.  The cache key uses the compiled
    kernel's identity — each entry holds a strong reference, so the id
    cannot be recycled while the entry lives, and a hit additionally
    verifies the stored object *is* the requested one.  Models are
    per-architecture instances (one per :class:`HostGPU`), so entries
    can never leak across architectures.
    """

    def __init__(
        self,
        arch: GPUArchitecture,
        profile_cache_size: int = DEFAULT_PROFILE_CACHE_SIZE,
    ):
        if profile_cache_size < 1:
            raise ValueError(
                f"profile_cache_size must be positive, got {profile_cache_size}"
            )
        self.arch = arch
        self.profile_cache_size = profile_cache_size
        self._profile_cache: "OrderedDict[Tuple[int, LaunchConfig], Tuple[CompiledKernel, ExecutionProfile]]" = (
            OrderedDict()
        )
        # Content-addressed second tier, keyed by :func:`profile_key`.  The
        # coalescer mints fresh merged KernelIR objects every round, so the
        # id-keyed first tier misses on structurally-identical launches;
        # this tier catches them.
        self._content_cache: "OrderedDict[str, ExecutionProfile]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def __repr__(self) -> str:
        return f"KernelTimingModel({self.arch.name!r})"

    def clear_cache(self) -> None:
        self._profile_cache.clear()
        self._content_cache.clear()

    # -- component models ------------------------------------------------

    def issue_cycles(self, compiled: CompiledKernel, launch: LaunchConfig) -> float:
        """Elapsed issue cycles, quantized to full device waves (Eq. 9).

        The device executes the grid in waves of ``concurrent_blocks``
        resident blocks; a partially-filled wave costs a full wave — the
        paper's data-alignment observation ("the same execution time is
        obtained both for a grid of size 9 and a grid of size 16"), and
        the resource waste Kernel Coalescing reclaims by merging small
        grids into aligned ones.
        """
        per_thread = compiled.per_thread_mix(launch.context())
        return self._issue_cycles_from_mix(per_thread, launch)

    def _issue_cycles_from_mix(
        self, per_thread: InstructionMix, launch: LaunchConfig
    ) -> float:
        arch = self.arch
        warps_per_block = max(1, math.ceil(launch.block_size / arch.warp_size))
        wave_quantum = arch.concurrent_blocks(launch.block_size)
        blocks_per_sm_per_wave = max(1, wave_quantum // arch.sm_count)
        waves = math.ceil(launch.grid_size / wave_quantum)
        warp_cycles = sum(
            per_thread[t] * arch.warp_issue_cycles[t] for t in ALL_TYPES
        )
        return (
            waves
            * blocks_per_sm_per_wave
            * warps_per_block
            * warp_cycles
            / arch.schedulers_per_sm
        )

    def memory_cycles(self, compiled: CompiledKernel, launch: LaunchConfig) -> float:
        """Cycles to move the launch's DRAM traffic at peak bandwidth."""
        per_thread = compiled.per_thread_mix(launch.context())
        accesses = _accesses_from_mix(per_thread, launch.threads)
        return cache_model.memory_throughput_cycles(
            self.arch, compiled.ir.footprint, accesses
        )

    def data_stall_cycles(self, compiled: CompiledKernel, launch: LaunchConfig) -> float:
        """Upsilon[data]{K,H}: data-dependency stalls (latency + bandwidth).

        The per-thread mix is folded once and feeds both the access count
        and the issue-cycle input, the same sharing ``_compute_profile``
        does — the public component methods no longer re-derive it per
        sub-model.
        """
        per_thread = compiled.per_thread_mix(launch.context())
        accesses = _accesses_from_mix(per_thread, launch.threads)
        issue = self._issue_cycles_from_mix(per_thread, launch)
        return cache_model.data_stall_cycles(
            self.arch,
            compiled.ir.footprint,
            accesses,
            launch.block_size,
            launch.grid_size,
            issue,
        )

    # -- the full execution ----------------------------------------------

    def execute(self, compiled: CompiledKernel, launch: LaunchConfig) -> ExecutionProfile:
        """Model one launch and return its (memoized) execution profile."""
        self._check_arch(compiled)
        key = (id(compiled), launch)
        registry = _obs_metrics.REGISTRY
        memo_on = caches_enabled()
        if memo_on:
            entry = self._profile_cache.get(key)
            if entry is not None and entry[0] is compiled:
                self.cache_hits += 1
                if registry is not None:
                    registry.counter("cache.profile.hits").inc()
                self._profile_cache.move_to_end(key)
                return entry[1]
        self.cache_misses += 1
        if registry is not None:
            registry.counter("cache.profile.misses").inc()
        profile, content_key = self._miss_lookup(compiled, launch, memo_on)
        if profile is None:
            profile = self._compute_profile(compiled, launch)
        self._remember(key, compiled, profile, content_key, memo_on)
        return profile

    def profile_cached(self, compiled: CompiledKernel, launch: LaunchConfig) -> bool:
        """Whether the id-keyed memo holds this launch (a silent peek)."""
        entry = self._profile_cache.get((id(compiled), launch))
        return entry is not None and entry[0] is compiled

    # -- lookup tiers ------------------------------------------------------

    def _check_arch(self, compiled: CompiledKernel) -> None:
        if compiled.arch is not self.arch and compiled.arch.name != self.arch.name:
            raise ValueError(
                f"kernel compiled for {compiled.arch.name!r} cannot execute "
                f"on {self.arch.name!r}"
            )

    def _miss_lookup(
        self, compiled: CompiledKernel, launch: LaunchConfig, memo_on: bool
    ) -> Tuple[Optional[ExecutionProfile], Optional[str]]:
        """Content-memo probe behind an id-keyed memo miss.

        The profile is a pure function of the encoded content key, so a
        content hit is bit-identical to recomputation.  Returns
        ``(profile or None, content key or None)``; with the memos off
        there is no key to compute.
        """
        if not memo_on:
            return None, None
        content_key = profile_key(compiled, launch)
        cached = self._content_cache.get(content_key)
        if cached is not None:
            self._content_cache.move_to_end(content_key)
            registry = _obs_metrics.REGISTRY
            if registry is not None:
                registry.counter("cache.profile.content_hits").inc()
        return cached, content_key

    def _remember(
        self,
        key: Tuple[int, LaunchConfig],
        compiled: CompiledKernel,
        profile: ExecutionProfile,
        content_key: Optional[str],
        memo_on: bool,
    ) -> None:
        if not memo_on:
            return
        self._profile_cache[key] = (compiled, profile)
        if len(self._profile_cache) > self.profile_cache_size:
            self._profile_cache.popitem(last=False)
        if content_key is not None:
            self._content_cache[content_key] = profile
            if len(self._content_cache) > self.profile_cache_size:
                self._content_cache.popitem(last=False)

    def _compute_profile(
        self, compiled: CompiledKernel, launch: LaunchConfig
    ) -> ExecutionProfile:
        """One launch's profile, with shared intermediates computed once.

        The per-thread mix, access count, and issue cycles feed several
        component models; deriving them once here (instead of once per
        public component method) keeps even a cache-miss execution cheap
        while producing bit-identical numbers — every component below
        applies the same pure formulas to the same inputs.
        """
        arch = self.arch
        per_thread = compiled.per_thread_mix(launch.context())
        threads = launch.threads
        sigma = {t: per_thread[t] * threads for t in ALL_TYPES}
        accesses = _accesses_from_mix(per_thread, threads)
        issue = self._issue_cycles_from_mix(per_thread, launch)
        memory = cache_model.memory_throughput_cycles(
            arch, compiled.ir.footprint, accesses
        )
        data_stalls = cache_model.data_stall_cycles(
            arch,
            compiled.ir.footprint,
            accesses,
            launch.block_size,
            launch.grid_size,
            issue,
        )
        other_stalls = OTHER_STALL_FRACTION * issue + PIPELINE_RAMP_CYCLES
        # Bandwidth saturation already surfaces inside the data-stall
        # model, so elapsed time is issue plus stalls.
        elapsed = issue + data_stalls + other_stalls

        behavior = cache_model.predict_behavior(
            compiled.ir.footprint, arch.cache, accesses
        )
        concurrent = arch.concurrent_blocks(launch.block_size)
        waves = max(1, math.ceil(launch.grid_size / concurrent))
        resident_blocks = min(launch.grid_size, concurrent)
        occupancy = min(
            1.0,
            resident_blocks * launch.block_size / arch.concurrent_threads,
        )

        return ExecutionProfile(
            kernel_name=compiled.name,
            arch_name=arch.name,
            launch=launch,
            sigma=sigma,
            issue_cycles=issue,
            memory_cycles=memory,
            data_stall_cycles=data_stalls,
            other_stall_cycles=other_stalls,
            elapsed_cycles=elapsed,
            time_ms=arch.cycles_to_ms(elapsed),
            cache_hits=behavior.hits,
            cache_misses=behavior.misses,
            cache_hit_probability=behavior.hit_probability,
            waves=waves,
            occupancy=occupancy,
        )

    def kernel_time_ms(self, compiled: CompiledKernel, launch: LaunchConfig) -> float:
        """Launch-to-completion time including driver launch overhead.

        Served from the profile memo when warm.  The dispatcher computes
        the same sum from the one profile it dispatches a kernel with.
        """
        profile = self.execute(compiled, launch)
        return self.arch.kernel_launch_overhead_ms + profile.time_ms


def _accesses_from_mix(per_thread: InstructionMix, threads: int) -> float:
    """Total memory accesses of a launch from its per-thread mix."""
    return sum(per_thread[t] for t in MEMORY_TYPES) * threads


# -- content keys ------------------------------------------------------------
#
# Every key is the sha256 of an *exact* textual encoding of the inputs the
# keyed computation reads, so two launches share a content-memo entry if
# and only if their profiles are bit-identical.  Floats are encoded with
# :func:`repr` (shortest round-trip form): keys never collide on "close"
# values and never split on equal ones.

#: Field separator inside key encodings (never appears in float reprs).
_SEP = "\x1f"


def _digest(parts: List[str]) -> str:
    return hashlib.sha256(_SEP.join(parts).encode()).hexdigest()


def _mix_token(mix: InstructionMix) -> str:
    return ",".join(repr(mix[t]) for t in ALL_TYPES)


def _mapping_token(mapping: Mapping[InstructionType, float]) -> str:
    return ",".join(repr(float(mapping.get(t, 1.0))) for t in ALL_TYPES)


#: Strong-ref memo of per-architecture hashes.  Architectures are a
#: handful of frozen module-level constants, so the map stays tiny.
_ARCH_HASHES: Dict[int, Tuple[GPUArchitecture, str]] = {}


def arch_config_hash(arch: GPUArchitecture) -> str:
    """sha256 over every architectural parameter the models consume."""
    cached = _ARCH_HASHES.get(id(arch))
    if cached is not None and cached[0] is arch:
        return cached[1]
    cache = arch.cache
    parts = [
        arch.name,
        str(arch.sm_count),
        str(arch.cores_per_sm),
        str(arch.schedulers_per_sm),
        repr(arch.clock_mhz),
        str(arch.max_threads_per_sm),
        str(arch.max_blocks_per_sm),
        str(arch.warp_size),
        _mapping_token(arch.warp_issue_cycles),
        str(cache.size_kb),
        str(cache.line_bytes),
        str(cache.associativity),
        repr(cache.miss_penalty_cycles),
        repr(arch.memory_bandwidth_gbps),
        repr(arch.copy_bandwidth_gbps),
        repr(arch.copy_latency_ms),
        repr(arch.kernel_launch_overhead_ms),
        repr(arch.static_power_w),
        _mapping_token(arch.instruction_energy_nj),
        repr(arch.dram_access_energy_nj),
        _mapping_token(arch.compile_expansion),
    ]
    value = _digest(parts)
    _ARCH_HASHES[id(arch)] = (arch, value)
    return value


def profile_key(compiled: CompiledKernel, launch: LaunchConfig) -> str:
    """Content key for one execution profile.

    Encodes the full closure of :meth:`KernelTimingModel._compute_profile`:
    the compiled per-block mixes, each block's trip count evaluated at this
    launch's actual context (trip rules may be closures, so they are
    evaluated, not named), the launch geometry, the memory footprint, and
    the complete architecture hash.
    """
    ctx = launch.context()
    footprint = compiled.ir.footprint
    parts = [
        "profile",
        compiled.ir.name,
        arch_config_hash(compiled.arch),
        str(launch.grid_size),
        str(launch.block_size),
        str(launch.elements),
        repr(launch.problem_size),
        str(footprint.bytes_in),
        str(footprint.bytes_out),
        str(footprint.working_set_bytes),
        repr(footprint.locality),
        repr(footprint.coalesced_fraction),
    ]
    for block in compiled.blocks:
        parts.append(_mix_token(block.mix))
        parts.append(repr(block.source.trip_count(ctx)))
    return _digest(parts)
