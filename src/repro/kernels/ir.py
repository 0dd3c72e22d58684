"""Kernel intermediate representation.

SigmaVP's profile-based execution analysis (paper Section 4) reasons about
kernels as a set of *program blocks*: "the largest portion of the kernel
that has a distant execution path determined by control instructions".
Each block has a static per-architecture instruction count mu{b,T} and a
dynamic iteration count lambda_b.  This module defines the architecture-
independent IR; :mod:`repro.kernels.compiler` lowers it per architecture.

Instruction types follow the paper's Eq. (1) taxonomy:
``i in {FP32, FP64, Int, Bit, B, Ld, St}``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple


class InstructionType(enum.Enum):
    """The seven instruction classes of the paper's Eq. (1)."""

    FP32 = "fp32"
    FP64 = "fp64"
    INT = "int"
    BIT = "bit"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"

    # Members are singletons compared by identity, so hash by identity
    # too: instruction mixes key their tables by type, and Enum's own
    # ``__hash__`` is a Python-level call.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"InstructionType.{self.name}"


#: Frequently-iterated tuple of all instruction types, in Eq. (1) order.
ALL_TYPES: Tuple[InstructionType, ...] = (
    InstructionType.FP32,
    InstructionType.FP64,
    InstructionType.INT,
    InstructionType.BIT,
    InstructionType.BRANCH,
    InstructionType.LOAD,
    InstructionType.STORE,
)

#: Memory-access instruction types (the ones the data-cache model covers).
MEMORY_TYPES: Tuple[InstructionType, ...] = (
    InstructionType.LOAD,
    InstructionType.STORE,
)


class InstructionMix:
    """Per-type instruction counts for one execution of a program block.

    Counts are per *thread* per block execution and may be fractional:
    an average over threads (e.g. a branch taken by half the threads
    contributes 0.5).
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[InstructionType, float]] = None, **kwargs: float):
        merged: Dict[InstructionType, float] = {}
        if counts:
            for itype, value in counts.items():
                merged[self._coerce(itype)] = merged.get(self._coerce(itype), 0.0) + float(value)
        for name, value in kwargs.items():
            itype = self._coerce(name)
            merged[itype] = merged.get(itype, 0.0) + float(value)
        for itype, value in merged.items():
            if value < 0:
                raise ValueError(f"negative instruction count for {itype}: {value}")
        self._counts = {t: merged.get(t, 0.0) for t in ALL_TYPES}

    @staticmethod
    def _coerce(key) -> InstructionType:
        if isinstance(key, InstructionType):
            return key
        try:
            return InstructionType[str(key).upper()]
        except KeyError:
            raise KeyError(f"unknown instruction type {key!r}") from None

    def __getitem__(self, itype: InstructionType) -> float:
        return self._counts[self._coerce(itype)]

    def __iter__(self):
        return iter(self._counts.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstructionMix):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        nonzero = {t.name: v for t, v in self._counts.items() if v}
        return f"InstructionMix({nonzero})"

    @property
    def total(self) -> float:
        """Total instructions across all types."""
        return sum(self._counts.values())

    @property
    def memory_accesses(self) -> float:
        return sum(self._counts[t] for t in MEMORY_TYPES)

    @property
    def flops(self) -> float:
        return self._counts[InstructionType.FP32] + self._counts[InstructionType.FP64]

    def scaled(self, factor: float) -> "InstructionMix":
        """A new mix with every count multiplied by ``factor``."""
        if factor < 0:
            raise ValueError(f"negative scale factor {factor}")
        return InstructionMix({t: v * factor for t, v in self._counts.items()})

    def combined(self, other: "InstructionMix") -> "InstructionMix":
        """Element-wise sum of two mixes."""
        return InstructionMix({t: self._counts[t] + other._counts[t] for t in ALL_TYPES})

    def expanded(self, factors: Mapping[InstructionType, float]) -> "InstructionMix":
        """Apply per-type expansion factors (used by the compiler)."""
        return InstructionMix(
            {t: self._counts[t] * float(factors.get(t, 1.0)) for t in ALL_TYPES}
        )

    def as_dict(self) -> Dict[InstructionType, float]:
        return dict(self._counts)


#: A trip-count rule maps a :class:`LaunchConfig`-like context to the number
#: of times one thread executes the block.  Plain numbers are allowed for
#: fixed trip counts.
TripCount = Callable[["LaunchContext"], float]


@dataclass(frozen=True)
class LaunchContext:
    """The dynamic quantities trip-count rules may depend on.

    ``elements`` is the number of data elements the launch processes;
    ``threads`` the total thread count; ``problem_size`` an app-specific
    scalar (e.g. the matrix dimension for matrixMul).
    """

    elements: int
    threads: int
    problem_size: float = 0.0

    @property
    def elements_per_thread(self) -> float:
        if self.threads <= 0:
            return 0.0
        return self.elements / self.threads


@dataclass(frozen=True)
class ProgramBlock:
    """A straight-line region of the kernel with one instruction mix.

    ``trips`` gives the per-thread iteration count lambda_b, either as a
    constant or as a rule evaluated against the launch context (the
    reproduction's analog of the paper's dynamically-inserted PTX
    iteration counters, footnote 2).
    """

    name: str
    mix: InstructionMix
    trips: object = 1.0  # float | TripCount

    def trip_count(self, ctx: LaunchContext) -> float:
        if callable(self.trips):
            value = float(self.trips(ctx))
        else:
            value = float(self.trips)
        if value < 0:
            raise ValueError(f"block {self.name!r} produced negative trip count {value}")
        return value


@dataclass(frozen=True)
class MemoryFootprint:
    """Data-movement characteristics of one kernel launch.

    These drive the copy-engine times (bytes in/out) and the probabilistic
    data-cache model (working set, locality).

    ``locality`` in [0, 1] is the fraction of memory accesses that enjoy
    short reuse distance (hit in cache when the working set fits);
    ``coalesced_fraction`` is the fraction of accesses that are
    memory-coalesced at warp level (distinct from SigmaVP's *kernel*
    coalescing — see paper footnote 1).
    """

    bytes_in: int
    bytes_out: int
    working_set_bytes: int
    locality: float = 0.7
    coalesced_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.bytes_in < 0 or self.bytes_out < 0 or self.working_set_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"locality must be in [0,1], got {self.locality}")
        if not 0.0 <= self.coalesced_fraction <= 1.0:
            raise ValueError(
                f"coalesced_fraction must be in [0,1], got {self.coalesced_fraction}"
            )

    def scaled(self, factor: float) -> "MemoryFootprint":
        """Footprint for a proportionally larger/smaller data set."""
        if factor < 0:
            raise ValueError(f"negative scale factor {factor}")
        return MemoryFootprint(
            bytes_in=int(round(self.bytes_in * factor)),
            bytes_out=int(round(self.bytes_out * factor)),
            working_set_bytes=int(round(self.working_set_bytes * factor)),
            locality=self.locality,
            coalesced_fraction=self.coalesced_fraction,
        )

    @classmethod
    def merge(cls, footprints: Sequence["MemoryFootprint"]) -> "MemoryFootprint":
        """Footprint of coalesced data sets processed by one launch.

        Byte totals add; the *working set* does not — the device holds
        the same number of resident blocks either way, so the active set
        at any instant matches the largest member's, which is what keeps
        a coalesced launch from (wrongly) appearing to thrash the cache.
        Locality and coalesced fraction are byte-weighted means, folded
        member by member from the left (a member moving no bytes weighs
        as one byte).
        """
        first = footprints[0]
        bytes_in = first.bytes_in
        bytes_out = first.bytes_out
        working_set = first.working_set_bytes
        locality = first.locality
        coalesced = first.coalesced_fraction
        for other in footprints[1:]:
            weight = bytes_in + bytes_out or 1
            weight_other = other.bytes_in + other.bytes_out or 1
            total = weight + weight_other
            bytes_in += other.bytes_in
            bytes_out += other.bytes_out
            working_set = max(working_set, other.working_set_bytes)
            locality = (locality * weight + other.locality * weight_other) / total
            coalesced = (coalesced * weight + other.coalesced_fraction * weight_other) / total
        return cls(bytes_in, bytes_out, working_set, locality, coalesced)


@dataclass(frozen=True)
class KernelIR:
    """An architecture-independent kernel description.

    ``signature`` identifies the kernel *code*: two launches with the same
    signature execute the same instructions over different data, which is
    exactly the condition Kernel Coalescing requires (paper Section 3).
    """

    name: str
    blocks: Tuple[ProgramBlock, ...]
    footprint: MemoryFootprint
    signature: str = ""
    elements_per_thread: float = 1.0
    #: Whether Kernel Coalescing may merge launches of this kernel.
    #: Kernels whose memory-access/management pattern defeats the merge
    #: (paper Section 5: convolutionSeparable, dct8x8, ...) set False.
    coalescible: bool = True

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError(f"kernel {self.name!r} has no program blocks")
        if not self.signature:
            object.__setattr__(self, "signature", self.name)

    def per_thread_mix(self, ctx: LaunchContext) -> InstructionMix:
        """Dynamic per-thread instruction mix: sum over blocks of trips*mix."""
        mix = InstructionMix()
        for block in self.blocks:
            mix = mix.combined(block.mix.scaled(block.trip_count(ctx)))
        return mix

    def with_footprint(self, footprint: MemoryFootprint) -> "KernelIR":
        return KernelIR(
            name=self.name,
            blocks=self.blocks,
            footprint=footprint,
            signature=self.signature,
            elements_per_thread=self.elements_per_thread,
            coalescible=self.coalescible,
        )


def uniform_kernel(
    name: str,
    per_thread: Mapping[InstructionType, float],
    footprint: MemoryFootprint,
    trips: object = 1.0,
    signature: str = "",
    coalescible: bool = True,
    elements_per_thread: float = 1.0,
) -> KernelIR:
    """Convenience constructor for single-block kernels."""
    block = ProgramBlock(name=f"{name}.body", mix=InstructionMix(per_thread), trips=trips)
    return KernelIR(
        name=name,
        blocks=(block,),
        footprint=footprint,
        signature=signature or name,
        coalescible=coalescible,
        elements_per_thread=elements_per_thread,
    )


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division, used throughout the launch/alignment math."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def align_up(value: int, unit: int) -> int:
    """Round ``value`` up to a multiple of ``unit`` (Eq. 9's alignment)."""
    return ceil_div(value, unit) * unit
