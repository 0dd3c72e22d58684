"""Kernel Match: detecting identical kernels across VPs.

The paper's Fig. 2 shows a *Kernel Match* submodule inside the
Re-scheduler: Kernel Coalescing only applies when "an identical kernel
is called by more than one VP", and since each VP runs its own
application binary, identity cannot rely on pointers or names — ΣVP has
to recognize that two submitted kernels are the *same code*.

This module provides that recognition structurally: a digest over the
kernel's control-flow blocks (names, per-type static instruction counts,
constant trip counts) and its declared element ratio.  Two kernels with
the same digest execute the same instructions over their data, which is
precisely the coalescing precondition; data sizes, footprints, and
launch geometry are deliberately excluded (coalesced launches differ in
exactly those).

Dynamic trip-count rules (callables) are compared by observed behaviour:
the rule is sampled at a few canonical launch contexts, so two kernels
whose loop bounds react identically to the launch match even when built
from distinct closure objects.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Tuple

from ..kernels.ir import ALL_TYPES, KernelIR, LaunchContext, ProgramBlock

#: Launch contexts at which callable trip-count rules are sampled.
_PROBE_CONTEXTS: Tuple[LaunchContext, ...] = (
    LaunchContext(elements=1 << 10, threads=1 << 8, problem_size=16.0),
    LaunchContext(elements=1 << 16, threads=1 << 12, problem_size=320.0),
    LaunchContext(elements=3 * 7 * 11 * 13, threads=501, problem_size=7.0),
)


def _block_tokens(block: ProgramBlock) -> Iterable[str]:
    yield f"block:{block.name}"
    for itype in ALL_TYPES:
        yield f"{itype.name}={block.mix[itype]:.9g}"
    if callable(block.trips):
        for index, ctx in enumerate(_PROBE_CONTEXTS):
            yield f"trips@{index}={block.trip_count(ctx):.9g}"
    else:
        yield f"trips={float(block.trips):.9g}"


def kernel_digest(kernel: KernelIR) -> str:
    """A stable identity for the kernel's *code* (not its data).

    Kernels with equal digests run the same instruction stream per
    element, so their launches can merge into one timed kernel.
    """
    cached = kernel.__dict__.get("_code_digest")
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(f"ept={kernel.elements_per_thread:.9g};".encode())
    hasher.update(f"coalescible={kernel.coalescible};".encode())
    for block in kernel.blocks:
        for token in _block_tokens(block):
            hasher.update(token.encode())
        hasher.update(b"|")
    digest = hasher.hexdigest()[:16]
    # KernelIR is frozen; stash the memo through object.__setattr__ (the
    # digest is a pure function of the kernel's immutable fields).
    object.__setattr__(kernel, "_code_digest", digest)
    return digest


def kernels_match(a: KernelIR, b: KernelIR) -> bool:
    """True when two kernels are the identical code (Fig. 2's box)."""
    return kernel_digest(a) == kernel_digest(b)


def match_key(kernel: KernelIR, block_size: int) -> Optional[tuple]:
    """The coalescing identity key: code digest plus launch block size.

    Returns None for kernels that opted out of coalescing.  The
    signature participates too, so deliberately distinct kernels that
    happen to share a structure (rare, but possible with synthetic
    kernels) are not merged behind the application's back; the digest
    catches same-code kernels that arrived under different signatures
    from different VP binaries.
    """
    if not kernel.coalescible:
        return None
    return (kernel_digest(kernel), block_size)
