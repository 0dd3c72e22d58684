"""Launch configuration: grids, blocks, and data sizes.

CUDA kernels execute as a *grid* of thread *blocks*.  The paper's Eq. (9)
and Fig. 10(b) hinge on the relation between the data size, the grid size,
and the number of threads the GPU can hold simultaneously (the "alignment
unit" lambda), so launch geometry is modelled explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ir import KernelIR, LaunchContext, ceil_div


@dataclass(frozen=True)
class LaunchConfig:
    """Geometry and data volume of one kernel launch."""

    grid_size: int
    block_size: int
    elements: int
    problem_size: float = 0.0

    def __post_init__(self) -> None:
        if self.grid_size <= 0:
            raise ValueError(f"grid_size must be positive, got {self.grid_size}")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.elements < 0:
            raise ValueError(f"elements must be non-negative, got {self.elements}")

    @property
    def threads(self) -> int:
        return self.grid_size * self.block_size

    def context(self) -> LaunchContext:
        return LaunchContext(
            elements=self.elements,
            threads=self.threads,
            problem_size=self.problem_size,
        )

    @classmethod
    def merge(cls, launches: Sequence["LaunchConfig"]) -> "LaunchConfig":
        """Launch geometry after coalescing identical-kernel launches.

        Coalescing concatenates the data sets, so element counts add and the
        grid grows to cover the combined data with the same block size
        (paper Fig. 5/6); the problem size is the largest member's.  Block
        sizes must match — the launches run the same kernel code.
        """
        first = launches[0]
        block_size = first.block_size
        grid = first.grid_size
        elements = first.elements
        problem_size = first.problem_size
        for launch in launches[1:]:
            if launch.block_size != block_size:
                raise ValueError(
                    "cannot merge launches with different block sizes: "
                    f"{block_size} vs {launch.block_size}"
                )
            grid += launch.grid_size
            elements += launch.elements
            problem_size = max(problem_size, launch.problem_size)
        return cls(grid, block_size, elements, problem_size)


def launch_for_elements(
    elements: int,
    block_size: int = 256,
    elements_per_thread: float = 1.0,
    problem_size: float = 0.0,
) -> LaunchConfig:
    """Build the natural launch covering ``elements`` data items."""
    if elements <= 0:
        raise ValueError(f"elements must be positive, got {elements}")
    threads_needed = ceil_div(elements, max(1, int(elements_per_thread)))
    grid = max(1, ceil_div(threads_needed, block_size))
    return LaunchConfig(
        grid_size=grid,
        block_size=block_size,
        elements=elements,
        problem_size=problem_size,
    )


def natural_launch(kernel: KernelIR, elements: int, block_size: int = 256,
                   problem_size: float = 0.0) -> LaunchConfig:
    """Launch for ``kernel`` sized from its elements-per-thread ratio."""
    return launch_for_elements(
        elements,
        block_size=block_size,
        elements_per_thread=kernel.elements_per_thread,
        problem_size=problem_size,
    )
