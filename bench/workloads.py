"""Seeded request generators for the three benchmark workloads.

The program under test only ever sees the generated
:class:`repro.api.RunRequest` objects.  Each generator walks a fixed
grid of the factors that set a request's host cost (app, VP count, GPU
count, functional element count), in a fixed order.  The seed draws
only what barely moves host cost: the element count of a timing-only
run, and a stretch of about 1/64 of a functional run's element count.
Two seeds thus send different requests of the same cost, so a metric
moves with the code and not with the seed.

Catalog exclusions (apps no workload draws):

* ``stereoDisparity`` with ``functional=True`` and ``scale_elements``
  raises ``ValueError: cannot reshape array of size 65536 into shape
  (533,640)``.
* ``Mandelbrot`` functional is far too slow for a round.
* ``transpose``, ``dct8x8``, ``convolutionSeparable`` and
  ``SobelFilter`` ignore ``scale_elements``: their inputs stay
  2048x2048 per VP, about 1 GB for a 64-VP run.

``matrixMul`` ignores ``scale_elements`` too (two 320x320 matrices per
VP), so only ``functional-batched`` draws it, for its stacked batch
path.  In a timing-only run those inputs make it three to four times
costlier than any other app, and the top decile of latency would be
``matrixMul`` alone, its p90 flipping between it and the next app.

``functional-batched`` keeps the default socket transport: functional
``BlackScholes`` with coalescing, the ``shm`` transport and two
iterations fails with ``TypeError`` (an input buffer is still ``None``
when the merged kernel runs), e.g. with 8 VPs, ``max_batch=8`` and
``scale_elements=65536``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.api import RunRequest

#: Number of warm-up requests each round runs before timing starts.
WARMUP_REQUESTS = 10

#: Offset between a workload seed and the seed of its warm-up requests.
WARMUP_SEED_OFFSET = 1000

FLEET_APPS = (
    "vectorAdd", "BlackScholes", "mergeSort", "reduction", "scalarProd",
    "simpleGL", "physxParticles",
)
INTERLEAVE_APPS = (
    "MonteCarlo", "nbody", "smokeParticles", "vectorAdd", "BlackScholes",
    "mergeSort", "reduction", "scalarProd",
)
#: Apps with a batch-flagged functional kernel (stacked execution).
BATCHED_APPS = ("vectorAdd", "BlackScholes", "matrixMul")
#: Apps whose merged launches take the per-VP fallback path.
FALLBACK_APPS = (
    "MonteCarlo", "mergeSort", "reduction", "scalarProd", "histogram",
    "physxParticles", "simpleGL",
)

Grid = Sequence[Tuple[str, Sequence[Any]]]


def _grid(n: int, grid: Grid) -> List[Dict[str, Any]]:
    """The first ``n`` cells of ``grid``, first factor fastest, cycling."""
    size = 1
    for _, values in grid:
        size *= len(values)
    rows = []
    for i in range(n):
        row, k = {}, i % size
        for name, values in grid:
            row[name] = values[k % len(values)]
            k //= len(values)
        rows.append(row)
    return rows


def _assign(rng: random.Random, rows: List[Dict[str, Any]], name: str,
            values: Sequence[Any]) -> None:
    """Give ``values`` to ``rows`` in equal shares (up to one), in ``rng`` order."""
    column = [values[i % len(values)] for i in range(len(rows))]
    rng.shuffle(column)
    for row, value in zip(rows, column):
        row[name] = value


def fleet_coalesce(name: str, rng: random.Random, n: int) -> List[RunRequest]:
    """Kernel Coalescing at fleet scale: 16-64 VPs sharing one GPU.

    The coalescer merges same-kernel launches across VPs (``max_batch``
    8, 16 or 64), so this workload drives the coalescer, the sched
    pipeline and merged-kernel timing.  Runs are timing-only, so the
    execution backend does almost nothing.
    """
    rows = _grid(n, [("app", FLEET_APPS),
                     ("n_vps", tuple(16 + round(48 * k / 14) for k in range(15)))])
    design = random.Random(name)
    _assign(design, rows, "transport", ("shm", "socket"))
    _assign(design, rows, "max_batch", (8, 16, 64))
    _assign(rng, rows, "scale_elements", (1024, 4096))
    return [RunRequest(scale_iterations=1, **row) for row in rows]


def multigpu_interleave(name: str, rng: random.Random, n: int) -> List[RunRequest]:
    """Kernel Interleaving at scale: 16-48 VPs over 2 or 4 GPUs.

    Coalescing is off, so the coalescer is bypassed and the event loop,
    dispatcher and select/place stages do the work.  A coalescer change
    must leave this workload unmoved.
    """
    rows = _grid(n, [("app", INTERLEAVE_APPS),
                     ("n_vps", tuple(16 + round(32 * k / 6) for k in range(7))),
                     ("n_host_gpus", (2, 4))])
    design = random.Random(name)
    _assign(design, rows, "transport", ("shm", "socket"))
    _assign(design, rows, "placement", (None, "least-backlog"))
    _assign(rng, rows, "scale_elements", (1024, 4096))
    return [RunRequest(coalescing=False, scale_iterations=1, **row) for row in rows]


def functional_batched(name: str, rng: random.Random, n: int) -> List[RunRequest]:
    """Numerical (``functional=True``) runs with real inputs, 4-16 VPs.

    Coalescing is on in two thirds of the requests.  Merged launches of
    the batch-flagged apps run as one stacked backend call; the other
    apps take the per-VP fallback.  The backend layer is used both ways,
    together with real input generation and memory use.
    """
    rows = _grid(n, [("app", BATCHED_APPS + FALLBACK_APPS),
                     ("scale_elements", (2 ** 12, 2 ** 14, 2 ** 16)),
                     ("n_vps", (4, 8, 12, 16))])
    design = random.Random(name)
    _assign(design, rows, "coalescing", (True, True, False))
    _assign(design, rows, "max_batch", (8, 64))
    # Element counts move by about 1/64 either way, in equal shares, so
    # the data sizes change with the seed but the total work does not.
    # Steps stay multiples of 256: functional scalarProd reshapes its
    # inputs into rows of 256.
    _assign(rng, rows, "stretch", (-1, 0, 1))
    for row in rows:
        row["scale_elements"] += row.pop("stretch") * max(256, row["scale_elements"] // 64)
    return [RunRequest(functional=True, scale_iterations=1, **row) for row in rows]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its generator and round size."""

    name: str
    generate: Callable[[str, random.Random, int], List[RunRequest]]
    #: Requests per round.
    requests: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet-coalesce", fleet_coalesce, 105),
        Workload("multigpu-interleave", multigpu_interleave, 112),
        Workload("functional-batched", functional_batched, 120),
    )
}

#: Seed-1 digest of the first eight outputs (``run.py``'s ``pin_digest``)
#: per ``(workload, requests per round)``.  Any change to simulated
#: behaviour moves these.
PINNED_DIGESTS: Dict[Tuple[str, int], str] = {
    ("fleet-coalesce", 8):
        "fef832b7335792e7fb0f50a96766d6531bfb58e0fc42c951bdfcbd5dbdb30da9",
    ("fleet-coalesce", 105):
        "8ba28b7e3a80af3025d0e225ba93774c2a2d747ab3d96ab3b38e2244ad058b24",
    ("multigpu-interleave", 8):
        "c49783779260da50254d7ffbf57dcbcd7ed212798bf949710ae709700ef1a463",
    ("multigpu-interleave", 112):
        "f4b62a0f67954da5319d328581c1ef406450a3702c802613328f41354a7413e9",
    ("functional-batched", 8):
        "d01cbad90cac68516272222749e582808f3a075593b6fe5a59c0af849b4cf279",
    ("functional-batched", 120):
        "cbf13a6cdbfa115a595f33308e8a9cac0f4f001d0e5964b52823948fc8589a09",
}


def requests(workload: str, seed: int, n: int) -> List[RunRequest]:
    """The ``n`` measured requests of ``workload`` for ``seed``."""
    return WORKLOADS[workload].generate(workload, random.Random(f"{workload}/{seed}"), n)


def warmup_requests(workload: str, seed: int) -> List[RunRequest]:
    """Warm-up requests, drawn from ``seed + 1000``.

    They are the first cells of the workload's grid, so their cost
    barely depends on the seed.
    """
    return requests(workload, seed + WARMUP_SEED_OFFSET, WARMUP_REQUESTS)
