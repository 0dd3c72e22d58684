"""Fig. 10: Kernel Coalescing.

(a) 64 vectorAdd programs, coalescing batch degree swept; the paper
    reports 10.54x at 16 and 20.48x at 64 coalesced programs.
(b) Single-kernel execution time vs grid size 1..64 at 512-thread
    blocks: Eq. (9)'s staircase, with grids 9 and 16 costing the same.
"""

import pytest

from repro.analysis import (
    PAPER_FIG10A,
    fig10a_series,
    fig10b_series,
    render_series,
)


def test_fig10a_coalescence_effectiveness(benchmark, record_result, farm_workers):
    points = benchmark.pedantic(
        fig10a_series, kwargs={"workers": farm_workers}, rounds=1, iterations=1
    )
    record_result(
        "fig10a",
        render_series(
            "Fig 10(a): coalescing 64 vectorAdd programs",
            [p.batch for p in points],
            [
                ("Execution time (ms)", [p.total_ms for p in points]),
                ("Speedup", [p.speedup for p in points]),
            ],
            x_label="coalesced",
        ),
    )
    by_batch = {p.batch: p for p in points}
    # Execution time falls and speedup grows monotonically with degree
    # (up to float noise between saturated points).
    speedups = [p.speedup for p in points]
    for left, right in zip(speedups, speedups[1:]):
        assert right >= left - 1e-6
    # The paper's anchors: 10.54x at 16 (EXPERIMENTS.md: within 8%; the
    # record is 11.33x, 7.5% off) and 20.48x at 64 (the same order).
    assert by_batch[16].speedup == pytest.approx(PAPER_FIG10A[16], rel=0.08)
    assert by_batch[64].speedup > PAPER_FIG10A[64] / 2.5


def test_fig10b_grid_size_staircase(benchmark, record_result):
    points = benchmark.pedantic(fig10b_series, rounds=1, iterations=1)
    record_result(
        "fig10b",
        render_series(
            "Fig 10(b): kernel time vs grid size (block = 512)",
            [p.grid for p in points],
            [("Execution time (ms)", [p.time_ms for p in points])],
            x_label="grid",
        ),
    )
    times = {p.grid: p.time_ms for p in points}
    # Paper: "the same execution time is obtained both for a grid of
    # size 9 and a grid of size 16".
    assert times[9] == pytest.approx(times[16], rel=0.02)
    assert times[17] > times[16] * 1.1
    assert times[33] > times[32] * 1.05
    # Eq. (9): four levels across 1..64 at the 16-block wave quantum.
    assert times[64] > times[1] * 2.0
