"""Table 1: execution time of matrix multiplication, six routes.

Regenerates the paper's Table 1 — 300 multiplications of two 320x320
double-precision matrices executed natively on the host GPU, through
software emulation on the host CPU and inside the binary-translated VP,
through SigmaVP, and as a plain C program on both CPUs.
"""

import pytest

from repro.analysis import build_table1, render_table1


@pytest.fixture(scope="module")
def table1_rows(farm_workers):
    return build_table1(workers=farm_workers)


def test_table1_regeneration(benchmark, table1_rows, record_result,
                             farm_workers):
    rows = benchmark.pedantic(
        build_table1, kwargs={"workers": farm_workers}, rounds=1, iterations=1
    )
    record_result("table1", render_table1(rows))
    by_key = {row.key: row for row in rows}
    # The reproduction contract (EXPERIMENTS.md): every route's ratio
    # within ~7% of the paper's (the worst, C / CPU, is 6.0% off), and
    # the orderings intact.
    for key, row in by_key.items():
        assert row.ratio == pytest.approx(row.paper_ratio, rel=0.07), key
    assert by_key["CUDA / This work"].ratio < 10
    assert (
        by_key["C / CPU"].ratio
        < by_key["CUDA / Emul. on CPU"].ratio
        < by_key["C / VP"].ratio
        < by_key["CUDA / Emul. on VP"].ratio
    )


def test_table1_sigma_vp_route_timing(benchmark):
    """Benchmark just the SigmaVP route (the paper's contribution)."""
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import SUITE

    spec = SUITE["matrixMul"]
    result = benchmark.pedantic(
        run_sigma_vp, args=(spec,), kwargs={"n_vps": 1}, rounds=1, iterations=1
    )
    assert result.total_ms > 0
