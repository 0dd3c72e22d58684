"""Scalability benches: VP count and host-GPU count sweeps.

Beyond the paper's fixed 8-VP setup: how does simulation time grow with
the fleet size, and how much does a second host GPU (the Grid K520 board
carries two) buy back?
"""

from repro.analysis import Table
from repro.exec import FarmJob, ScenarioFarm


def _sweep(grid, **common):
    """Fan (n_vps, n_gpus) phase-loop points over the scenario farm."""
    farm = ScenarioFarm(workers=1)
    values = farm.map_values([
        FarmJob(
            fn="repro.exec.jobs:phase_point",
            kwargs={"n_vps": n, "n_host_gpus": g, **common},
            label=f"scale:{n}vps/{g}gpu",
        )
        for n, g in grid
    ])
    return dict(zip(grid, values))


def test_scaling_with_vp_count(benchmark, record_result):
    def sweep():
        totals = _sweep(
            [(n, 1) for n in (1, 2, 4, 8, 16)],
            t_kernel_ms=4.0, t_copy_ms=2.0, iterations=2,
        )
        return {n: total for (n, _), total in totals.items()}

    totals = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (n, total, total / totals[1])
        for n, total in sorted(totals.items())
    ]
    record_result(Table(
        "scaling_vps",
        "Scaling: fleet size on one host GPU (interleaved)",
        ["VPs", "Total (ms)", "vs 1 VP"],
        rows,
    ))
    # Interleaving keeps growth sublinear: 16 VPs cost far less than
    # 16x one VP.
    assert totals[16] < 10 * totals[1]
    # And more VPs never finish sooner.
    values = [totals[n] for n in (1, 2, 4, 8, 16)]
    assert values == sorted(values)


def test_scaling_with_host_gpus(benchmark, record_result):
    def sweep():
        totals = _sweep(
            [(8, g) for g in (1, 2, 4)],
            t_kernel_ms=6.0, t_copy_ms=1.0, iterations=2,
        )
        return {g: total for (_, g), total in totals.items()}

    totals = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (g, total, totals[1] / total)
        for g, total in sorted(totals.items())
    ]
    record_result(Table(
        "scaling_gpus",
        "Scaling: host GPUs for 8 VPs (compute-bound loop)",
        ["Host GPUs", "Total (ms)", "Speedup"],
        rows,
    ))
    # A second device buys a solid chunk of the compute-bound time back.
    assert totals[2] < totals[1] * 0.7
    assert totals[4] <= totals[2]
