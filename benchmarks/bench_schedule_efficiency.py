"""Scheduler efficiency vs the analytic lower bound.

The paper calls its Re-scheduler "a non-preemptive, optimal scheduler
augmented for job dependencies [14]".  This bench measures how close
each dispatch discipline actually gets to the provable makespan lower
bound (max of the critical path and the busiest engine's load) across
workload shapes — the quantitative version of Fig. 3's before/after.
"""

from repro.analysis import Table
from repro.exec import FarmJob, ScenarioFarm

#: (name, kernel ms, copy ms): balanced, copy-bound, compute-bound.
SHAPES = (
    ("balanced", 4.0, 4.0),
    ("copy-bound", 1.0, 6.0),
    ("compute-bound", 8.0, 2.0),
)

N_VPS = 8


def _bound_ms(t_kernel, t_copy, n_vps):
    """Analytic makespan lower bound for the phase-loop fleet.

    Engine loads: n*t_copy on each copy engine, n*t_kernel on compute;
    the per-VP chain is t_copy + t_kernel + t_copy.
    """
    return max(n_vps * t_copy, n_vps * t_kernel, 2 * t_copy + t_kernel)


def test_schedule_efficiency(benchmark, record_result):
    def sweep():
        farm = ScenarioFarm(workers=1)
        totals = farm.map_values([
            FarmJob(
                fn="repro.exec.jobs:phase_point",
                kwargs={"n_vps": N_VPS, "t_kernel_ms": t_kernel,
                        "t_copy_ms": t_copy, "interleaving": interleaving},
                label=f"sched:{name}:{'inter' if interleaving else 'serial'}",
            )
            for name, t_kernel, t_copy in SHAPES
            for interleaving in (False, True)
        ])
        rows = []
        for index, (name, t_kernel, t_copy) in enumerate(SHAPES):
            serial_ms, inter_ms = totals[2 * index], totals[2 * index + 1]
            bound = _bound_ms(t_kernel, t_copy, N_VPS)
            rows.append((
                name,
                bound,
                serial_ms,
                bound / serial_ms,
                inter_ms,
                bound / inter_ms,
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_result(Table(
        "schedule_efficiency",
        f"Scheduler efficiency vs analytic lower bound ({N_VPS} VPs)",
        ["Shape", "Bound (ms)", "Serial (ms)", "Serial eff.",
         "Interleaved (ms)", "Interleaved eff."],
        rows,
    ))
    for name, bound, serial_ms, serial_eff, inter_ms, inter_eff in rows:
        # The interleaving policy reaches >=70% of provably optimal on
        # every shape and always beats the serial baseline.
        assert inter_eff > 0.7, name
        assert inter_eff > serial_eff, name
        # Nothing beats the bound.
        assert serial_ms >= bound and inter_ms >= bound, name
