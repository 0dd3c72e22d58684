"""Table 1 and Figs. 9-13: each experiment run once, archived and checked.

For every experiment of :data:`repro.analysis.EXPERIMENTS` this runs it
once, archives each of its tables as ``results/<stem>.txt`` and asserts
every one of its claims, the scorecard ``python -m repro report``
prints.
"""

import pytest

from repro.analysis import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(benchmark, record_result, name):
    experiment = EXPERIMENTS[name]
    tables = benchmark.pedantic(experiment.run, args=(1, ()), rounds=1, iterations=1)
    for table in tables:
        record_result(table)
    failed = [verdict for verdict in experiment.check(tables) if not verdict.passed]
    assert not failed, failed
