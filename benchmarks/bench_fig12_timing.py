"""Fig. 12: timing estimation — normalized execution times.

For BlackScholes, matrixMul, dct8x8, and Mandelbrot: the host GPU's
observed time, the target (Tegra K1) observation (the normalization
base), and the three estimates C, C', C'' — profiled on both the Quadro
4000 and the Grid K520 hosts.
"""

import pytest

from repro.analysis import fig12_series
from repro.analysis.experiments import fig12


@pytest.fixture(scope="module")
def estimation_points(farm_workers):
    return fig12_series(workers=farm_workers)


def test_fig12_regeneration(benchmark, estimation_points, record_result,
                            farm_workers):
    from repro.gpu import QUADRO_4000

    points = benchmark.pedantic(
        fig12_series,
        kwargs={"hosts": (QUADRO_4000,), "apps": ("matrixMul",),
                "workers": farm_workers},
        rounds=1, iterations=1,
    )
    assert len(points) == 1
    record_result(fig12(estimation_points))


def test_fig12_host_is_much_faster_than_target(estimation_points):
    """'The execution times observed on the host GPU are much shorter
    than the observed and estimated values for the target GPU.'

    EXPERIMENTS.md: 0.014-0.150x of target; the top, Quadro 4000
    BlackScholes, is 0.15003x."""
    for point in estimation_points:
        assert 0.01 <= point.h_normalized <= 0.1501, (point.host, point.app)


def test_fig12_refinement_ladder(estimation_points):
    """C'' beats both cruder estimates on every app and host.

    C' is only *usually* better than C — the paper itself warns that
    carrying over the host's exact stall delays "can lower the
    estimation accuracy" — so C' vs C is held to a small slack, while
    C'' must strictly dominate.
    """
    for point in estimation_points:
        err = lambda x: abs(x - 1.0)
        assert err(point.c_double_prime_normalized) <= err(
            point.c_prime_normalized
        ) + 1e-9, (point.host, point.app)
        assert err(point.c_double_prime_normalized) <= err(
            point.c_normalized
        ) + 1e-9, (point.host, point.app)
        assert err(point.c_prime_normalized) <= err(
            point.c_normalized
        ) + 0.02, (point.host, point.app)


def test_fig12_c_double_prime_close_to_one(estimation_points):
    """'The estimates are close to 1 no matter which host GPU is used.'"""
    for point in estimation_points:
        assert point.c_double_prime_normalized == pytest.approx(1.0, abs=0.15), (
            point.host, point.app,
        )


def test_fig12_consistent_across_hosts(estimation_points):
    by_app = {}
    for point in estimation_points:
        by_app.setdefault(point.app, []).append(point.c_double_prime_normalized)
    for app, values in by_app.items():
        assert len(values) == 2
        assert abs(values[0] - values[1]) < 0.1, app
