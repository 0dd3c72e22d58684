"""Fig. 13: power estimation — estimated vs measured target power.

For the four estimation apps and both host GPUs: the power a meter on
the Tegra K1 board would read (reference model, including DRAM interface
energy) against the Eq. (6) estimate built from host profiles.  The
paper's claim: "within about 10% of the actual values".
"""

import pytest

from repro.analysis import fig13_series, render_table


@pytest.fixture(scope="module")
def power_points(farm_workers):
    return fig13_series(workers=farm_workers)


def test_fig13_regeneration(benchmark, power_points, record_result,
                            farm_workers):
    from repro.gpu import QUADRO_4000

    points = benchmark.pedantic(
        fig13_series,
        kwargs={"hosts": (QUADRO_4000,), "apps": ("matrixMul",),
                "workers": farm_workers},
        rounds=1, iterations=1,
    )
    assert len(points) == 1
    record_result(
        "fig13",
        render_table(
            ["Host", "App", "Measured (W)", "Estimate P (W)", "Error (%)"],
            [
                (p.host, p.app, p.measured_w, p.estimated_w, p.error_pct)
                for p in power_points
            ],
            title="Fig 13: target power, measured vs estimated (Tegra K1)",
        ),
    )


def test_fig13_estimates_within_ten_percent(power_points):
    """EXPERIMENTS.md: every error within ~11% (the worst is -10.61%)."""
    for point in power_points:
        assert abs(point.error_pct) <= 11.0, (point.host, point.app)


def test_fig13_error_signs(power_points):
    """The DRAM-heavy matrixMul under-estimates most on each host, and
    Mandelbrot alone over-estimates."""
    by_host = {}
    for point in power_points:
        by_host.setdefault(point.host, {})[point.app] = point.error_pct
    assert len(by_host) == 2
    for host, errors in by_host.items():
        assert min(errors, key=errors.get) == "matrixMul", host
        assert {app for app, err in errors.items() if err > 0} == {
            "Mandelbrot"
        }, host


def test_fig13_power_magnitudes_are_embedded_scale(power_points):
    """A Tegra K1 board draws single-digit watts under GPU load."""
    for point in power_points:
        assert 1.0 < point.measured_w < 12.0, (point.host, point.app)


def test_fig13_consistent_across_hosts(power_points):
    by_app = {}
    for point in power_points:
        by_app.setdefault(point.app, []).append(point.estimated_w)
    for app, values in by_app.items():
        assert abs(values[0] - values[1]) / values[0] < 0.05, app
