"""Fig. 11: the benchmark suite on eight VPs.

For every application: the time to emulate the GPU code on eight VP
instances (the blue bars), the speedup from plain GPU multiplexing (red
line) and from multiplexing plus Kernel Interleaving and Kernel
Coalescing (green line).  Paper bands: 622x-2045x unoptimized,
1098x-6304x optimized.
"""

import pytest

from repro.analysis import FIG11_APPS, fig11_series, render_table
from repro.workloads import SUITE


@pytest.fixture(scope="module")
def suite_points(farm_workers):
    return fig11_series(workers=farm_workers)


def test_fig11_regeneration(benchmark, suite_points, record_result, farm_workers):
    points = benchmark.pedantic(
        fig11_series,
        kwargs={"apps": ("BlackScholes", "mergeSort"), "workers": farm_workers},
        rounds=1, iterations=1,
    )
    assert len(points) == 2
    record_result(
        "fig11",
        render_table(
            ["Application", "Emulation on VP (s)",
             "Speedup (multiplexing)", "Speedup (optimized)"],
            [
                (p.app, p.emulation_ms / 1e3,
                 p.multiplexing_speedup, p.optimized_speedup)
                for p in suite_points
            ],
            title="Fig 11: GPU-VP emulation vs SigmaVP, 8 VPs "
                  "(paper: 622-2045x plain, 1098-6304x optimized)",
        ),
    )


def test_fig11_all_speedups_are_orders_of_magnitude(suite_points):
    for point in suite_points:
        assert point.multiplexing_speedup > 100, point.app
        assert point.optimized_speedup > 100, point.app


def test_fig11_blackscholes_is_the_best_case(suite_points):
    by_app = {p.app: p for p in suite_points}
    best = max(suite_points, key=lambda p: p.multiplexing_speedup)
    assert best.app in ("BlackScholes", "Mandelbrot", "matrixMul")
    assert by_app["BlackScholes"].multiplexing_speedup > 1000
    # With both optimizations it is the best case outright (2290x, just
    # ahead of Mandelbrot's 2273x).
    best_optimized = max(suite_points, key=lambda p: p.optimized_speedup)
    assert best_optimized.app == "BlackScholes"


def test_fig11_fp_light_apps_trail(suite_points):
    """'Applications that use less floating-point instructions ... have
    relatively lower speedups than others.'"""
    by_app = {p.app: p for p in suite_points}
    fp_light = ("VolumeFiltering", "SobelFilter", "stereoDisparity", "mergeSort")
    fp_heavy = ("BlackScholes", "matrixMul", "Mandelbrot")
    worst_heavy = min(by_app[a].multiplexing_speedup for a in fp_heavy)
    for app in fp_light:
        assert by_app[app].multiplexing_speedup < worst_heavy, app


def test_fig11_non_coalescible_apps_gain_little(suite_points):
    """'convolutionSeparable, dct8x8, SobelFilter, MonteCarlo, nbody, and
    smokeParticles have kernels that are not sped up by the two
    optimizations.'  The largest gain among them is convolutionSeparable's
    1.063x."""
    by_app = {p.app: p for p in suite_points}
    for app in ("convolutionSeparable", "dct8x8", "SobelFilter",
                "MonteCarlo", "nbody", "smokeParticles"):
        gain = by_app[app].optimized_speedup / by_app[app].multiplexing_speedup
        assert gain < 1.07, app


def test_fig11_benefiting_apps_gain(suite_points):
    """The benefiting apps gain 1.2-2.6x (measured: simpleGL 1.34x to
    bicubicTexture 2.48x)."""
    by_app = {p.app: p for p in suite_points}
    for app in ("bicubicTexture", "stereoDisparity", "recursiveGaussian",
                "mergeSort", "simpleGL", "BlackScholes"):
        gain = by_app[app].optimized_speedup / by_app[app].multiplexing_speedup
        assert 1.2 <= gain <= 2.6, app


def test_fig11_covers_the_paper_suite(suite_points):
    assert {p.app for p in suite_points} == set(FIG11_APPS)
    assert set(FIG11_APPS) <= set(SUITE)
