"""Tests for the benchmark workload suite."""

import numpy as np
import pytest

from repro.kernels.functional import REGISTRY
from repro.workloads import SUITE, WorkloadSpec, get_workload
from repro.workloads.catalog import ESTIMATION_APPS
from repro.workloads.linalg import MATRIX_MUL, make_vectoradd_spec
from repro.workloads.synthetic import (
    FIG9_COPY_MS,
    calibrate_fp32_count,
    copy_bytes_for_ms,
    make_phase_workload,
    measured_phase_times,
)
from repro.gpu import QUADRO_4000


# -- suite integrity ------------------------------------------------------------


def test_suite_size():
    assert len(SUITE) >= 20


def test_suite_contains_paper_applications():
    paper_apps = {
        "simpleGL", "Mandelbrot", "marchingCubes", "bicubicTexture",
        "VolumeFiltering", "recursiveGaussian", "SobelFilter",
        "stereoDisparity", "convolutionSeparable", "dct8x8",
        "BlackScholes", "MonteCarlo", "matrixMul", "mergeSort",
        "nbody", "smokeParticles", "segmentationTreeThrust",
    }
    assert paper_apps <= set(SUITE)


def test_estimation_apps_in_suite():
    assert set(ESTIMATION_APPS) <= set(SUITE)


def test_get_workload():
    assert get_workload("matrixMul") is SUITE["matrixMul"]
    with pytest.raises(KeyError):
        get_workload("doom")


def test_every_spec_has_valid_launch():
    for spec in SUITE.values():
        launch = spec.launch_config()
        assert launch.grid_size >= 1
        assert launch.threads * max(1, int(spec.kernel.elements_per_thread)) >= (
            spec.elements
        )


def test_every_spec_has_positive_c_ops():
    for spec in SUITE.values():
        assert spec.c_ops > 0, spec.name


def test_noncuda_apps_are_the_paper_ones():
    """OpenGL / file-I/O apps carry non-CUDA work (Section 5's lists)."""
    for name in ("simpleGL", "Mandelbrot", "marchingCubes", "SobelFilter",
                 "nbody", "smokeParticles", "MonteCarlo",
                 "segmentationTreeThrust", "bicubicTexture",
                 "recursiveGaussian", "VolumeFiltering"):
        assert SUITE[name].uses_noncuda, name
    for name in ("BlackScholes", "matrixMul", "dct8x8", "mergeSort"):
        assert not SUITE[name].uses_noncuda, name


def test_non_coalescible_apps_are_the_paper_ones():
    """'convolutionSeparable, dct8x8, SobelFilter, MonteCarlo, nbody, and
    smokeParticles have kernels that are not sped up by the two
    optimizations' (Section 5)."""
    for name in ("convolutionSeparable", "dct8x8", "SobelFilter",
                 "MonteCarlo", "nbody", "smokeParticles"):
        assert not SUITE[name].coalescible, name
    for name in ("BlackScholes", "matrixMul", "mergeSort", "simpleGL"):
        assert SUITE[name].coalescible, name


def test_fp_fraction_ordering():
    """BlackScholes is FP-saturated; mergeSort has zero FP."""
    assert SUITE["BlackScholes"].fp_fraction > 0.5
    assert SUITE["mergeSort"].fp_fraction == 0.0
    assert SUITE["SobelFilter"].fp_fraction < 0.2


def test_matrixmul_matches_table1_setup():
    assert MATRIX_MUL.iterations == 300
    assert MATRIX_MUL.problem_size == 320
    assert MATRIX_MUL.element_bytes == 8  # double precision
    assert not MATRIX_MUL.streaming


def test_scaled_to():
    spec = SUITE["BlackScholes"]
    smaller = spec.scaled_to(spec.elements // 4, iterations=2)
    assert smaller.elements == spec.elements // 4
    assert smaller.iterations == 2
    assert smaller.kernel.footprint.bytes_in == pytest.approx(
        spec.kernel.footprint.bytes_in / 4, rel=0.01
    )
    assert smaller.readback_only == spec.readback_only


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", kernel=MATRIX_MUL.kernel, elements=0)
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", kernel=MATRIX_MUL.kernel, elements=1, iterations=0)


def test_functional_kernels_registered_for_key_apps():
    for name in ("matrixMul", "vectorAdd", "BlackScholes", "dct8x8",
                 "Mandelbrot", "mergeSort", "transpose", "histogram",
                 "SobelFilter", "simpleGL"):
        assert name in REGISTRY, name


# -- functional correctness through build_app -------------------------------------


def _run_native(spec, seed=0):
    from repro.core.scenarios import run_native_gpu

    return run_native_gpu(spec, functional=True).extras["result"]


def test_vectoradd_app_numerics():
    spec = make_vectoradd_spec(elements=4096, iterations=2)
    result = _run_native(spec)
    a, b = spec.build_inputs(0)
    np.testing.assert_allclose(result, a + b)


def test_blackscholes_app_numerics():
    spec = SUITE["BlackScholes"].scaled_to(8192, iterations=1)
    result = _run_native(spec)
    spot, strike, years = spec.build_inputs(0)
    from repro.workloads.finance import black_scholes_fn

    expected = black_scholes_fn(spot, strike, years, **spec.params)
    np.testing.assert_allclose(result, expected)
    # Prices keep the inputs' float32, filling exactly the output buffer.
    assert expected.dtype == result.dtype == np.float32
    assert result.nbytes == spec.output_nbytes
    # Sanity: call prices are non-negative and bounded by spot.
    assert (result >= -1e-5).all()
    assert (result <= spot + 1e-5).all()


def test_mergesort_app_numerics():
    spec = SUITE["mergeSort"].scaled_to(4096, iterations=1)
    result = _run_native(spec)
    (keys,) = spec.build_inputs(0)
    np.testing.assert_array_equal(result, np.sort(keys))


def test_histogram_app_numerics():
    spec = SUITE["histogram"].scaled_to(65536, iterations=1)
    result = _run_native(spec)
    (data,) = spec.build_inputs(0)
    np.testing.assert_array_equal(result, np.bincount(data, minlength=256))


def test_mandelbrot_app_numerics():
    spec = SUITE["Mandelbrot"].scaled_to(SUITE["Mandelbrot"].elements, iterations=1)
    result = _run_native(spec)
    assert result.shape == (1024, 1024)
    # The set's interior reaches max iterations; the far exterior escapes fast.
    assert result.max() >= 256
    assert result.min() <= 2


def test_stereo_disparity_functional_at_a_scaled_size():
    from repro.api import RunRequest, scenario
    from repro.core.scenarios import run_native_gpu
    from repro.api import _spec

    request = RunRequest(app="stereoDisparity", functional=True, scale_elements=640 * 16)
    result = scenario(request).extras["result"]
    spec = _spec("stereoDisparity", 640 * 16)
    expected = run_native_gpu(spec, functional=True).extras["result"]
    assert result.shape == (640 * 16,)
    np.testing.assert_array_equal(result, expected)


def test_stereo_disparity_rejects_a_partial_row_up_front():
    from repro.api import RunRequest, scenario

    request = RunRequest(app="stereoDisparity", functional=True, scale_elements=65536)
    with pytest.raises(ValueError, match="multiple of 640"):
        scenario(request)


def test_stereo_disparity_unscaled_output_unchanged():
    """The SDK pair still folds into 533 rows of 640, as it always did."""
    from repro.workloads.analytics import stereo_disparity_fn

    spec = SUITE["stereoDisparity"]
    left, right = spec.build_inputs(0)
    shaped_left, shaped_right = left.reshape(533, 640), right.reshape(533, 640)
    best_cost = np.full(shaped_left.shape, np.iinfo(np.int64).max, dtype=np.int64)
    best_shift = np.zeros(shaped_left.shape, dtype=np.int32)
    for shift in range(8):
        cost = np.abs(shaped_left.astype(np.int64) - np.roll(shaped_right, shift, axis=1))
        better = cost < best_cost
        best_cost = np.where(better, cost, best_cost)
        best_shift = np.where(better, shift, best_shift)
    np.testing.assert_array_equal(
        stereo_disparity_fn(left, right, **spec.params), best_shift.ravel()
    )
    np.testing.assert_array_equal(
        _run_native(spec.scaled_to(spec.elements, iterations=1)), best_shift.ravel()
    )


# -- shared inputs for timing-only runs ----------------------------------------------


@pytest.mark.parametrize("name", sorted(SUITE))
def test_input_geometry_is_seed_independent(name):
    """Shapes and dtypes never depend on the seed: the premise of sharing."""
    spec = SUITE[name]
    first, second = spec.build_inputs(0), spec.build_inputs(7)
    assert [(a.shape, a.dtype) for a in first] == [(a.shape, a.dtype) for a in second]


#: ``build_inputs`` dtypes and shapes at ``scaled_to(4096)``.  The timing
#: model reads only ``nbytes``, so a factory that changes either moves a
#: digest with no other trace; this table names the app instead.  Apps
#: with fixed-size inputs (images, matrices, volumes) keep full shapes.
INPUT_GEOMETRY = {
    "simpleGL": [("float64", (4096,))],
    "Mandelbrot": [],
    "marchingCubes": [("uint8", (4096,))],
    "bicubicTexture": [("float32", (2048, 2048))],
    "VolumeFiltering": [("uint8", (16777216,))],
    "recursiveGaussian": [("float32", (2048, 2048))],
    "SobelFilter": [("uint8", (2048, 2048))],
    "stereoDisparity": [("int32", (4096,))] * 2,
    "convolutionSeparable": [("float32", (2048, 2048))],
    "dct8x8": [("float32", (2048, 2048))],
    "BlackScholes": [("float32", (4096,))] * 3,
    "MonteCarlo": [("float32", (4096,))],
    "matrixMul": [("float64", (320, 320))] * 2,
    "mergeSort": [("int32", (4096,))],
    "nbody": [("float32", (4096, 4))],
    "smokeParticles": [("float32", (4096, 8))],
    "segmentationTreeThrust": [("float32", (4096, 3))],
    "vectorAdd": [("float32", (4096,))] * 2,
    "scalarProd": [("float32", (4096,))] * 2,
    "transpose": [("float32", (2048, 2048))],
    "reduction": [("float32", (4096,))],
    "histogram": [("uint8", (4096,))],
    "physxParticles": [("float32", (4096, 4))],
}


def test_input_geometry_table_covers_the_catalog():
    assert set(INPUT_GEOMETRY) == set(SUITE)


@pytest.mark.parametrize("name", sorted(INPUT_GEOMETRY))
def test_input_geometry_is_pinned(name):
    inputs = SUITE[name].scaled_to(4096).build_inputs(0)
    assert [(a.dtype.name, a.shape) for a in inputs] == INPUT_GEOMETRY[name]


@pytest.mark.parametrize("name", sorted(n for n, g in INPUT_GEOMETRY.items() if g))
def test_seeds_draw_different_inputs(name):
    """VP *i* draws from seed *i*; members must hold different data, or
    the coalesced-versus-uncoalesced check cannot see a mixed-up member."""
    spec = SUITE[name].scaled_to(4096)
    for first, second in zip(spec.build_inputs(0), spec.build_inputs(1)):
        assert not np.array_equal(first, second)


@pytest.mark.parametrize("name", ["BlackScholes", "MonteCarlo"])
def test_pricing_inputs_lie_in_the_kernel_domain(name):
    """BlackScholes's ``log(spot / strike)`` and ``sqrt(years)`` need all
    three inputs positive; MonteCarlo's inputs are spot prices too."""
    for seed in (0, 1):
        for array in SUITE[name].scaled_to(65536).build_inputs(seed):
            assert array.min() > 0


def test_physx_particles_start_above_the_ground_plane():
    for seed in (0, 1):
        (state,) = SUITE["physxParticles"].scaled_to(65536).build_inputs(seed)
        assert state[:, 1].min() >= 0.5


def test_shared_inputs_only_for_an_empty_registry():
    from repro.core.scenarios import NULL_REGISTRY
    from repro.workloads.base import shared_inputs

    spec = make_vectoradd_spec(elements=1024)
    assert shared_inputs(spec, REGISTRY, seed=3) is None
    inputs = shared_inputs(spec, NULL_REGISTRY, seed=3)
    for built, expected in zip(inputs, spec.build_inputs(3)):
        np.testing.assert_array_equal(built, expected)
        assert built.flags.writeable is False


# -- synthetic microbenchmarks -------------------------------------------------------


def test_copy_bytes_roundtrip():
    nbytes = copy_bytes_for_ms(FIG9_COPY_MS)
    assert QUADRO_4000.copy_time_ms(nbytes) == pytest.approx(FIG9_COPY_MS, rel=0.01)


def test_copy_bytes_below_latency_rejected():
    with pytest.raises(ValueError):
        copy_bytes_for_ms(0.001)


def test_calibrated_kernel_hits_target():
    for target in (2.0, 13.44, 50.0):
        spec = make_phase_workload(t_kernel_ms=target, t_copy_ms=4.0)
        copy_ms, kernel_ms = measured_phase_times(spec)
        assert kernel_ms == pytest.approx(target, rel=0.05)
        assert copy_ms == pytest.approx(4.0, rel=0.05)


def test_calibration_clamps_at_zero():
    nbytes = copy_bytes_for_ms(4.0)
    assert calibrate_fp32_count(0.0, nbytes) == 0.0


def test_functional_scalarprod_rejects_partial_vectors_before_simulating():
    from repro.api import RunRequest, run

    request = RunRequest(app="scalarProd", n_vps=2, functional=True,
                         scale_elements=1000)
    with pytest.raises(ValueError, match="multiple of 256"):
        run(request)
    # Timing-only runs never reshape, so any element count still works.
    assert run(request.with_overrides(functional=False)).value["total_ms"] > 0
    # A whole number of vectors runs functionally.
    assert run(request.with_overrides(scale_elements=1024)).value["total_ms"] > 0
