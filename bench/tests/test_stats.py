import json
import os

import pytest

import run
import speed


def test_p90_leaves_ten_samples_beyond_it_at_n_100():
    values = [float(v) for v in range(100, 0, -1)]
    p90 = run.percentile(values, 90)
    assert sum(v > p90 for v in values) == 10
    assert run.percentile(values, 50) == 50.0


def test_per_request_median_skips_failed_passes():
    passes = [[3.0, None, 2.0], [1.0, None, 4.0], [2.0, 5.0, None]]
    assert run.per_request_median(passes) == [2.0, 5.0, 3.0]
    assert run.per_request_median([[None], [None]]) == [None]


def test_reference_times_scale_each_request_by_its_factor():
    passes = [{"latency_s": [0.01, None], "factor": [2.0, 0.5]}]
    assert run.reference_times(passes) == [[0.02, None]]


def test_factor_scales_to_the_reference_host():
    reference = speed.EVENT_LOOP.reference_s
    assert speed.EVENT_LOOP.factor(reference, reference) == 1.0
    # A host at half the reference speed doubles every time; the factor halves it back.
    assert speed.EVENT_LOOP.factor(reference * 1.5, reference * 2.5) == pytest.approx(0.5)


def test_functional_requests_get_the_array_kernel():
    assert speed.matching(True) is speed.ARRAY_PASS
    assert speed.matching(False) is speed.EVENT_LOOP


@pytest.mark.parametrize("calibration", [speed.EVENT_LOOP, speed.ARRAY_PASS])
def test_calibration_kernels_do_fixed_work(calibration):
    assert calibration.kernel() == calibration.kernel()
    assert calibration.measure() > 0


def test_benchmark_json_matches_the_metric_tables():
    path = os.path.join(os.path.dirname(run.BENCH), "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
