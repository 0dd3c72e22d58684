"""Farm-wide observability: captured workers, merged traces, same digests.

The guarantees under test:

* capture rides the normal result channel — ``FarmResult.trace`` /
  ``.metrics`` appear with ``capture_obs=True`` and stay ``None``
  otherwise;
* capturing never perturbs simulation — results digests are identical
  across plain, captured-serial, and captured-parallel farms;
* the parent-side merge re-bases every worker's zero-based span ids
  into one collision-free sequence and gives each job its own pid
  block in the exported Chrome trace.
"""

import multiprocessing

import pytest

from repro.exec import FarmJob, ScenarioFarm, results_digest
from repro.obs import (
    farm_merged_metrics,
    farm_merged_trace,
    farm_trace_sources,
    rebase_payloads,
    span_counts_by_lane,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.export import PID_STRIDE

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

JOBS = [
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="va2",
            kwargs={"app": "vectorAdd", "n_vps": 2}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="ms2",
            kwargs={"app": "mergeSort", "n_vps": 2}),
]


@pytest.fixture(scope="module")
def plain_results():
    return ScenarioFarm(workers=1, warmup=False).map(JOBS)


@pytest.fixture(scope="module")
def captured_serial():
    return ScenarioFarm(workers=1, warmup=False, capture_obs=True).map(JOBS)


@pytest.fixture(scope="module")
def captured_parallel():
    if not HAS_FORK:
        pytest.skip("fork start method unavailable")
    return ScenarioFarm(workers=2, warmup=False, capture_obs=True).map(JOBS)


class TestCapturePlumbing:
    def test_plain_results_carry_no_buffers(self, plain_results):
        assert all(r.trace is None and r.metrics is None for r in plain_results)

    def test_captured_results_carry_buffers(self, captured_serial):
        for result in captured_serial:
            assert result.trace["schema"] == "repro.obs.trace/1"
            assert result.trace["spans"]
            assert "sim.events_processed" in result.metrics

    def test_serial_capture_restores_module_flag(self, captured_serial):
        from repro.exec import farm

        assert farm._CAPTURE_OBS is False

    def test_capture_does_not_perturb_digest(
        self, plain_results, captured_serial
    ):
        assert results_digest(plain_results) == results_digest(captured_serial)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    def test_worker_capture_matches_serial_digest(
        self, captured_serial, captured_parallel
    ):
        assert results_digest(captured_serial) == results_digest(
            captured_parallel
        )
        for result in captured_parallel:
            assert result.trace["spans"]


class TestIdRebasing:
    def test_each_worker_buffer_starts_at_zero(self, captured_serial):
        for result in captured_serial:
            ids = [s["id"] for s in result.trace["spans"]]
            ids += [i["id"] for i in result.trace["instants"]]
            assert min(ids) == 0

    def test_merged_ids_are_unique_and_labelled(self, captured_serial):
        merged = farm_merged_trace(captured_serial)
        ids = [s["id"] for s in merged["spans"]]
        ids += [i["id"] for i in merged["instants"]]
        assert len(ids) == len(set(ids)), "id collision after re-basing"
        jobs = {s["args"]["job"] for s in merged["spans"]}
        assert jobs == {"va2", "ms2"}

    def test_rebase_preserves_record_counts(self, captured_serial):
        sources = farm_trace_sources(captured_serial)
        merged = rebase_payloads(sources)
        assert len(merged["spans"]) == sum(
            len(p["spans"]) for _, p in sources
        )
        assert len(merged["instants"]) == sum(
            len(p["instants"]) for _, p in sources
        )


class TestMergedChromeTrace:
    def test_one_coherent_multi_job_trace(self, captured_serial):
        trace = to_chrome_trace(farm_trace_sources(captured_serial))
        assert validate_chrome_trace(trace) == []
        # each job in its own pid block
        blocks = {
            e["pid"] // PID_STRIDE
            for e in trace["traceEvents"]
            if e["ph"] != "M"
        }
        assert blocks == {0, 1}
        # labels prefix the per-job process names
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any(n.startswith("va2/") for n in names)
        assert any(n.startswith("ms2/") for n in names)

    def test_every_engine_lane_has_spans(self, captured_serial):
        merged = farm_merged_trace(captured_serial)
        counts = span_counts_by_lane(merged)
        for role in ("h2d", "compute", "d2h"):
            lanes = [l for l in counts if role in l]
            assert lanes, f"no lane for engine role {role}"
            assert all(counts[l] > 0 for l in lanes)


class TestMergedMetrics:
    def test_totals_are_sums_of_per_job(self, captured_serial):
        merged = farm_merged_metrics(captured_serial)
        per_job = merged["per_job"]
        name = "sim.events_processed"
        expected = sum(job[name]["value"] for job in per_job.values())
        assert merged["totals"][name]["value"] == expected

    def test_gauges_not_falsely_summed(self, captured_serial):
        merged = farm_merged_metrics(captured_serial)
        assert all(
            entry["type"] != "gauge" for entry in merged["totals"].values()
        )
        assert any(
            entry["type"] == "gauge"
            for job in merged["per_job"].values()
            for entry in job.values()
        )
