"""Tests for the scenario farm: job identity, seeds, and determinism.

The load-bearing guarantee is the last test class: running the same job
list with ``workers=1`` and ``workers=4`` must produce byte-identical
result sets (compared as sorted-key canonical-JSON digests), because the
farm is pure plumbing around independent simulations.
"""

import json
import multiprocessing
import os

import pytest

from repro.caching import cache_scope
from repro.exec import FarmJob, FarmResult, ScenarioFarm, results_digest
from repro.exec.farm import JOB_HOMES, _resolve, run_job
from repro.obs.export import canonical_json

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: A real tag; its function is never run by the identity tests.
TAG = "repro.exec.jobs:table1_route"
OTHER_TAG = "repro.exec.jobs:sweep_point"

#: An ad-hoc test job, registered per test in the tag table.
ECHO = "tests.test_exec_farm:_echo"


def _echo(value):
    return value


@pytest.fixture
def echo_tag(monkeypatch):
    monkeypatch.setitem(JOB_HOMES, ECHO, ECHO)
    return ECHO


class TestFarmJob:
    def test_fn_must_be_module_function_reference(self):
        with pytest.raises(ValueError):
            FarmJob(fn="not_a_reference")

    def test_unknown_tag_is_rejected_even_when_importable(self):
        # A tag is a name in the table, not an import path to follow.
        with pytest.raises(ValueError, match="unknown job tag"):
            FarmJob(fn="repro.api:scenario_summary")

    def test_every_tag_resolves_to_a_function(self):
        for tag in JOB_HOMES:
            assert callable(_resolve(tag))

    def test_key_is_stable_and_kwarg_order_independent(self):
        a = FarmJob(fn=TAG, kwargs={"x": 1, "y": 2})
        b = FarmJob(fn=TAG, kwargs={"y": 2, "x": 1})
        assert a.key == b.key
        assert len(a.key) == 16

    def test_key_distinguishes_fn_and_kwargs(self):
        base = FarmJob(fn=TAG, kwargs={"x": 1})
        assert base.key != FarmJob(fn=OTHER_TAG, kwargs={"x": 1}).key
        assert base.key != FarmJob(fn=TAG, kwargs={"x": 2}).key

    def test_seed_is_deterministic_and_in_range(self):
        job = FarmJob(fn=TAG, kwargs={"x": 1})
        assert job.seed == FarmJob(fn=TAG, kwargs={"x": 1}).seed
        assert 0 <= job.seed < 2**31 - 1

    def test_run_job_returns_value_key_and_pid(self, echo_tag):
        job = FarmJob(fn=echo_tag, kwargs={"value": 3})
        result = run_job(job)
        assert result.value == 3
        assert result.job_key == job.key
        assert result.worker_pid == os.getpid()


class TestDigests:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        assert canonical_json([1.5, None, "x"]) == '[1.5,null,"x"]'

    def test_results_digest_is_completion_order_independent(self):
        results = [
            FarmResult(job_key=f"k{i}", value=i, duration_s=0.0, worker_pid=0)
            for i in range(4)
        ]
        assert results_digest(results) == results_digest(results[::-1])

    def test_results_digest_sees_value_changes(self):
        def make(value):
            return [FarmResult(job_key="k", value=value, duration_s=0.0,
                               worker_pid=0)]

        assert results_digest(make(1)) != results_digest(make(2))


class TestScenarioFarm:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ScenarioFarm(workers=0)

    def test_empty_job_list(self):
        assert ScenarioFarm(workers=1).map([]) == []

    def test_serial_results_in_submission_order(self, echo_tag):
        jobs = [FarmJob(fn=echo_tag, kwargs={"value": i}) for i in range(5)]
        farm = ScenarioFarm(workers=1)
        assert farm.map_values(jobs) == [0, 1, 2, 3, 4]

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_parallel_results_in_submission_order(self, echo_tag):
        jobs = [FarmJob(fn=echo_tag, kwargs={"value": i}) for i in range(8)]
        farm = ScenarioFarm(workers=2)
        results = farm.map(jobs)
        assert [r.value for r in results] == list(range(8))
        # At least one job actually left this process.
        assert any(r.worker_pid != os.getpid() for r in results)


#: A small cross-section of real simulation jobs: a scenario route, an
#: interleaving point, a coalescing point, and a Table-1 route.
DETERMINISM_JOBS = [
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="vectorAdd2",
            kwargs={"app": "vectorAdd", "n_vps": 2, "transport": "shm"}),
    FarmJob(fn="repro.exec.jobs:fig9b_point", label="fig9b:n2",
            kwargs={"n_programs": 2}),
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b4/8vp",
            kwargs={"batch": 4, "n_programs": 8}),
    FarmJob(fn="repro.exec.jobs:table1_route", label="table1:native",
            kwargs={"route": "CUDA / GPU", "app": "matrixMul"}),
]

#: Coalescing-heavy shapes the cross-section above lacks: 32 programs
#: merged 8 at a time, and an 8-VP suite app.
CACHE_ORACLE_JOBS = [
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b8/32vp",
            kwargs={"batch": 8, "n_programs": 32}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="mergeSort8",
            kwargs={"app": "mergeSort", "n_vps": 8}),
]


class TestFarmDeterminism:
    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_workers_1_vs_4_byte_identical(self):
        serial = ScenarioFarm(workers=1).map(DETERMINISM_JOBS)
        parallel = ScenarioFarm(workers=4).map(DETERMINISM_JOBS)
        # Byte-level: the sorted-key canonical JSON of every result value
        # must match, not just compare approximately equal.
        serial_bytes = [canonical_json(r.value) for r in serial]
        parallel_bytes = [canonical_json(r.value) for r in parallel]
        assert serial_bytes == parallel_bytes
        assert results_digest(serial) == results_digest(parallel)

    def test_digest_repeatable_within_mode(self):
        farm = ScenarioFarm(workers=1)
        first = results_digest(farm.map(DETERMINISM_JOBS[:2]))
        second = results_digest(farm.map(DETERMINISM_JOBS[:2]))
        assert first == second

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize(
        "job", DETERMINISM_JOBS + CACHE_ORACLE_JOBS, ids=lambda job: job.label
    )
    def test_cache_off_cache_on_and_farm_digests_agree(self, job):
        # The memo caches must be invisible on whole many-VP scenarios,
        # not just per layer: the uncached run is the oracle.
        with cache_scope(False):
            uncached = ScenarioFarm(workers=1).map([job])
        cached = ScenarioFarm(workers=1).map([job])
        # A one-job map runs in-process, so submit the job twice to make
        # the farm fork two workers.
        farmed = ScenarioFarm(workers=2).map([job, job])
        oracle = results_digest(uncached)
        assert results_digest(cached) == oracle
        assert [results_digest([r]) for r in farmed] == [oracle, oracle]

    def test_values_are_json_clean(self):
        for result in ScenarioFarm(workers=1).map(DETERMINISM_JOBS):
            # round-trips through strict JSON (no NaN/inf/objects)
            text = canonical_json(result.value)
            assert json.loads(text) == json.loads(text)
