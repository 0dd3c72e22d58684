"""Exporter contract: valid Perfetto JSON, stamped artifacts, timelines.

Checks the acceptance shape of ``repro trace`` output: per-VP *and*
per-GPU engine tracks (every engine span is dual-placed), scheduler
decisions as instant events, and a run stamp carrying the farm's
config-hash identity and seed.
"""

import json

import pytest

import repro.obs as obs
from repro.analysis.timeline import (
    Lane,
    Timeline,
    collect_timeline,
    render_gantt,
    timeline_from_trace,
)
from repro.api import scenario_summary
from repro.core.scenarios import run_sigma_vp
from repro.exec import FarmJob
from repro.obs import (
    config_key,
    git_commit,
    metrics_snapshot,
    render_metrics,
    run_stamp,
    seed_for,
    to_chrome_trace,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.obs.export import PID_STRIDE
from repro.workloads import get_workload

FN = "repro.exec.jobs:scenario_summary"
KWARGS = {"app": "vectorAdd", "n_vps": 2}


@pytest.fixture(scope="module")
def captured():
    with obs.capture() as cap:
        scenario_summary(**KWARGS)
    return cap


@pytest.fixture(scope="module")
def trace(captured):
    stamp = run_stamp(FN, KWARGS)
    return to_chrome_trace([("va2", captured.tracer)], stamp)


class TestStamp:
    def test_config_key_matches_farm_job_identity(self):
        job = FarmJob(fn=FN, kwargs=KWARGS)
        assert config_key(FN, KWARGS) == job.key
        assert seed_for(job.key) == job.seed

    def test_stamp_fields(self):
        stamp = run_stamp(FN, KWARGS, label="va2")
        assert stamp["fn"] == FN
        assert stamp["config"] == KWARGS
        assert stamp["config_hash"] == config_key(FN, KWARGS)
        assert stamp["seed"] == seed_for(stamp["config_hash"])
        assert stamp["label"] == "va2"

    def test_stamp_rides_on_both_artifact_kinds(self, captured, trace, tmp_path):
        stamp = run_stamp(FN, KWARGS)
        assert trace["otherData"]["config_hash"] == stamp["config_hash"]
        path = write_metrics(tmp_path / "m.json", captured.registry, stamp)
        loaded = json.loads(path.read_text())
        assert loaded["stamp"]["config_hash"] == stamp["config_hash"]
        assert loaded["stamp"]["seed"] == stamp["seed"]


class TestChromeTrace:
    def test_schema_valid(self, trace):
        assert validate_chrome_trace(trace) == []
        json.dumps(trace)

    def _process_names(self, trace):
        return {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }

    def test_engine_spans_dual_placed_on_gpu_and_vp_tracks(self, trace):
        names = set(self._process_names(trace).values())
        assert "gpu0" in names
        assert {"vp:vp0", "vp:vp1"} <= names

    def test_engine_role_threads_present(self, trace):
        threads = {
            (e["pid"], e["args"]["name"])
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        by_pid = {}
        for pid, thread in threads:
            by_pid.setdefault(pid, set()).add(thread)
        gpu_pid = next(
            pid for pid, name in self._process_names(trace).items()
            if name == "gpu0"
        )
        assert {"h2d", "compute", "d2h"} <= by_pid[gpu_pid]

    def test_scheduler_decisions_are_instant_events(self, trace):
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instants, "no instant events exported"
        assert all(e["s"] == "p" for e in instants)
        assert any(e["name"] == "dispatch" for e in instants)
        assert any(e["name"] == "merge" for e in instants)

    def test_durations_in_microseconds(self, captured, trace):
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        engine = [e for e in spans if e["cat"] == "engine"]
        assert engine
        # ms -> us conversion: every duration is non-negative and the
        # longest engine span matches the tracer's record.
        longest = max(
            (s[5] - s[4]) for s in captured.tracer.spans if s[2] == "engine"
        )
        assert max(e["dur"] for e in engine) == pytest.approx(longest * 1000.0)

    def test_one_coherent_multi_source_trace(self, captured):
        # Two separate captures, each with span ids from zero, export
        # into one valid file: each source in its own pid block, its
        # label prefixing its process names.
        with obs.capture() as other:
            scenario_summary(app="mergeSort", n_vps=2)
        sources = [("va2", captured.tracer), ("ms2", other.tracer)]
        trace = to_chrome_trace(sources)
        assert validate_chrome_trace(trace) == []
        blocks = {
            e["pid"] // PID_STRIDE for e in trace["traceEvents"] if e["ph"] != "M"
        }
        assert blocks == {0, 1}
        names = set(self._process_names(trace).values())
        assert any(n.startswith("va2/") for n in names)
        assert any(n.startswith("ms2/") for n in names)
        ids = {}
        for e in trace["traceEvents"]:
            if e["ph"] != "M":
                ids.setdefault(e["args"]["job_label"], set()).add(e["args"]["span_id"])
        assert ids["va2"].isdisjoint(ids["ms2"])

    def test_write_trace_roundtrips(self, captured, tmp_path):
        path = write_trace(
            tmp_path / "t.json", [("va2", captured.tracer)], run_stamp(FN, KWARGS)
        )
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []


class TestEmptyCapture:
    def test_empty_capture_exports_valid_artifacts(self, tmp_path):
        with obs.capture() as cap:
            pass  # nothing ran: zero spans, zero metrics
        stamp = run_stamp(FN, KWARGS)
        trace = to_chrome_trace([("empty", cap.tracer)], stamp)
        assert validate_chrome_trace(trace) == []
        assert [e for e in trace["traceEvents"] if e["ph"] != "M"] == []
        path = write_trace(tmp_path / "empty.json", [("empty", cap.tracer)], stamp)
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        metrics_path = write_metrics(tmp_path / "empty_m.json", cap.registry, stamp)
        loaded = json.loads(metrics_path.read_text())
        assert loaded["metrics"] == {}
        assert loaded["stamp"]["config_hash"] == stamp["config_hash"]


class TestGitCommitStamp:
    def test_stamp_carries_git_commit(self):
        stamp = run_stamp(FN, KWARGS)
        assert "git_commit" in stamp
        # In this repo's checkout the hash resolves; the field contract
        # is "full hex hash or empty string", never missing.
        commit = stamp["git_commit"]
        assert commit == "" or (
            len(commit) == 40 and all(c in "0123456789abcdef" for c in commit)
        )
        assert git_commit() == commit  # cached: one revision per process


class TestMetricsExport:
    def test_snapshot_and_render(self, captured):
        snap = metrics_snapshot(captured.registry, run_stamp(FN, KWARGS))
        assert snap["schema"] == "repro.obs.metrics/1"
        text = render_metrics(snap)
        assert "dispatch.decisions" in text
        assert snap["stamp"]["config_hash"] in text

    def test_write_metrics_writes_only_the_json(self, captured, tmp_path):
        path = write_metrics(
            tmp_path / "m.json", captured.registry, run_stamp(FN, KWARGS)
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.obs.metrics/1"
        assert "dispatch.decisions" in loaded["metrics"]


class TestTimelineFromTrace:
    def test_matches_live_collect_timeline(self):
        spec = get_workload("vectorAdd").scaled_to(2048, iterations=2)
        with obs.capture() as cap:
            result = run_sigma_vp(spec, n_vps=2)
        live = collect_timeline(result.extras["framework"])
        rebuilt = timeline_from_trace(cap.tracer)
        assert [l.name for l in rebuilt.lanes] == [l.name for l in live.lanes]
        for name in ("h2d", "compute", "d2h"):
            assert rebuilt.lane(name).busy_ms == pytest.approx(
                live.lane(name).busy_ms
            )
        assert rebuilt.vp_spans == live.vp_spans

    def test_accepts_payload_dict(self):
        with obs.capture() as cap:
            scenario_summary(**KWARGS)
        rebuilt = timeline_from_trace(cap.tracer.to_payload())
        assert rebuilt.horizon_ms > 0
        assert rebuilt.lane("compute").spans


class TestRenderGanttEmptyHandling:
    def test_zero_horizon(self):
        assert render_gantt(Timeline(lanes=[], horizon_ms=0.0)) == "(empty timeline)"

    def test_no_lanes_with_positive_horizon(self):
        assert render_gantt(Timeline(lanes=[], horizon_ms=5.0)) == "(empty timeline)"

    def test_lanes_without_spans(self):
        timeline = Timeline(
            lanes=[Lane("h2d", []), Lane("compute", [])], horizon_ms=5.0
        )
        assert render_gantt(timeline) == "(empty timeline)"

    def test_empty_lane_selection(self):
        with obs.capture() as cap:
            scenario_summary(**KWARGS)
        timeline = timeline_from_trace(cap.tracer)
        assert render_gantt(timeline, lanes=[]) == "(empty timeline)"
        assert render_gantt(timeline) != "(empty timeline)"
