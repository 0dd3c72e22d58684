"""Tests for the analysis layer: rendering, tables, timelines."""

import pytest

from repro.analysis import render_table
from repro.analysis.tables import PAPER_TABLE1
from repro.analysis.timeline import Lane, Timeline, collect_timeline, render_gantt
from repro.core import SHARED_MEMORY, SigmaVP
from repro.gpu.engines import TimelineEntry
from repro.workloads.linalg import make_vectoradd_spec


# -- rendering ---------------------------------------------------------------


def test_render_table_alignment():
    text = render_table(["name", "value"], [("a", 1.5), ("long-name", 12.25)])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_render_table_with_title():
    text = render_table(["x"], [(1,)], title="My Table")
    assert text.splitlines()[0] == "My Table"
    assert text.splitlines()[1] == "========"


def test_render_table_number_formats():
    text = render_table(["v"], [(1234.5,), (12.345,), (0.1234,), (0,)])
    assert "1,234" in text  # thousands
    assert "12.35" in text  # two decimals >= 10
    assert "0.123" in text  # three decimals < 10


def test_paper_table1_reference_values():
    assert PAPER_TABLE1["CUDA / GPU"] == (170.79, 1.00)
    assert PAPER_TABLE1["CUDA / This work"][1] == 3.32
    assert len(PAPER_TABLE1) == 6


# -- timeline ----------------------------------------------------------------


def _span(label, start, end):
    return TimelineEntry(label, start, end)


def test_timeline_lane_lookup_and_busy():
    timeline = Timeline(
        lanes=[Lane("compute", [_span("k", 0.0, 2.0), _span("k", 4.0, 6.0)])],
        horizon_ms=10.0,
    )
    assert timeline.lane("compute").busy_ms == pytest.approx(4.0)
    assert timeline.utilization("compute") == pytest.approx(0.4)
    with pytest.raises(KeyError):
        timeline.lane("ghost")


def test_timeline_as_dict():
    timeline = Timeline(
        lanes=[Lane("h2d", [_span("c", 1.0, 2.0)])],
        horizon_ms=5.0,
        vp_spans={"vp0": (0.0, 5.0)},
    )
    exported = timeline.as_dict()
    assert exported["horizon_ms"] == 5.0
    assert exported["lanes"][0]["spans"][0]["label"] == "c"
    assert exported["vps"]["vp0"]["end_ms"] == 5.0


def test_render_gantt_marks_busy_cells():
    timeline = Timeline(
        lanes=[Lane("compute", [_span("k", 0.0, 5.0)])],
        horizon_ms=10.0,
    )
    text = render_gantt(timeline, width=10)
    row = text.splitlines()[1]
    assert row.count("#") == 5
    assert " 50.0%" in row


def test_render_gantt_empty():
    assert "(empty" in render_gantt(Timeline(lanes=[], horizon_ms=0.0))


def test_collect_timeline_from_framework():
    framework = SigmaVP(n_vps=2, transport=SHARED_MEMORY)
    spec = make_vectoradd_spec(elements=4096, iterations=2)
    framework.run_workload(spec)
    timeline = collect_timeline(framework)
    assert {lane.name for lane in timeline.lanes} == {"h2d", "compute", "d2h"}
    assert timeline.horizon_ms == framework.env.now
    assert timeline.lane("compute").busy_ms > 0
    assert set(timeline.vp_spans) == {"vp0", "vp1"}
    # Rendering works end to end.
    assert "#" in render_gantt(timeline)


def test_collect_timeline_multi_gpu_prefixes():
    framework = SigmaVP(n_vps=2, n_host_gpus=2, transport=SHARED_MEMORY)
    spec = make_vectoradd_spec(elements=4096, iterations=1)
    framework.run_workload(spec)
    timeline = collect_timeline(framework)
    names = {lane.name for lane in timeline.lanes}
    assert "gpu0/compute" in names and "gpu1/compute" in names
