"""Tests for ``repro.analysis.critpath``: time attribution over traces."""

import pytest

import repro.obs as obs
from repro.analysis.critpath import (
    CATEGORIES,
    attribute,
    render_critpath,
)
from repro.api import scenario_summary


def _span(lane, name, start, end, cat="engine", args=None):
    return {
        "id": 0,
        "lane": lane,
        "cat": cat,
        "name": name,
        "start_ms": start,
        "end_ms": end,
        "args": args or {},
    }


def _payload(spans):
    return {"schema": "repro.obs.trace/1", "spans": spans, "instants": []}


class TestSyntheticAttribution:
    def test_disjoint_spans_attribute_exactly(self):
        payload = _payload([
            _span("gpu0/compute", "k", 0.0, 4.0, args={"role": "compute", "device": 0}),
            _span("gpu0/h2d", "c", 5.0, 7.0, args={"role": "h2d", "device": 0}),
        ])
        report = attribute(payload, horizon_ms=10.0)
        assert report.overall["compute"] == pytest.approx(4.0)
        assert report.overall["h2d"] == pytest.approx(2.0)
        assert report.overall["d2h"] == 0.0
        assert report.overall["idle"] == pytest.approx(4.0)
        assert report.coverage == pytest.approx(1.0)

    def test_priority_resolves_overlap_exclusively(self):
        # Compute and h2d overlap on [2, 6): the overlap is compute-bound.
        payload = _payload([
            _span("gpu0/compute", "k", 2.0, 6.0, args={"role": "compute", "device": 0}),
            _span("gpu0/h2d", "c", 0.0, 6.0, args={"role": "h2d", "device": 0}),
        ])
        report = attribute(payload, horizon_ms=6.0)
        assert report.overall["compute"] == pytest.approx(4.0)
        assert report.overall["h2d"] == pytest.approx(2.0)
        assert sum(report.overall.values()) == pytest.approx(6.0)
        device = report.devices[0]
        assert device.overlap_ms == pytest.approx(4.0)
        assert device.bound == "compute"

    def test_ipc_spans_participate_on_every_device(self):
        payload = _payload([
            _span("gpu0/compute", "k", 0.0, 2.0, args={"role": "compute", "device": 0}),
            _span("gpu1/compute", "k", 0.0, 1.0, args={"role": "compute", "device": 1}),
            _span("ipc/socket", "submit", 2.0, 5.0, cat="ipc"),
        ])
        report = attribute(payload, horizon_ms=5.0)
        assert [d.device for d in report.devices] == ["gpu0", "gpu1"]
        gpu0, gpu1 = report.devices
        assert gpu0.by_category["ipc"] == pytest.approx(3.0)
        assert gpu1.by_category["ipc"] == pytest.approx(3.0)
        assert gpu1.by_category["idle"] == pytest.approx(1.0)

    def test_horizon_defaults_to_latest_span_end(self):
        payload = _payload([
            _span("gpu0/d2h", "c", 0.0, 3.5, args={"role": "d2h", "device": 0}),
        ])
        report = attribute(payload)
        assert report.horizon_ms == pytest.approx(3.5)
        assert report.bound == "d2h"

    def test_empty_payload_is_all_idle_with_full_coverage(self):
        report = attribute(_payload([]))
        assert report.horizon_ms == 0.0
        assert report.coverage == 1.0
        assert report.devices == []

    def test_lane_name_fallback_without_role_arg(self):
        payload = _payload([
            _span("Quadro 4000/compute", "k", 0.0, 1.0, args={}),
        ])
        report = attribute(payload, horizon_ms=1.0)
        assert report.overall["compute"] == pytest.approx(1.0)

    def test_unattributable_spans_are_skipped(self):
        payload = _payload([
            _span("vp/vp0", "lifetime", 0.0, 9.0, cat="vp"),
        ])
        report = attribute(payload, horizon_ms=9.0)
        assert report.span_count == 0
        assert report.overall["idle"] == pytest.approx(9.0)


class TestPinnedScenario:
    def test_attributes_at_least_95_percent_of_simulated_time(self):
        with obs.capture() as cap:
            scenario_summary(app="vectorAdd", n_vps=2)
        report = attribute(cap.trace_payload())
        assert report.span_count > 0
        # Acceptance bar is >= 95%; idle-as-a-segment makes it exactly 1.
        assert report.coverage >= 0.95
        assert report.coverage == pytest.approx(1.0)
        assert report.bound in CATEGORIES
        for device in report.devices:
            assert sum(device.by_category.values()) == pytest.approx(
                report.horizon_ms
            )

    def test_render_names_devices_and_bound(self):
        with obs.capture() as cap:
            scenario_summary(app="vectorAdd", n_vps=2)
        report = attribute(cap.trace_payload())
        text = render_critpath(report)
        assert "scenario bound:" in text
        assert "gpu0" in text
        assert "Longest attributable spans" in text
