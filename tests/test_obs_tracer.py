"""Tracer contract: true no-op when disabled, faithful buffers when on.

The load-bearing guarantees:

* **disabled is free** — with no tracer installed, an instrumented
  simulation allocates nothing in any ``repro.obs`` module (the hot
  paths are a single module-attribute ``is not None`` check);
* **tracing never perturbs simulation** — the summary of a scenario run
  with capture on is byte-identical (canonical JSON) to the same run
  with capture off.
"""

import json
import tracemalloc

import repro.obs as obs
from repro.api import scenario_summary
from repro.obs import tracer as tracer_mod
from repro.obs.export import canonical_json
from repro.obs.tracer import Tracer


def _run_scenario():
    return scenario_summary(app="vectorAdd", n_vps=2)


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert tracer_mod.TRACER is None
        assert not obs.enabled()

    def test_disabled_run_records_nothing(self):
        tracer = Tracer()  # constructed but never installed
        _run_scenario()
        assert tracer.spans == []
        assert tracer.instants == []
        assert tracer_mod.TRACER is None

    def test_disabled_run_allocates_nothing_in_obs_modules(self):
        # Warm every code path (imports, caches) outside the window.
        _run_scenario()
        obs_files = tracemalloc.Filter(True, "*/repro/obs/*")
        tracemalloc.start()
        try:
            _run_scenario()
            snapshot = tracemalloc.take_snapshot().filter_traces([obs_files])
        finally:
            tracemalloc.stop()
        stats = snapshot.statistics("filename")
        assert stats == [], (
            "obs modules allocated while disabled: "
            + ", ".join(f"{s.traceback}: {s.size}B" for s in stats)
        )

    def test_simulation_identical_with_and_without_capture(self):
        plain = _run_scenario()
        with obs.capture():
            captured = _run_scenario()
        assert canonical_json(plain) == canonical_json(captured)


class TestTracerBuffers:
    def test_span_and_instant_ids_are_one_monotonic_sequence(self):
        tracer = Tracer()
        ids = [
            tracer.span("lane", "a", 0.0, 1.0),
            tracer.instant("lane", "b", 0.5),
            tracer.span("lane", "c", 1.0, 2.0),
        ]
        assert ids == [0, 1, 2]

    def test_lanes_and_spans_on(self):
        tracer = Tracer()
        tracer.span("x", "a", 0.0, 1.0)
        tracer.span("y", "b", 0.0, 1.0)
        tracer.span("x", "c", 1.0, 2.0)
        assert tracer.lanes() == ["x", "y"]
        assert [s[3] for s in tracer.spans_on("x")] == ["a", "c"]

    def test_payload_roundtrip(self):
        tracer = Tracer()
        tracer.span("lane", "a", 0.0, 1.5, cat="engine", args={"vp": "vp0"})
        tracer.instant("lane", "b", 0.25, args={"k": 3})
        payload = tracer.to_payload()
        json.dumps(payload)  # must already be JSON-clean
        restored = Tracer.from_payload(payload)
        assert restored.to_payload() == payload
        # ids continue after the highest restored id
        assert restored.span("lane", "c", 2.0, 3.0) == 2

    def test_payload_cleans_non_json_args(self):
        tracer = Tracer()
        tracer.span("lane", "a", 0.0, 1.0, args={"obj": object(), "n": 2})
        payload = tracer.to_payload()
        args = payload["spans"][0]["args"]
        assert args["n"] == 2
        assert isinstance(args["obj"], str)
        json.dumps(payload)

    def test_enable_disable_restores_none(self):
        installed = tracer_mod.enable()
        try:
            assert tracer_mod.TRACER is installed
        finally:
            tracer_mod.disable()
        assert tracer_mod.TRACER is None


class TestCaptureWindow:
    def test_capture_scopes_and_restores(self):
        assert tracer_mod.TRACER is None
        with obs.capture() as cap:
            assert tracer_mod.TRACER is cap.tracer
            _run_scenario()
        assert tracer_mod.TRACER is None
        assert len(cap.tracer.spans) > 0
        assert len(cap.tracer.instants) > 0

    def test_nested_capture_restores_outer(self):
        with obs.capture() as outer:
            with obs.capture() as inner:
                assert tracer_mod.TRACER is inner.tracer
            assert tracer_mod.TRACER is outer.tracer
        assert tracer_mod.TRACER is None

    def test_every_ipc_span_names_its_vp(self):
        """Submits and responses both carry the VP they serve."""
        with obs.capture() as cap:
            _run_scenario()
        ipc = [span for span in cap.tracer.spans if span[2] == "ipc"]
        assert {span[3] for span in ipc} == {"submit", "respond"}
        assert {span[6]["vp"] for span in ipc} == {"vp0", "vp1"}

    def test_capture_collects_expected_lanes(self):
        with obs.capture() as cap:
            _run_scenario()
        lanes = set(cap.tracer.lanes())
        assert any("compute" in lane for lane in lanes)
        assert any(lane.startswith("ipc/") for lane in lanes)
        assert any(lane.startswith("vp/") for lane in lanes)
        instant_lanes = {i[1] for i in cap.tracer.instants}
        assert "dispatcher" in instant_lanes
