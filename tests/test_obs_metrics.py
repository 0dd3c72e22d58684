"""Metrics registry: deterministic histograms and self-profiling.

Histogram bucket edges are fixed constants — never derived from data —
which is what makes snapshots bit-identical across runs.
"""

import json

import pytest

import repro.obs as obs
from repro.api import scenario_summary
from repro.obs import metrics as metrics_mod
from repro.obs.export import canonical_json
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestMetricKinds:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == {"type": "counter", "value": 3.5}

    def test_gauge_is_last_write_wins(self):
        g = Gauge()
        g.set(4)
        g.set(1.5)
        assert g.snapshot() == {"type": "gauge", "value": 1.5}

    def test_histogram_buckets_and_overflow(self):
        h = Histogram(edges=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["edges"] == [1.0, 10.0]
        # <=1.0: {0.5, 1.0}; <=10.0: {5.0}; overflow: {100.0}
        assert snap["counts"] == [2, 1, 1]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.5)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(10.0, 1.0))

    def test_histogram_snapshot_is_deterministic(self):
        def build():
            h = Histogram(MS_BUCKETS)
            for i in range(200):
                h.observe((i * 37 % 101) / 7.0)
            return h.snapshot()

        assert canonical_json(build()) == canonical_json(build())


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", DEPTH_BUCKETS) is reg.histogram("h")

    def test_snapshot_is_name_sorted_and_json_clean(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.gauge("a.first").set(1)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)

    def test_timed_is_noop_when_disabled(self):
        assert metrics_mod.REGISTRY is None
        cm = metrics_mod.timed("anything")
        assert cm is metrics_mod.timed("anything else")  # shared singleton
        with cm:
            pass

    def test_timed_records_when_enabled(self):
        with obs.capture() as cap:
            with metrics_mod.timed("unit_test"):
                pass
        snap = cap.registry.snapshot()
        assert snap["selfprof.unit_test_s"]["count"] == 1


def _scenario_metrics():
    with obs.capture() as cap:
        scenario_summary(app="vectorAdd", n_vps=2)
    return cap.registry.snapshot()


def _without_selfprof(snapshot):
    """Drop host wall-clock metrics: the only intentionally
    nondeterministic family in a snapshot."""
    return {k: v for k, v in snapshot.items() if not k.startswith("selfprof.")}


class TestScenarioDeterminism:
    def test_repeat_runs_snapshot_identically(self):
        first = _without_selfprof(_scenario_metrics())
        second = _without_selfprof(_scenario_metrics())
        assert canonical_json(first) == canonical_json(second)

    def test_expected_metric_families_present(self):
        snap = _scenario_metrics()
        for name in (
            "sim.events_processed",
            "dispatch.decisions",
            "jobqueue.depth",
            "engine.op_ms",
            "engine.gpu0/compute.busy_ms",
            "ipc.messages",
            "coalesce.merges",
            "cache.compile.misses",
            "cache.profile.misses",
            "vp.vp0.elapsed_ms",
            "framework.runs",
            "selfprof.framework.run_s",
        ):
            assert name in snap, f"missing metric {name}"

