"""Tests for ``repro.obs.account``: per-VP / per-tenant accounting."""

import tracemalloc

import pytest

import repro.obs as obs
from repro.api import scenario_summary
from repro.core import SHARED_MEMORY, SigmaVP
from repro.kernels.functional import FunctionalRegistry
from repro.obs.account import (
    coalesce_share,
    collect_accounts,
    compute_usage,
    jain_index,
    kind_breakdown,
    render_accounts,
)
from repro.obs.metrics import MetricsRegistry
from repro.workloads import get_workload
from repro.workloads.linalg import make_vectoradd_spec


def _run_framework(n_vps=2, **kwargs):
    framework = SigmaVP(
        n_vps=n_vps, registry=FunctionalRegistry(), **kwargs
    )
    framework.run_workload(get_workload("vectorAdd"))
    return framework


class TestJainIndex:
    def test_empty_population_is_vacuously_fair(self):
        assert jain_index([]) == 1.0

    def test_all_zero_population_is_vacuously_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_equal_shares_are_perfectly_fair(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_monopoly_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


class TestComputeUsage:
    def test_every_vp_accounted_and_jobs_sum_to_completed(self):
        framework = _run_framework(n_vps=4)
        usage = compute_usage(framework)
        assert sorted(usage) == sorted(framework.sessions)
        per_vp_completions = [
            job
            for job in framework.dispatcher.completed_log
            if job.vp in framework.sessions
        ]
        assert sum(u.jobs for u in usage.values()) == len(per_vp_completions)
        for account in usage.values():
            assert account.busy_ms >= 0.0
            assert account.wait_ms >= 0.0
            assert account.total_ms == account.busy_ms + account.wait_ms

    def test_coalesced_members_are_flagged(self):
        framework = _run_framework(n_vps=4)  # coalescing on by default
        usage = compute_usage(framework)
        assert sum(u.coalesced_jobs for u in usage.values()) > 0
        assert 0.0 < coalesce_share(usage) < 1.0

    def test_no_coalescing_means_zero_share(self):
        framework = _run_framework(n_vps=2, coalescing=False)
        usage = compute_usage(framework)
        assert coalesce_share(usage) == 0.0

    def test_usage_is_a_pure_read(self):
        framework = _run_framework(n_vps=2)
        first = compute_usage(framework)
        second = compute_usage(framework)
        assert first == second


class TestDeadlineAccounting:
    def test_priority_deadline_policy_scores_every_job(self):
        framework = SigmaVP(
            n_vps=2,
            registry=FunctionalRegistry(),
            policy="priority-deadline",
        )
        framework.run_workload(get_workload("vectorAdd"))
        usage = compute_usage(framework)
        scored = sum(
            u.deadline_hits + u.deadline_misses for u in usage.values()
        )
        assert scored == sum(u.jobs for u in usage.values())

    def test_policies_without_budgets_skip_deadline_accounting(self):
        framework = _run_framework(n_vps=2)
        usage = compute_usage(framework)
        assert all(
            u.deadline_hits == 0 and u.deadline_misses == 0
            for u in usage.values()
        )


class TestCollectAccounts:
    def test_emits_account_metrics(self):
        framework = _run_framework(n_vps=2)
        registry = MetricsRegistry()
        usage = collect_accounts(framework, registry)
        snapshot = registry.snapshot()
        assert "account.coalesce.share" in snapshot
        assert "account.fairness.jain" in snapshot
        for name in framework.sessions:
            assert snapshot[f"account.vp.{name}.busy_ms"]["value"] == (
                pytest.approx(usage[name].busy_ms)
            )
            assert snapshot[f"account.vp.{name}.jobs"]["value"] == (
                usage[name].jobs
            )

    def test_captured_scenario_includes_account_family(self):
        with obs.capture() as cap:
            scenario_summary(app="vectorAdd", n_vps=2)
        names = list(cap.metrics_payload())
        assert any(name.startswith("account.vp.") for name in names)
        assert "account.fairness.jain" in names
        # The live dispatcher-side counter rode along too.
        assert "account.completed" in names

    def test_render_accounts_lists_every_vp(self):
        framework = _run_framework(n_vps=2)
        report = render_accounts(framework)
        for name in framework.sessions:
            assert name in report
        assert "coalesce share" in report
        assert "Jain fairness" in report


@pytest.fixture(scope="module")
def finished_framework():
    framework = SigmaVP(n_vps=2, transport=SHARED_MEMORY)
    framework.run_workload(make_vectoradd_spec(elements=4096, iterations=3))
    return framework


def test_latencies_cover_all_completed_jobs(finished_framework):
    usage = compute_usage(finished_framework)
    kinds = kind_breakdown(finished_framework)
    assert kinds
    for account in [*usage.values(), *kinds.values()]:
        assert account.wait_ms >= 0
        assert account.busy_ms >= 0
    for account in usage.values():
        assert account.total_ms == pytest.approx(
            account.wait_ms + account.busy_ms
        )
    # Both tables count every guest call exactly once.
    assert sum(k.jobs for k in kinds.values()) == sum(
        u.jobs for u in usage.values()
    )


def test_members_inherit_merge_dispatch_point(finished_framework):
    """Merged members were never dispatched individually but are still
    accounted, from their own submission to the merge's dispatch."""
    log = finished_framework.dispatcher.completed_log
    dispatched = {job.job_id: job.dispatched_at_ms for job in log}
    for job in log:
        for member in job.members:
            assert member.dispatched_at_ms is None
            dispatched[member.job_id] = job.dispatched_at_ms
    expected = {}
    for job in log:
        if job.vp in finished_framework.sessions:
            start = dispatched[job.job_id]
            wait, busy = expected.get(job.vp, (0.0, 0.0))
            expected[job.vp] = (
                wait + max(0.0, start - job.submitted_at_ms),
                busy + max(0.0, job.completed_at_ms - start),
            )
    usage = compute_usage(finished_framework)
    assert set(expected) == {"vp0", "vp1"}
    assert sum(u.coalesced_jobs for u in usage.values()) > 0
    for vp, (wait, busy) in expected.items():
        assert usage[vp].wait_ms == pytest.approx(wait)
        assert usage[vp].busy_ms == pytest.approx(busy)


def test_vp_accounts_structure(finished_framework):
    usage = compute_usage(finished_framework)
    assert set(usage) == {"vp0", "vp1"}
    for account in usage.values():
        assert account.jobs > 0
        assert account.guest_cpu_ms > 0
        assert account.elapsed_ms is not None
        assert account.busy_ms > 0


def test_kind_breakdown_means(finished_framework):
    kinds = kind_breakdown(finished_framework)
    assert "KERNEL" in kinds
    assert "MALLOC" in kinds
    # Mallocs are host bookkeeping: near-zero service.
    assert kinds["MALLOC"].mean_busy_ms < 0.01
    assert kinds["KERNEL"].mean_busy_ms > 0


def test_render_accounting(finished_framework):
    text = render_accounts(finished_framework)
    assert "Per-VP accounting" in text
    assert "Guest CPU (ms)" in text and "Elapsed (ms)" in text
    assert "Per-kind latency" in text
    assert "vp0" in text and "KERNEL" in text


def test_service_time_matches_expected_for_serial_run():
    """In serial mode, a lone copy's busy time equals its transfer time
    (plus nothing: no contention)."""
    framework = SigmaVP(n_vps=1, transport=SHARED_MEMORY,
                        interleaving=False, coalescing=False)
    framework.run_workload(make_vectoradd_spec(elements=65536, iterations=1))
    copies = kind_breakdown(framework)["COPY_H2D"]
    assert copies.jobs > 0
    expected = framework.gpu.arch.copy_time_ms(65536 * 4)
    assert copies.mean_busy_ms == pytest.approx(expected, rel=0.01)


class TestDisabledCost:
    def test_disabled_run_allocates_nothing_in_account_module(self):
        scenario_summary(app="vectorAdd", n_vps=2)  # warm
        account_file = tracemalloc.Filter(True, "*/repro/obs/account.py")
        tracemalloc.start()
        try:
            scenario_summary(app="vectorAdd", n_vps=2)
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [account_file]
            )
        finally:
            tracemalloc.stop()
        stats = snapshot.statistics("filename")
        assert stats == [], (
            "account module allocated while disabled: "
            + ", ".join(f"{s.traceback}: {s.size}B" for s in stats)
        )
