"""Batched (vectorized) execution of coalesced functional kernels.

A coalesced launch merges N identical kernels; when the registered numpy
implementation is replication-batchable, the dispatcher executes all N
members as ONE call over ``(N, ...)`` stacked inputs.  The contract is
strict bit-identity: for every flagged kernel, the stacked rows must
equal N independent calls element for element and dtype for dtype, and
an end-to-end run must produce the same simulation summary and numeric
outputs under ``NumpyBackend`` (stacked batches) and under the
per-launch test double of :mod:`tests.backend_doubles` (per-VP fallback).
"""

import numpy as np
import pytest

from repro.backend import stacked_rows
from repro.core.scenarios import run_sigma_vp
from repro.kernels.functional import REGISTRY
from repro.workloads import SUITE, get_workload
from tests.backend_doubles import PerLaunchBackend

N_MEMBERS = 3

#: Registered signatures with no catalog workload; inputs supplied here.
EXTRA_INPUTS = {
    "saxpy": lambda seed: tuple(
        np.random.default_rng(seed + p).standard_normal(256).astype(np.float32)
        for p in range(2)
    ),
}


def _member_inputs(signature):
    """N members' worth of realistic inputs plus the kernel's params."""
    extra = EXTRA_INPUTS.get(signature)
    if extra is not None:
        return [extra(seed) for seed in range(N_MEMBERS)], {}
    for name in sorted(SUITE):
        spec = SUITE[name]
        if spec.kernel.signature == signature:
            small = spec.scaled_to(min(spec.elements, 4096), iterations=1)
            members = [
                tuple(small.build_inputs(seed=seed)) for seed in range(N_MEMBERS)
            ]
            return members, dict(small.params)
    pytest.fail(f"no input source for registered kernel {signature!r}")


@pytest.mark.parametrize("signature", REGISTRY.signatures())
def test_every_registered_kernel_batches_or_is_excluded(signature):
    """Flagged kernels: one stacked call == N calls, bit for bit.

    Unflagged kernels are asserted excluded — the registry flag is the
    dispatcher's only gate, so a kernel that reduces, reshapes, or draws
    shape-dependent randomness must never be marked batchable without
    also passing the equivalence arm of this test.
    """
    fn = REGISTRY.require(signature)
    if not REGISTRY.is_batched(signature):
        assert signature not in REGISTRY.batched_signatures()
        return
    members, params = _member_inputs(signature)
    expected = [fn(*inputs, **params) for inputs in members]
    rows = stacked_rows(fn, members, params)
    assert rows is not None, f"{signature}: flagged batched but refused to batch"
    assert len(rows) == N_MEMBERS
    for row, reference in zip(rows, expected):
        assert row.dtype == reference.dtype
        assert row.shape == reference.shape
        np.testing.assert_array_equal(row, reference)


# -- stacked_rows preconditions (fallback triggers) --------------------------


def test_stacked_rows_rejects_empty_and_argless():
    assert stacked_rows(np.add, [], {}) is None
    assert stacked_rows(lambda: np.zeros(3), [(), (), ()], {}) is None


def test_stacked_rows_rejects_nonuniform_shapes():
    a, b = np.zeros(4), np.zeros(4)
    odd = np.zeros(5)
    assert stacked_rows(np.add, [(a, b), (odd, odd)], {}) is None


def test_stacked_rows_rejects_nonuniform_dtypes():
    f32 = np.zeros(4, dtype=np.float32)
    f64 = np.zeros(4, dtype=np.float64)
    assert stacked_rows(np.add, [(f32, f32), (f64, f64)], {}) is None


def test_stacked_rows_rejects_leading_axis_loss():
    # A reduction collapses the member axis: the helper must notice the
    # output no longer has one row per member and refuse.
    assert stacked_rows(lambda x: np.sum(x), [(np.ones(4),), (np.ones(4),)], {}) is None


# -- end-to-end: dispatcher batch path vs per-VP fallback ---------------------


@pytest.mark.parametrize("app", ["vectorAdd", "BlackScholes"])
def test_sigma_vp_batched_matches_fallback(app):
    spec = get_workload(app).scaled_to(2048, iterations=1)

    batched = run_sigma_vp(spec, n_vps=8, coalescing=True, functional=True)
    stats = batched.extras["framework"].dispatcher.stats
    assert stats.batched_launches > 0
    assert stats.batched_members >= 2 * stats.batched_launches
    assert stats.fallback_launches == 0

    fallback = run_sigma_vp(spec, n_vps=8, coalescing=True, functional=True,
                            backend=PerLaunchBackend)
    fb_stats = fallback.extras["framework"].dispatcher.stats
    assert fb_stats.batched_launches == 0
    assert fb_stats.fallback_launches > 0

    assert batched.summary() == fallback.summary()
    np.testing.assert_array_equal(
        batched.extras["result"], fallback.extras["result"]
    )


def test_unbatchable_kernel_uses_fallback():
    # mergeSort is coalescible but registered unbatched (sorting is not
    # replication-batchable in general): merged members execute per-VP.
    spec = get_workload("mergeSort").scaled_to(2048, iterations=1)
    result = run_sigma_vp(spec, n_vps=4, coalescing=True, functional=True)
    stats = result.extras["framework"].dispatcher.stats
    assert stats.batched_launches == 0
    assert stats.fallback_launches > 0
