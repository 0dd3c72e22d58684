"""The execution-backend seam: registry, selection, accounting.

Covers the CLUDA-style contract of :mod:`repro.backend`: name-keyed
registration and listing, process-default selection (env var, setter,
scope), the zero-copy read-only H2D guarantee, stacked batching and its
per-VP fallback, the allocation ledger, and the ``exec.backend_*``
observability counters.
"""

import numpy as np
import pytest

from repro import obs
from repro.backend import (
    BackendConfig,
    ExecutionBackend,
    available_backends,
    backend_scope,
    default_backend,
    default_backend_name,
    make_backend,
    set_default_backend,
)
from repro.backend.registry import BACKEND_ENV_VAR, DEFAULT_BACKEND_NAME
from repro.kernels.functional import REGISTRY, FunctionalRegistry
from repro.sched.config import SchedulerConfig
from tests.backend_doubles import PER_LAUNCH


class TestRegistry:
    def test_numpy_and_injected_doubles_registered(self):
        names = [name for name, _ in available_backends()]
        assert {"numpy", PER_LAUNCH} <= set(names)

    def test_listing_is_sorted_with_descriptions(self):
        listing = available_backends()
        assert listing == sorted(listing)
        assert all(desc for _, desc in listing)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError, match="numpy"):
            make_backend("no-such-backend")


class TestDefaultSelection:
    def test_builtin_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == DEFAULT_BACKEND_NAME == "numpy"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, PER_LAUNCH)
        assert default_backend_name() == PER_LAUNCH

    def test_setter_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, PER_LAUNCH)
        previous = set_default_backend("numpy")
        try:
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(previous)
        assert default_backend_name() == PER_LAUNCH

    def test_setter_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            set_default_backend("no-such-backend")

    def test_scope_restores_on_exit_and_error(self):
        before = default_backend_name()
        with backend_scope("numpy"):
            assert default_backend_name() == "numpy"
        assert default_backend_name() == before
        with pytest.raises(RuntimeError):
            with backend_scope("numpy"):
                raise RuntimeError("boom")
        assert default_backend_name() == before

    def test_default_backend_shares_instance_per_registry(self):
        registry = FunctionalRegistry()
        with backend_scope("numpy"):
            a = default_backend(registry)
            b = default_backend(registry)
            bare = default_backend()
        assert a is b
        assert a.registry is registry
        assert bare is not a
        assert bare.registry is REGISTRY


def test_unregistered_signature_launches_nothing():
    # Timing-only runs launch unregistered signatures constantly; both
    # launch paths must answer None without touching the inputs.
    backend = make_backend("numpy", registry=FunctionalRegistry())
    assert backend.launch("vectorAdd", [np.zeros(4)]) is None
    assert backend.launch_batched("vectorAdd", [(np.zeros(4),)] * 2) is None


class TestZeroCopyH2D:
    def test_h2d_returns_read_only_view(self):
        backend = make_backend("numpy")
        host = np.arange(8, dtype=np.float32)
        device = backend.h2d(host)
        assert device.base is host
        assert device.flags.writeable is False
        np.testing.assert_array_equal(device, host)

    def test_mutating_kernel_fails_loudly(self):
        # The regression this flag exists for: an in-place mutation of a
        # submitted array must be a ValueError, not silent corruption.
        registry = FunctionalRegistry()

        def mutating(a):
            a += 1.0
            return a

        registry.register("mutator", mutating)
        backend = make_backend("numpy", registry=registry)
        device = backend.h2d(np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError, match="read-only"):
            backend.launch("mutator", [device])

    def test_d2h_passes_none_through(self):
        assert make_backend("numpy").d2h(None) is None


class TestLaunch:
    def test_launch_runs_registered_kernel(self):
        backend = make_backend("numpy")
        a = np.arange(4, dtype=np.float32)
        b = np.full(4, 2.0, dtype=np.float32)
        out = backend.launch("vectorAdd", [backend.h2d(a), backend.h2d(b)])
        np.testing.assert_array_equal(out, a + b)

    def test_launch_batched_requires_capability(self):
        rows = make_backend("numpy").launch_batched(
            "vectorAdd", [(np.ones(4), np.ones(4))] * 3
        )
        assert rows is not None and len(rows) == 3
        # The capability is a _launch_batched implementation; a backend
        # without one always takes the per-VP fallback.
        assert make_backend(PER_LAUNCH).launch_batched(
            "vectorAdd", [(np.ones(4), np.ones(4))] * 3
        ) is None

    def test_launch_batched_empty_batch_is_fallback(self):
        assert make_backend("numpy").launch_batched(
            "vectorAdd", []
        ) is None


class TestAllocationLedger:
    def test_tokens_and_live_bytes(self):
        backend = make_backend("numpy")
        t1 = backend.allocate(100, owner="vp0")
        t2 = backend.allocate(50, owner="vp1")
        assert t1 != t2
        assert backend.live_bytes == 150
        backend.free(t1)
        assert backend.live_bytes == 50
        backend.free(t2)
        assert backend.live_bytes == 0

    def test_double_free_raises(self):
        backend = make_backend("numpy")
        token = backend.allocate(8)
        backend.free(token)
        with pytest.raises(RuntimeError, match="double-freed"):
            backend.free(token)

    def test_nonpositive_allocation_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_backend("numpy").allocate(0)


class TestObservabilityCounters:
    def test_backend_counters_under_capture(self):
        backend = make_backend("numpy")
        a = np.arange(8, dtype=np.float32)
        with obs.capture() as cap:
            token = backend.allocate(a.nbytes)
            device = backend.h2d(a)
            backend.d2h(backend.launch("vectorAdd", [device, device]))
            backend.launch_batched("vectorAdd", [(a, a), (a, a)])
            backend.free(token)
        snap = cap.registry.snapshot()
        assert snap["exec.backend_allocs"]["value"] == 1
        assert snap["exec.backend_frees"]["value"] == 1
        assert snap["exec.backend_h2d"]["value"] == 1
        assert snap["exec.backend_d2h"]["value"] == 1
        assert snap["exec.backend_launches"]["value"] == 1
        assert snap["exec.backend_batched_launches"]["value"] == 1
        assert snap["exec.backend_batched_members"]["value"] == 2

    def test_counters_cost_nothing_when_disabled(self):
        # No registry active: the guard path must simply not count.
        backend = make_backend("numpy")
        backend.h2d(np.zeros(2))  # must not raise


class TestSchedulerConfigIntegration:
    def test_string_backend_coerced_to_config(self):
        sched = SchedulerConfig(backend="numpy")
        assert isinstance(sched.backend, BackendConfig)
        assert sched.backend.name == "numpy"
        assert sched.resolve_backend() == "numpy"
        assert sched.backend_options() == {}

    def test_none_backend_inherits_process_default(self):
        sched = SchedulerConfig()
        with backend_scope("numpy"):
            assert sched.resolve_backend() == "numpy"

    def test_backend_never_enters_stage_identity(self):
        # The scenario label (digest wire format) keys off the stages;
        # a backend choice is a run mechanic and must not change it.
        assert SchedulerConfig(backend="numpy").is_default_stages()


class TestFarmIntegration:
    def test_initargs_ship_resolved_backend(self):
        from repro.exec.farm import ScenarioFarm

        farm = ScenarioFarm(workers=1)
        assert farm._initargs()[-1] == default_backend_name()
        with backend_scope("numpy"):
            assert farm._initargs()[-1] == "numpy"

    def test_init_worker_selects_backend(self):
        from repro.exec.farm import _init_worker

        before = default_backend_name()
        try:
            _init_worker(warm=False, backend="numpy")
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(None)
        assert default_backend_name() == before


def test_template_methods_count_even_for_custom_backends():
    """Third-party subclasses inherit counting and ledger for free."""

    class Recording(ExecutionBackend):
        name = "recording-test"
        description = "test double"

        def asarray(self, host):
            return np.asarray(host)

        def _h2d(self, host):
            return np.asarray(host)

        def _d2h(self, device):
            return device

        def _launch(self, fn, inputs, params):
            return fn(*inputs, **params)

    backend = Recording()
    with obs.capture() as cap:
        backend.h2d(np.zeros(4))
    assert cap.registry.snapshot()["exec.backend_h2d"]["value"] == 1
