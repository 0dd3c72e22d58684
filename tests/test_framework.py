"""Tests for the SigmaVP framework facade."""

import numpy as np
import pytest

from repro.core import SHARED_MEMORY, SigmaVP
from repro.core.dispatcher import ServiceMode
from repro.sched import FIFOPolicy, InterleavingPolicy
from repro.gpu import GRID_K520
from repro.workloads.linalg import make_vectoradd_spec


def test_default_wiring():
    framework = SigmaVP(n_vps=2)
    assert framework.interleaving and framework.coalescing
    assert isinstance(framework.dispatcher.policy, InterleavingPolicy)
    assert framework.dispatcher.mode is ServiceMode.PIPELINED
    assert framework.coalescer is not None
    assert framework.coalescer.target_batch == 2


def test_baseline_wiring():
    framework = SigmaVP(interleaving=False, coalescing=False)
    assert isinstance(framework.dispatcher.policy, FIFOPolicy)
    assert framework.dispatcher.mode is ServiceMode.SERIAL
    assert framework.coalescer is None


def test_add_vp_names_and_registration():
    framework = SigmaVP()
    session = framework.add_vp()
    assert session.vp.name == "vp0"
    assert framework.ipc.vp_control.registered() == ["vp0"]
    named = framework.add_vp("special")
    assert framework.session("special") is named
    with pytest.raises(ValueError):
        framework.add_vp("special")
    with pytest.raises(KeyError):
        framework.session("ghost")


def test_auto_target_batch_tracks_vp_count():
    framework = SigmaVP()
    for expected in (1, 2, 3):
        framework.add_vp()
        assert framework.coalescer.target_batch == expected


def test_explicit_target_batch_not_overwritten():
    framework = SigmaVP(target_batch=4, n_vps=8)
    assert framework.coalescer.target_batch == 4


def test_alternate_host_arch():
    framework = SigmaVP(host_arch=GRID_K520)
    assert framework.gpu.arch.name == "Grid K520"
    assert framework.analyzer.host is GRID_K520


def test_run_workload_requires_vps():
    framework = SigmaVP()
    with pytest.raises(RuntimeError):
        framework.run_workload(make_vectoradd_spec(elements=1024))


def test_run_workload_completes_all_vps():
    framework = SigmaVP(n_vps=3, transport=SHARED_MEMORY)
    spec = make_vectoradd_spec(elements=4096, iterations=2)
    total = framework.run_workload(spec)
    assert total > 0
    for session in framework.sessions.values():
        assert session.vp.finished_at_ms is not None
        assert session.processes[0].value is None or True  # completed


def test_profiler_collects_kernel_records():
    framework = SigmaVP(n_vps=2, transport=SHARED_MEMORY)
    spec = make_vectoradd_spec(elements=4096, iterations=3)
    framework.run_workload(spec)
    assert len(framework.profiler) >= 3  # merged launches count once each
    assert {r.kernel_name for r in framework.profiler.records} == {"vectorAdd"}


def test_estimation_passthrough():
    framework = SigmaVP(n_vps=1)
    spec = make_vectoradd_spec(elements=4096, iterations=1)
    framework.run_workload(spec)
    estimate = framework.estimate_timing(spec.kernel, spec.launch_config())
    assert estimate.target_name == "Tegra K1"
    assert estimate.c_double_prime_cycles > 0
    power = framework.estimate_power(spec.kernel, spec.launch_config())
    assert power.total_w > 0


def test_functional_through_framework():
    from repro.kernels.functional import REGISTRY

    framework = SigmaVP(n_vps=2, transport=SHARED_MEMORY, registry=REGISTRY)
    spec = make_vectoradd_spec(elements=2048, iterations=1)
    framework.run_workload(spec)
    session = framework.session("vp0")
    result = session.processes[0].value
    a, b = spec.build_inputs(0)
    np.testing.assert_allclose(result, a + b)


def test_total_time_property():
    framework = SigmaVP(n_vps=1, transport=SHARED_MEMORY)
    spec = make_vectoradd_spec(elements=2048, iterations=1)
    framework.run_workload(spec)
    assert framework.total_time_ms == framework.env.now


# -- timing-only runs share one read-only input set ---------------------------------

_SHARED_APPS = ("vectorAdd", "physxParticles", "smokeParticles", "matrixMul")


@pytest.fixture
def per_vp_inputs(monkeypatch):
    """Hand every app its own ``build_inputs(seed)``, explicitly through build_app."""
    import repro.core.scenarios as scenarios
    import repro.workloads.base as base

    real_build_app = base.build_app

    def per_vp_build_app(spec, api, seed=0, inputs=None):
        return real_build_app(spec, api, seed=seed, inputs=spec.build_inputs(seed))

    def install():
        monkeypatch.setattr(base, "build_app", per_vp_build_app)
        monkeypatch.setattr(scenarios, "build_app", per_vp_build_app)

    return install


@pytest.mark.parametrize("coalescing", [True, False])
@pytest.mark.parametrize("app", _SHARED_APPS)
def test_shared_inputs_leave_the_summary_unchanged(app, coalescing, per_vp_inputs):
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    spec = get_workload(app)
    shared = run_sigma_vp(spec, n_vps=3, coalescing=coalescing)
    per_vp_inputs()
    reference = run_sigma_vp(spec, n_vps=3, coalescing=coalescing)
    assert shared.summary() == reference.summary()
    np.testing.assert_array_equal(shared.extras["result"], reference.extras["result"])


@pytest.mark.parametrize("concurrent", [True, False])
@pytest.mark.parametrize("app", _SHARED_APPS)
def test_shared_inputs_leave_emulation_unchanged(app, concurrent, per_vp_inputs):
    from repro.core.scenarios import run_emulation
    from repro.workloads import get_workload

    spec = get_workload(app)
    shared = run_emulation(spec, n_instances=3, concurrent=concurrent)
    per_vp_inputs()
    reference = run_emulation(spec, n_instances=3, concurrent=concurrent)
    assert shared.summary() == reference.summary()


@pytest.fixture
def input_builds(monkeypatch):
    """Every list ``WorkloadSpec.build_inputs`` returns, in call order."""
    from repro.workloads import WorkloadSpec

    builds = []
    real_build_inputs = WorkloadSpec.build_inputs

    def counting(self, seed=0):
        inputs = real_build_inputs(self, seed)
        builds.append(inputs)
        return inputs

    monkeypatch.setattr(WorkloadSpec, "build_inputs", counting)
    return builds


def test_timing_only_run_builds_inputs_once(input_builds):
    from repro.core.scenarios import run_emulation, run_sigma_vp

    spec = make_vectoradd_spec(elements=2048, iterations=2)
    run_sigma_vp(spec, n_vps=4)
    run_emulation(spec, n_instances=3, concurrent=True)
    run_emulation(spec, n_instances=3)
    assert len(input_builds) == 3
    for inputs in input_builds:
        assert all(array.flags.writeable is False for array in inputs)


def test_functional_run_builds_inputs_per_vp(input_builds):
    from repro.core.scenarios import run_sigma_vp

    run_sigma_vp(make_vectoradd_spec(elements=2048), n_vps=4, functional=True)
    assert len(input_builds) == 4
