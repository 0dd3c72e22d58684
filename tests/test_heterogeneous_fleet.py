"""Tests for heterogeneous fleets: mixed apps, mixed guest CPUs.

The paper's setting (via netShip [10]) is heterogeneous distributed
embedded systems: different VPs run different applications on different
platforms.  The framework must serve them concurrently, and coalescing
must merge only the VPs that actually run the identical kernel.
"""

import numpy as np

from repro.core import SHARED_MEMORY, SigmaVP
from repro.kernels.functional import REGISTRY
from repro.vp.cpu import CPUModel, HOST_XEON, QEMU_ARM_VP
from repro.workloads import SUITE
from repro.workloads.linalg import make_vectoradd_spec


def test_mixed_apps_complete_and_only_matching_kernels_merge():
    framework = SigmaVP(transport=SHARED_MEMORY, registry=REGISTRY,
                        target_batch=2)
    vec_spec = make_vectoradd_spec(elements=2048, iterations=2)
    sort_spec = SUITE["mergeSort"].scaled_to(2048, iterations=2)

    processes = []
    for name, spec in (("va0", vec_spec), ("va1", vec_spec),
                       ("ms0", sort_spec), ("ms1", sort_spec)):
        framework.add_vp(name)
        processes.append(framework.spawn(name, spec, seed=0))
    framework.run_until(processes)

    # Merges happened within app families, never across them: every
    # merged launch covers kernels of one code digest.
    for record in framework.profiler.records:
        assert record.coalesced_members in (0, 2)
    merged_kernels = {
        r.kernel_name for r in framework.profiler.records
        if r.coalesced_members
    }
    assert merged_kernels <= {"vectorAdd", "mergeSort"}

    # Functional results are still per-app correct.
    a, b = vec_spec.build_inputs(0)
    np.testing.assert_allclose(
        framework.session("va0").processes[0].value, a + b
    )
    (keys,) = sort_spec.build_inputs(0)
    np.testing.assert_array_equal(
        framework.session("ms0").processes[0].value, np.sort(keys)
    )


def test_mixed_guest_cpus():
    """A fast (native-speed) guest and a slow binary-translated guest
    share the host GPU; both finish, the slow one later."""
    framework = SigmaVP(transport=SHARED_MEMORY)
    fast = framework.add_vp("fast", cpu=HOST_XEON)
    slow = framework.add_vp("slow", cpu=QEMU_ARM_VP)
    spec = make_vectoradd_spec(elements=4096, iterations=2)
    processes = [framework.spawn("fast", spec), framework.spawn("slow", spec)]
    framework.run_until(processes)
    assert fast.vp.finished_at_ms is not None
    assert slow.vp.finished_at_ms is not None
    # Guest-side time dominates the difference.
    assert slow.vp.guest_cpu_ms > 10 * fast.vp.guest_cpu_ms


def test_custom_guest_cpu_model():
    exotic = CPUModel(name="RISC-V guest", ops_per_ms=1e5)
    framework = SigmaVP(transport=SHARED_MEMORY, vp_cpu=exotic)
    session = framework.add_vp()
    assert session.vp.cpu is exotic


def test_stragglers_do_not_block_others():
    """One VP with 10x the work must not delay the small VPs' completion
    to its own finish time (pipelined service, no convoy effect)."""
    framework = SigmaVP(transport=SHARED_MEMORY, coalescing=False)
    small_spec = make_vectoradd_spec(elements=2048, iterations=1)
    big_spec = make_vectoradd_spec(elements=2048, iterations=20)
    for name in ("s0", "s1", "s2"):
        framework.add_vp(name)
    framework.add_vp("big")
    processes = [framework.spawn(name, small_spec) for name in ("s0", "s1", "s2")]
    processes.append(framework.spawn("big", big_spec))
    framework.run_until(processes)
    big_finish = framework.session("big").vp.finished_at_ms
    for name in ("s0", "s1", "s2"):
        assert framework.session(name).vp.finished_at_ms < big_finish / 2
