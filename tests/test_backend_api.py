"""The execution-backend seam: launches, transfers, accounting.

Covers the CLUDA-style contract of :mod:`repro.backend`: the zero-copy
read-only H2D guarantee, launches, the allocation ledger, the
``exec.backend_*`` observability counters, and the heap policy that
keeps freed array memory mapped across runs.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.backend import NumpyBackend
from repro.kernels.functional import FunctionalRegistry
from tests.backend_doubles import Recording


def test_unregistered_signature_launches_nothing():
    # Timing-only runs launch unregistered signatures constantly; the
    # launch must answer None without touching the inputs.
    backend = NumpyBackend(FunctionalRegistry())
    assert backend.launch("vectorAdd", [np.zeros(4)]) is None


class TestZeroCopyH2D:
    def test_h2d_returns_read_only_view(self):
        backend = NumpyBackend()
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
        backend = NumpyBackend(registry)
        device = backend.h2d(np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError, match="read-only"):
            backend.launch("mutator", [device])

    def test_d2h_passes_none_through(self):
        assert NumpyBackend().d2h(None) is None


class TestLaunch:
    def test_launch_runs_registered_kernel(self):
        backend = NumpyBackend()
        a = np.arange(4, dtype=np.float32)
        b = np.full(4, 2.0, dtype=np.float32)
        out = backend.launch("vectorAdd", [backend.h2d(a), backend.h2d(b)])
        np.testing.assert_array_equal(out, a + b)


class TestAllocationLedger:
    def test_tokens_and_live_bytes(self):
        backend = NumpyBackend()
        t1 = backend.allocate(100, owner="vp0")
        t2 = backend.allocate(50, owner="vp1")
        assert t1 != t2
        assert backend.live_bytes == 150
        backend.free(t1)
        assert backend.live_bytes == 50
        backend.free(t2)
        assert backend.live_bytes == 0

    def test_double_free_raises(self):
        backend = NumpyBackend()
        token = backend.allocate(8)
        backend.free(token)
        with pytest.raises(RuntimeError, match="double-freed"):
            backend.free(token)

    def test_nonpositive_allocation_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            NumpyBackend().allocate(0)


class TestObservabilityCounters:
    def test_backend_counters_under_capture(self):
        backend = NumpyBackend()
        a = np.arange(8, dtype=np.float32)
        with obs.capture() as cap:
            token = backend.allocate(a.nbytes)
            device = backend.h2d(a)
            backend.d2h(backend.launch("vectorAdd", [device, device]))
            backend.free(token)
        snap = cap.registry.snapshot()
        assert snap["exec.backend_allocs"]["value"] == 1
        assert snap["exec.backend_frees"]["value"] == 1
        assert snap["exec.backend_h2d"]["value"] == 1
        assert snap["exec.backend_d2h"]["value"] == 1
        assert snap["exec.backend_launches"]["value"] == 1

    def test_counters_cost_nothing_when_disabled(self):
        # No registry active: the guard path must simply not count.
        backend = NumpyBackend()
        backend.h2d(np.zeros(2))  # must not raise


def test_template_methods_count_even_for_custom_backends():
    """Third-party subclasses inherit counting and ledger for free."""
    backend = Recording()
    with obs.capture() as cap:
        backend.h2d(np.zeros(4))
    assert cap.registry.snapshot()["exec.backend_h2d"]["value"] == 1


#: Runs one functional 4-VP matrixMul three times in a fresh process and
#: prints the second run's minor page faults, then the pages the third
#: run's arrays peak at (tracemalloc sees numpy's data allocations).
_REFAULT_PROBE = textwrap.dedent("""
    import gc, mmap, resource, tracemalloc
    from repro.api import RunRequest, scenario

    request = RunRequest(app="matrixMul", n_vps=4, functional=True)

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    scenario(request)
    gc.collect()
    before = faults()
    scenario(request)
    second = faults() - before
    gc.collect()
    tracemalloc.start()
    scenario(request)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(second, peak // mmap.PAGESIZE)
""")


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's mallopt"
)
def test_second_functional_run_does_not_refault_its_arrays():
    # Without the heap policy glibc trims what a collected run freed,
    # and the next run page-faults about its whole working set again.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _REFAULT_PROBE],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    faults, working_set_pages = map(int, proc.stdout.split())
    assert working_set_pages > 1000  # two 320x320 float32 inputs and an output per VP
    assert faults < 0.1 * working_set_pages, (faults, working_set_pages)
