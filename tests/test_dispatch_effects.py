"""Timing-only runs attach no functional effects to their jobs.

With an empty functional registry no kernel can execute, so the
dispatcher decides once, at construction, to build no H2D or kernel
effect: no transfer reaches the backend and no launch is asked for.
The native and emulation routes (Table 1, Fig. 11) apply the same rule.
D2H copies still deliver to the guest's sink.  Simulated timing never
reads a payload, so the summary is the functional run's.  A functional
run asks the backend for exactly what it always did (the counts below
were taken before timing-only runs dropped their effects).
"""

import pytest

from repro.core.scenarios import run_emulation, run_native_gpu, run_sigma_vp
from repro.workloads import get_workload
from tests.backend_doubles import Counting

#: Elements per VP: small, so the functional runs stay cheap.
ELEMENTS = 4096

#: Backend calls of a functional 3-VP run, identical with and without
#: coalescing.
FUNCTIONAL_CALLS = {
    "vectorAdd": {"h2d": 48, "d2h": 24, "launch": 24},
    "physxParticles": {"h2d": 3, "d2h": 144, "launch": 144},
    "BlackScholes": {"h2d": 9, "d2h": 48, "launch": 48},
    "MonteCarlo": {"h2d": 3, "d2h": 3, "launch": 60},
}


def _run(app, coalescing, functional):
    result = run_sigma_vp(
        get_workload(app).scaled_to(ELEMENTS), n_vps=3, coalescing=coalescing,
        functional=functional, backend=Counting,
    )
    return result, result.extras["framework"]


@pytest.mark.parametrize("coalescing", [True, False])
@pytest.mark.parametrize("app", sorted(FUNCTIONAL_CALLS))
def test_timing_only_run_makes_no_transfer_or_launch(app, coalescing):
    timing, framework = _run(app, coalescing, functional=False)
    functional, _ = _run(app, coalescing, functional=True)
    calls = framework.backend.calls
    assert calls["h2d"] == 0
    assert calls["launch"] == 0
    # Every D2H still reaches its sink: one delivery per copy.
    assert calls["d2h"] == FUNCTIONAL_CALLS[app]["d2h"]
    assert timing.summary() == functional.summary()


@pytest.mark.parametrize("coalescing", [True, False])
@pytest.mark.parametrize("app", sorted(FUNCTIONAL_CALLS))
def test_functional_run_asks_for_every_effect(app, coalescing):
    _, framework = _run(app, coalescing, functional=True)
    assert framework.backend.calls == FUNCTIONAL_CALLS[app]


def test_timing_only_feedback_app_result_is_none():
    # physxParticles reads back its input buffer; with no H2D effect the
    # buffer holds no payload, so the guest receives None.
    timing, _ = _run("physxParticles", True, functional=False)
    assert timing.extras["result"] is None
    functional, _ = _run("physxParticles", True, functional=True)
    assert functional.extras["result"] is not None


#: Backend calls of the native route and of a 2-instance emulation of
#: vectorAdd at ``ELEMENTS``, with functional execution on.
ROUTE_CALLS = {
    "native": {"h2d": 16, "d2h": 8, "launch": 8},
    "emulation": {"h2d": 32, "d2h": 16, "launch": 16},
}


def _route(route, functional):
    spec = get_workload("vectorAdd").scaled_to(ELEMENTS)
    calls = []

    class Counted(Counting):
        def __init__(self, registry=None):
            super().__init__(registry)
            calls.append(self.calls)

    if route == "native":
        result = run_native_gpu(spec, functional=functional, backend=Counted)
    else:
        result = run_emulation(
            spec, n_instances=2, functional=functional, backend=Counted
        )
    (counted,) = calls
    return result, counted


@pytest.mark.parametrize("route", sorted(ROUTE_CALLS))
def test_timing_only_route_makes_no_transfer_or_launch(route):
    timing, calls = _route(route, functional=False)
    functional, functional_calls = _route(route, functional=True)
    assert calls == {**ROUTE_CALLS[route], "h2d": 0, "launch": 0}
    assert functional_calls == ROUTE_CALLS[route]
    assert timing.summary() == functional.summary()
