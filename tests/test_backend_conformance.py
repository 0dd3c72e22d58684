"""Cross-backend conformance: every backend computes the same thing.

Property-based, reikna ``test_cluda_basics`` style: every execution
backend class, over the reference kernel suite, across random dtypes and
shapes, must produce outputs bit-identical to a direct call of the
registered numpy implementation.  The classes are
:class:`~repro.backend.NumpyBackend` and the
:class:`~tests.backend_doubles.Recording` double.  The capstone is
digest interchangeability: the pinned scenarios simulated with each
class injected as ``run_sigma_vp(..., backend=cls)`` produce summaries
equal to the farm's, which runs on the default ``NumpyBackend``.

Comparisons use ``np.array_equal`` / ``tobytes()``, never ``approx``:
scenario digests are pinned on exact float results, so approximate
equality would hide exactly the bugs this suite exists to catch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import NumpyBackend
from repro.core.scenarios import run_sigma_vp
from repro.exec.farm import FarmJob, ScenarioFarm
from repro.api import _spec
from repro.kernels.functional import REGISTRY
from tests.backend_doubles import Recording

#: Every backend class; the conformance property is universally
#: quantified over this list.
BACKENDS = [NumpyBackend, Recording]

#: Parametrize a test over the backend classes, one id per class name.
over_backends = pytest.mark.parametrize(
    "cls", BACKENDS, ids=[cls.name for cls in BACKENDS]
)

DTYPES = (np.float32, np.float64, np.int32, np.int64)


def arrays(data, shape, dtype):
    """A deterministic-per-example random array of ``shape``/``dtype``."""
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-1000, 1000, size=shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


@over_backends
class TestLaunchConformance:
    """backend.launch == the registered implementation, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_vector_add(self, cls, data):
        backend = cls()
        dtype = data.draw(st.sampled_from(DTYPES))
        n = data.draw(st.integers(min_value=1, max_value=512))
        a, b = arrays(data, n, dtype), arrays(data, n, dtype)
        out = backend.d2h(
            backend.launch("vectorAdd", [backend.h2d(a), backend.h2d(b)])
        )
        expected = REGISTRY.require("vectorAdd")(a, b)
        assert out.dtype == expected.dtype
        assert np.asarray(out).tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_saxpy_with_params(self, cls, data):
        backend = cls()
        dtype = data.draw(st.sampled_from((np.float32, np.float64)))
        n = data.draw(st.integers(min_value=1, max_value=512))
        alpha = data.draw(st.floats(
            min_value=-8.0, max_value=8.0, allow_nan=False, width=32
        ))
        x, y = arrays(data, n, dtype), arrays(data, n, dtype)
        out = backend.d2h(backend.launch(
            "saxpy", [backend.h2d(x), backend.h2d(y)], {"alpha": alpha}
        ))
        expected = REGISTRY.require("saxpy")(x, y, alpha=alpha)
        assert np.asarray(out).tobytes() == expected.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matrix_mul(self, cls, data):
        backend = cls()
        dtype = data.draw(st.sampled_from((np.float32, np.float64)))
        d = data.draw(st.integers(min_value=1, max_value=24))
        a, b = arrays(data, (d, d), dtype), arrays(data, (d, d), dtype)
        out = backend.d2h(
            backend.launch("matrixMul", [backend.h2d(a), backend.h2d(b)])
        )
        expected = REGISTRY.require("matrixMul")(a, b)
        assert np.asarray(out).tobytes() == expected.tobytes()


#: Pinned digest-interchangeability scenarios.  Functional, so the
#: backends actually execute.
PINNED_JOBS = [
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="conf:vectorAdd2",
            kwargs={"app": "vectorAdd", "n_vps": 2, "functional": True,
                    "scale_elements": 2048, "scale_iterations": 2}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="conf:vectorAdd4",
            kwargs={"app": "vectorAdd", "n_vps": 4, "functional": True,
                    "scale_elements": 2048, "scale_iterations": 2}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="conf:matrixMul4",
            kwargs={"app": "matrixMul", "n_vps": 4, "functional": True}),
]


def _summary_under(cls, kwargs):
    from repro.caching import clear_all_caches

    clear_all_caches()
    spec = _spec(kwargs["app"], kwargs.get("scale_elements"),
                 kwargs.get("scale_iterations"))
    return run_sigma_vp(spec, n_vps=kwargs["n_vps"],
                        functional=kwargs["functional"], backend=cls).summary()


def test_scenario_digests_interchangeable_across_backends():
    """The acceptance bar: one result, whatever backend class ran."""
    from repro.caching import clear_all_caches

    clear_all_caches()
    farm = ScenarioFarm(workers=1).map_values(PINNED_JOBS)
    for cls in BACKENDS:
        values = [_summary_under(cls, job.kwargs) for job in PINNED_JOBS]
        assert values == farm, cls.name
