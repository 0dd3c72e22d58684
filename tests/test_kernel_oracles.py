"""Reference implementations of the functional kernels that work in place.

``black_scholes_fn`` (with ``_cnd``), ``monte_carlo_fn``,
``physx_step_fn`` and ``simple_gl_fn`` compute their temporaries in
place, and MonteCarlo memoizes its fixed-seed growth factor.  The
references below are the textbook expressions they replace, one fresh
array per operation.  In-place arithmetic in the same operation order
rounds every element the same way, so the kernels must equal them bit
for bit, dtype included: a reordered step shows up as a last-ulp
difference, which a tolerance would hide.
"""

import math

import numpy as np
import pytest

from repro.caching import cache_scope
from repro.workloads.finance import (
    _cnd,
    _memo_growth,
    black_scholes_fn,
    monte_carlo_fn,
)
from repro.workloads.graphics import simple_gl_fn
from repro.workloads.physics import GRAVITY, RESTITUTION, physx_step_fn

N = 65_536
DTYPES = [np.float32, np.float64]


def ref_cnd(d):
    a1, a2, a3, a4, a5 = (
        0.31938153,
        -0.356563782,
        1.781477937,
        -1.821255978,
        1.330274429,
    )
    k = 1.0 / (1.0 + 0.2316419 * np.abs(d))
    poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))))
    cnd = 1.0 - 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * d * d) * poly
    return np.where(d < 0, 1.0 - cnd, cnd)


def ref_d1_d2(spot, strike, years, riskfree, volatility):
    sqrt_t = np.sqrt(years)
    d1 = (
        np.log(spot / strike) + (riskfree + 0.5 * volatility**2) * years
    ) / (volatility * sqrt_t)
    return d1, d1 - volatility * sqrt_t


def ref_black_scholes(spot, strike, years, riskfree=0.02, volatility=0.30):
    d1, d2 = ref_d1_d2(spot, strike, years, riskfree, volatility)
    discount = np.exp(-riskfree * years)
    return spot * ref_cnd(d1) - strike * discount * ref_cnd(d2)


def ref_monte_carlo(seeds, strike=25.0, riskfree=0.02):
    rng = np.random.default_rng(12345)
    noise = rng.standard_normal(seeds.shape).astype(seeds.dtype)
    terminal = np.abs(seeds) * np.exp(riskfree - 0.5 + noise)
    return np.maximum(terminal - strike, 0.0)


def ref_physx_step(state, dt=1.0):
    state = np.asarray(state, dtype=np.float32).reshape(-1, 4)
    x, y, vx, vy = state.T.copy()
    vy = vy + GRAVITY * dt
    x = x + vx * dt
    y = y + vy * dt
    below = y < 0.0
    y = np.where(below, -y * RESTITUTION, y)
    vy = np.where(below, -vy * RESTITUTION, vy)
    vx = np.where(below, vx * RESTITUTION, vx)
    return np.column_stack([x, y, vx, vy]).astype(np.float32)


def ref_simple_gl(mesh, time=1.0):
    xy = mesh.reshape(-1, 2)
    freq = 4.0
    w = np.sin(xy[:, 0] * freq + time) * np.cos(xy[:, 1] * freq + time) * 0.5
    return np.column_stack([xy[:, 0], w, xy[:, 1]]).astype(np.float32)


def _read_only(*arrays):
    """The inputs as the backend's H2D hands them over: read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_cnd_matches_reference(dtype):
    rng = np.random.default_rng(7)
    (d,) = _read_only(rng.uniform(-8.0, 8.0, N).astype(dtype))
    assert (d < 0).any() and (d >= 0).any()
    _assert_identical(_cnd(d), ref_cnd(d))


@pytest.mark.parametrize("dtype", DTYPES)
def test_cnd_edges_match_reference_bit_for_bit(dtype):
    # The sign select is arithmetic, not a branch: at a signed zero, at
    # the ends of the range and past them it must give the reference's
    # bits (array_equal alone would let -0.0 stand for 0.0).
    big = np.finfo(dtype).max
    edges = [0.0, -0.0, 1e-30, -1e-30, 7.5, -7.5, 1e4, -1e4, 1e30, -1e30,
             big, -big, np.inf, -np.inf]
    (d,) = _read_only(np.array(edges, dtype=dtype))
    with np.errstate(over="ignore"):
        got, want = _cnd(d), ref_cnd(d)
    _assert_identical(got, want)
    assert got.tobytes() == want.tobytes()
    assert np.all((got >= 0.0) & (got <= 1.0))


@pytest.mark.parametrize("dtype", DTYPES)
def test_black_scholes_matches_reference(dtype):
    rng = np.random.default_rng(11)
    spot, strike, years = _read_only(
        rng.uniform(5.0, 30.0, N).astype(dtype),
        rng.uniform(1.0, 100.0, N).astype(dtype),
        rng.uniform(0.25, 10.0, N).astype(dtype),
    )
    params = {"riskfree": 0.02, "volatility": 0.30}
    d1, d2 = ref_d1_d2(spot, strike, years, **params)
    # Both CND branches, for both arguments, including d2 < 0 <= d1.
    assert (d1 < 0).any() and (d1 >= 0).any()
    assert ((d2 < 0) & (d1 >= 0)).any() and (d2 >= 0).any()
    _assert_identical(
        black_scholes_fn(spot, strike, years, **params),
        ref_black_scholes(spot, strike, years, **params),
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_monte_carlo_matches_reference_with_and_without_memo(dtype):
    rng = np.random.default_rng(3)
    (seeds,) = _read_only(rng.uniform(5.0, 30.0, N).astype(dtype))
    want = ref_monte_carlo(seeds)
    assert (want > 0).any() and (want == 0).any()
    _memo_growth.cache_clear()
    first = monte_carlo_fn(seeds)
    again = monte_carlo_fn(seeds)
    assert _memo_growth.cache_info().hits >= 1
    _assert_identical(first, want)
    _assert_identical(again, want)
    with cache_scope(False):
        uncached = monte_carlo_fn(seeds)
        assert _memo_growth.cache_info().currsize == 0
    _assert_identical(uncached, want)


def test_monte_carlo_memo_is_read_only():
    seeds = np.full(1024, 20.0, dtype=np.float32)
    monte_carlo_fn(seeds, riskfree=0.05)
    growth = _memo_growth(seeds.shape, seeds.dtype, 0.05)
    assert growth.flags.writeable is False
    with pytest.raises(ValueError):
        growth *= 2.0


def test_physx_step_matches_reference():
    rng = np.random.default_rng(5)
    (state,) = _read_only(
        np.column_stack([
            rng.uniform(0.0, 1.0, N),
            rng.uniform(-0.01, 0.05, N),  # some particles cross the ground
            rng.uniform(-0.01, 0.01, N),
            rng.uniform(-0.05, 0.01, N),
        ]).astype(np.float32)
    )
    want = ref_physx_step(state)
    below = state[:, 1] + (state[:, 3] + GRAVITY) < 0.0
    assert below.any() and (~below).any()
    _assert_identical(physx_step_fn(state), want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_simple_gl_matches_reference(dtype):
    rng = np.random.default_rng(9)
    (mesh,) = _read_only(rng.uniform(-1.0, 1.0, (N, 2)).astype(dtype))
    _assert_identical(simple_gl_fn(mesh, time=0.5), ref_simple_gl(mesh, time=0.5))
