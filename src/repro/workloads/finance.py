"""Financial workloads: BlackScholes and MonteCarlo.

BlackScholes is the paper's best case: 2045x speedup from plain GPU
multiplexing and 6304x with both optimizations (Section 5).  Its kernel
is almost pure FP32 transcendental arithmetic, which makes the software
emulation baseline catastrophically slow (softfloat) while the GPU eats
it — exactly the regime where SigmaVP shines.

MonteCarlo is FP-heavy too, but the paper groups it with the apps whose
file I/O limits the speedup and whose kernels resist the two
optimizations ("due to the way they access and manage the memory").
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from ..caching import caches_enabled, register_cache_clearer
from ..kernels.functional import functional_kernel
from ..kernels.ir import MemoryFootprint, uniform_kernel
from .base import WorkloadSpec, uniform

_BS_OPTIONS = 4_000_000
#: Spot, strike and years-to-expiry ranges: all positive, as log and sqrt need.
_BS_RANGES = ((5.0, 30.0), (1.0, 100.0), (0.25, 10.0))

BLACK_SCHOLES = WorkloadSpec(
    name="BlackScholes",
    kernel=uniform_kernel(
        "BlackScholes",
        # Per option: d1/d2, two CND evaluations (exp, polynomial) -- a
        # long straight-line FP32 sequence with trivial memory traffic.
        {"fp32": 140, "load": 3, "store": 2, "int": 8, "branch": 4, "bit": 2},
        MemoryFootprint(
            bytes_in=3 * _BS_OPTIONS * 4,
            bytes_out=2 * _BS_OPTIONS * 4,
            working_set_bytes=5 * _BS_OPTIONS * 4,
            locality=0.05,
            coalesced_fraction=1.0,
        ),
        signature="BlackScholes",
    ),
    elements=_BS_OPTIONS,
    input_arrays=3,  # spot, strike, expiry
    element_bytes=4,
    block_size=256,
    iterations=16,
    streaming=False,
    readback_only=True,  # each iteration's prices return to the guest
    sync_every=16,
    c_ops=_BS_OPTIONS * 180.0 * 16,
    params={"riskfree": 0.02, "volatility": 0.30},
    input_factory=lambda rng, i, spec: uniform(rng, spec.elements, *_BS_RANGES[i]),
    description="Black-Scholes option pricing: FP32-saturated, best case",
)


_MC_PATHS = 1_048_576

MONTE_CARLO = WorkloadSpec(
    name="MonteCarlo",
    kernel=uniform_kernel(
        "MonteCarlo",
        # Path simulation: RNG (bit/int mix) + FP32 path updates, with a
        # scattered per-path state layout that defeats coalescing.
        {"fp32": 60, "bit": 18, "int": 14, "load": 8, "store": 4, "branch": 6},
        MemoryFootprint(
            bytes_in=_MC_PATHS * 4,
            bytes_out=_MC_PATHS * 4,
            working_set_bytes=96 * 1024,
            locality=0.8,
            coalesced_fraction=0.45,
        ),
        signature="MonteCarlo",
        coalescible=False,  # per-VP RNG state tables cannot be merged
    ),
    elements=_MC_PATHS,
    input_arrays=1,
    element_bytes=4,
    block_size=256,
    iterations=20,
    streaming=False,
    sync_every=20,
    # Reads option batches from input files, writes results back.
    noncuda_ops=6.0e7,
    c_ops=_MC_PATHS * 110.0 * 20,
    params={"strike": 25.0, "riskfree": 0.02},
    # Spot prices in BlackScholes's range, so some paths end in the money.
    input_factory=lambda rng, i, spec: uniform(rng, spec.elements, *_BS_RANGES[0]),
    description="Monte Carlo option pricing: FP-heavy but file-I/O bound",
)


# -- functional implementations --------------------------------------------------


def _cnd(d: np.ndarray) -> np.ndarray:
    """Cumulative normal distribution, Abramowitz-Stegun polynomial.

    The same approximation the CUDA SDK sample uses, so results can be
    compared against a reference numpy implementation bit-for-bit in
    float32.  Every arithmetic step runs in place on two scratch arrays,
    in the operation order of the textbook expression (the reference in
    ``tests/test_kernel_oracles.py``), so each element rounds the same.
    """
    a1, a2, a3, a4, a5 = (
        0.31938153,
        -0.356563782,
        1.781477937,
        -1.821255978,
        1.330274429,
    )
    # k = 1 / (1 + 0.2316419 |d|)
    k = np.abs(d)
    k *= 0.2316419
    k += 1.0
    np.divide(1.0, k, out=k)
    # poly = k (a1 + k (a2 + k (a3 + k (a4 + k a5))))
    poly = k * a5
    for a in (a4, a3, a2, a1):
        poly += a
        poly *= k
    # cnd = 1 - (1 / sqrt(2 pi)) exp(-d^2 / 2) poly, with -d^2 / 2 as
    # (-0.5 d) d.
    cnd = np.multiply(d, -0.5, out=k)
    cnd *= d
    np.exp(cnd, out=cnd)
    # A Python float: a numpy float64 scalar would promote float32 inputs.
    cnd *= 1.0 / math.sqrt(2.0 * math.pi)
    cnd *= poly
    np.subtract(1.0, cnd, out=cnd)
    # Where d < 0 the result is 1 - cnd, else cnd: |w - cnd| with w the
    # sign mask as 0.0/1.0.  Exact, since 0 <= cnd <= 1 (1.0 - cnd rounds
    # as the textbook 1 - cnd does, and |0.0 - cnd| is cnd), and free of
    # the per-element branch np.where takes on the random signs of real
    # options.
    w = np.less(d, 0.0, out=poly)
    np.subtract(w, cnd, out=cnd)
    return np.abs(cnd, out=cnd)


@functional_kernel("BlackScholes")
def black_scholes_fn(
    spot: np.ndarray,
    strike: np.ndarray,
    years: np.ndarray,
    riskfree: float = 0.02,
    volatility: float = 0.30,
) -> np.ndarray:
    """European call prices (the SDK sample's call output).

    In place, in the reference's operation order:
    ``d1 = (log(S / K) + (r + v^2 / 2) T) / (v sqrt T)``,
    ``d2 = d1 - v sqrt T`` and ``S N(d1) - K e^(-r T) N(d2)``.
    """
    vol_t = np.sqrt(years)
    vol_t *= volatility
    d1 = np.divide(spot, strike)
    np.log(d1, out=d1)
    drift = np.multiply(years, riskfree + 0.5 * volatility**2)
    d1 += drift
    d1 /= vol_t
    d2 = np.subtract(d1, vol_t, out=drift)
    discount = np.multiply(years, -riskfree, out=vol_t)
    np.exp(discount, out=discount)
    discount *= strike
    discount *= _cnd(d2)
    call = _cnd(d1)
    call *= spot
    call -= discount
    return call


def _growth(shape: Tuple[int, ...], dtype: np.dtype, riskfree: float) -> np.ndarray:
    """MonteCarlo's per-path growth factor, read-only.

    Its noise comes from a fixed seed, so it depends only on the
    arguments and every VP of every run shares one array.
    """
    rng = np.random.default_rng(12345)
    noise = rng.standard_normal(shape).astype(dtype)
    growth = np.exp(riskfree - 0.5 + noise)
    growth.flags.writeable = False
    return growth


# Sixteen path counts: the benchmark's functional workload draws nine,
# and an entry for a full-size input (1,048,576 paths) holds 4 MB.
_memo_growth = functools.lru_cache(maxsize=16)(_growth)
register_cache_clearer(_memo_growth.cache_clear)


@functional_kernel("MonteCarlo")
def monte_carlo_fn(
    seeds: np.ndarray, strike: float = 25.0, riskfree: float = 0.02
) -> np.ndarray:
    """Deterministic per-path payoff from the seed array (reference)."""
    growth = (_memo_growth if caches_enabled() else _growth)(
        seeds.shape, seeds.dtype, riskfree
    )
    terminal = np.abs(seeds) * growth
    return np.maximum(terminal - strike, 0.0)
