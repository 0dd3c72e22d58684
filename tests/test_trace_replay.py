"""Tests for CUDA API trace parsing and replay."""

import json

import numpy as np
import pytest

from repro.sim import Environment
from repro.vp import CudaRuntime, EmulationBackend, HOST_XEON, VirtualPlatform
from repro.workloads.trace import TraceError, load_trace, parse_trace, replay

VALID_TRACE = {
    "name": "mini-vecadd",
    "calls": [
        {"op": "malloc", "buf": "A", "nbytes": 4096},
        {"op": "malloc", "buf": "B", "nbytes": 4096},
        {"op": "malloc", "buf": "OUT", "nbytes": 4096},
        {"op": "h2d", "buf": "A", "nbytes": 4096},
        {"op": "h2d", "buf": "B", "nbytes": 4096},
        {
            "op": "launch",
            "kernel": {
                "name": "vadd",
                "signature": "vectorAdd",
                "mix": {"fp32": 1, "load": 2, "store": 1},
                "working_set": 12288,
            },
            "grid": 4,
            "block": 256,
            "elements": 1024,
            "args": ["A", "B"],
            "out": "OUT",
        },
        {"op": "sync"},
        {"op": "d2h", "buf": "OUT", "nbytes": 4096},
        {"op": "cpu", "ops": 1e4},
        {"op": "free", "buf": "A"},
    ],
}


# -- parsing ----------------------------------------------------------------


def test_parse_valid_trace():
    trace = parse_trace(VALID_TRACE)
    assert trace.name == "mini-vecadd"
    assert len(trace) == 10
    assert trace.kernel_launches() == 1
    assert "vadd" in trace.kernels


def test_parse_from_json_text():
    trace = parse_trace(json.dumps(VALID_TRACE))
    assert trace.kernel_launches() == 1


def test_parse_rejects_bad_json():
    with pytest.raises(TraceError):
        parse_trace("{not json")


def test_parse_rejects_empty_calls():
    with pytest.raises(TraceError):
        parse_trace({"calls": []})


def test_parse_rejects_unknown_op():
    with pytest.raises(TraceError, match="unknown op"):
        parse_trace({"calls": [{"op": "warp-drive"}]})


def test_parse_rejects_use_before_malloc():
    with pytest.raises(TraceError, match="unallocated"):
        parse_trace({"calls": [{"op": "h2d", "buf": "X", "nbytes": 64}]})


def test_parse_rejects_use_after_free():
    with pytest.raises(TraceError, match="unallocated"):
        parse_trace({"calls": [
            {"op": "malloc", "buf": "X", "nbytes": 64},
            {"op": "free", "buf": "X"},
            {"op": "d2h", "buf": "X"},
        ]})


def test_parse_rejects_launch_without_kernel():
    with pytest.raises(TraceError, match="needs a 'kernel'"):
        parse_trace({"calls": [{"op": "launch", "grid": 1, "block": 32}]})


def test_parse_rejects_unknown_kernel_reference():
    with pytest.raises(TraceError, match="unknown kernel"):
        parse_trace({"calls": [
            {"op": "launch", "kernel": "ghost", "grid": 1, "block": 32},
        ]})


def test_kernel_reference_reuses_definition():
    trace = parse_trace({"calls": [
        {"op": "malloc", "buf": "A", "nbytes": 64},
        {"op": "launch", "kernel": {"name": "k", "mix": {"int": 1}},
         "grid": 1, "block": 32, "args": ["A"]},
        {"op": "launch", "kernel": "k", "grid": 2, "block": 32, "args": ["A"]},
    ]})
    assert trace.kernel_launches() == 2
    assert len(trace.kernels) == 1


def test_load_trace_from_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(VALID_TRACE))
    trace = load_trace(path)
    assert trace.name == "mini-vecadd"


# -- replay -------------------------------------------------------------------


def _emulation_api(env):
    platform = VirtualPlatform(env, "emu", cpu=HOST_XEON)
    return platform, CudaRuntime(EmulationBackend(env, platform))


def test_replay_timing_only():
    env = Environment()
    platform, api = _emulation_api(env)
    trace = parse_trace(VALID_TRACE)
    result = env.run(platform.run_app(replay(trace, api)))
    assert env.now > 0
    # Zero inputs, vectorAdd functional kernel: zeros out.
    np.testing.assert_array_equal(result, np.zeros(1024, dtype=np.float32))


def test_replay_functional_with_inputs():
    env = Environment()
    platform, api = _emulation_api(env)
    trace = parse_trace(VALID_TRACE)
    a = np.arange(1024, dtype=np.float32)
    b = np.full(1024, 3.0, dtype=np.float32)
    result = env.run(platform.run_app(
        replay(trace, api, inputs={"A": a, "B": b})
    ))
    np.testing.assert_allclose(result, a + b)


def test_replay_through_sigma_vp():
    from repro.core import SHARED_MEMORY, SigmaVP
    from repro.kernels.functional import REGISTRY

    framework = SigmaVP(n_vps=1, transport=SHARED_MEMORY, registry=REGISTRY)
    session = framework.session("vp0")
    trace = parse_trace(VALID_TRACE)
    a = np.ones(1024, dtype=np.float32)
    b = np.ones(1024, dtype=np.float32)
    app = replay(trace, session.runtime, inputs={"A": a, "B": b})
    process = session.vp.run_app(app)
    framework.run_until([process])
    np.testing.assert_allclose(process.value, np.full(1024, 2.0))


def test_replay_counts_api_calls():
    env = Environment()
    platform, api = _emulation_api(env)
    trace = parse_trace(VALID_TRACE)
    env.run(platform.run_app(replay(trace, api)))
    assert api.calls["malloc"] == 3
    assert api.calls["memcpy_h2d"] == 2
    assert api.calls["launch_kernel"] == 1
    assert api.calls["free"] == 1
