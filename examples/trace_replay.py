#!/usr/bin/env python3
"""Replaying a recorded CUDA API trace through SigmaVP.

The interception layer's binary-compatibility promise, made practical:
record an application's CUDA runtime calls (any LD_PRELOAD interposer
can), describe them in the small JSON trace format of
``repro.workloads.trace``, and replay them — timing and functionality —
through the full SigmaVP pipeline, with self-timing via cudaEvents.

Run:  python examples/trace_replay.py
"""

import json

import numpy as np

from repro.core import SHARED_MEMORY, SigmaVP
from repro.kernels.functional import REGISTRY
from repro.workloads.trace import parse_trace, replay

#: A small recorded session: a saxpy-style pipeline with two launches.
TRACE = {
    "name": "recorded-saxpy",
    "calls": [
        {"op": "malloc", "buf": "X", "nbytes": 32768},
        {"op": "malloc", "buf": "Y", "nbytes": 32768},
        {"op": "malloc", "buf": "OUT", "nbytes": 32768},
        {"op": "cpu", "ops": 2e5},
        {"op": "h2d", "buf": "X", "nbytes": 32768},
        {"op": "h2d", "buf": "Y", "nbytes": 32768},
        {
            "op": "launch",
            "kernel": {
                "name": "saxpy-k",
                "signature": "saxpy",
                "mix": {"fp32": 2, "load": 2, "store": 1, "int": 2},
                "working_set": 98304,
                "locality": 0.3,
            },
            "grid": 32, "block": 256, "elements": 8192,
            "args": ["X", "Y"], "out": "OUT",
            "params": {"alpha": 3.0},
        },
        {"op": "launch", "kernel": "saxpy-k", "grid": 32, "block": 256,
         "elements": 8192, "args": ["OUT", "Y"], "out": "OUT",
         "params": {"alpha": 1.0}},
        {"op": "sync"},
        {"op": "d2h", "buf": "OUT", "nbytes": 32768},
        {"op": "free", "buf": "X"},
        {"op": "free", "buf": "Y"},
    ],
}


def main() -> None:
    trace = parse_trace(TRACE)
    print(f"trace {trace.name!r}: {len(trace)} API calls, "
          f"{trace.kernel_launches()} kernel launches, "
          f"{len(trace.kernels)} distinct kernels")

    framework = SigmaVP(n_vps=1, transport=SHARED_MEMORY, registry=REGISTRY)
    session = framework.session("vp0")

    x = np.arange(8192, dtype=np.float32)
    y = np.full(8192, 2.0, dtype=np.float32)
    app = replay(trace, session.runtime, inputs={"X": x, "Y": y})
    process = session.vp.run_app(app)
    total_ms = framework.run_until([process])

    expected = (3.0 * x + y) + y  # saxpy(3, x, y) then saxpy(1, ., y)
    assert np.allclose(process.value, expected)
    print(f"replayed in {total_ms:.3f} ms of simulated time")
    jobs = {kind.value: n for kind, n
            in framework.dispatcher.stats.dispatched.items() if n}
    print(f"host jobs dispatched: {jobs}, "
          f"IPC messages: {framework.ipc.messages_sent}")
    print("functional result matches the saxpy composition: OK")
    print()
    print("trace JSON (save this shape from your own interposer):")
    print(json.dumps(TRACE["calls"][:3], indent=2))


if __name__ == "__main__":
    main()
