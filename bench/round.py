"""One benchmark round, run in a fresh interpreter by ``bench/run.py``.

Usage: ``python bench/round.py '<json spec>'``.  The spec names the
workload, seed, request count and mode.  The round builds its requests
from the seed, sets up (import, ``warm_worker()``, warm-up requests),
measures, optionally runs the output checks, and prints one JSON object
as its last line of standard output.

Every request runs in this process through :func:`repro.api.scenario`,
timed between two runs of the calibration kernel (``speed.py``); the
round reports each request's host latency and its host-speed factor.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Sequence

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402
from repro.api import RunRequest  # noqa: E402

#: Requests per round the output checks sample.
CHECK_SAMPLES = 5


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _ops(result: Any) -> int:
    """Simulated GPU operations: every job the dispatcher completed."""
    return int(result.extras["framework"].dispatcher.stats.completed)


def _calibration(batch: Sequence[RunRequest]) -> speed.Calibration:
    return speed.matching(any(r.functional for r in batch))


def _measure(batch: Sequence[RunRequest]) -> Dict[str, List[Any]]:
    """Run each request; time only the ``scenario`` call.

    Every request starts from a collected heap.  A finished scenario is
    cyclic garbage, and without the collection the peak RSS would depend
    on which earlier scenarios the collector had not yet reached.  The
    objects set-up created are frozen first, so a collection only walks
    what requests allocated and takes microseconds.  The calibration
    after one request is the one before the next.
    """
    gc.freeze()
    out: Dict[str, List[Any]] = {
        "latency_s": [], "factor": [], "ops": [], "summaries": [], "errors": [],
    }
    calibration = _calibration(batch)
    gc.collect()
    before = calibration.measure()
    for request in batch:
        start = time.perf_counter()
        try:
            result = api.scenario(request)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            out["latency_s"].append(None)
            out["ops"].append(0)
            out["summaries"].append(None)
            out["errors"].append(f"{type(exc).__name__}: {exc}")
        else:
            out["latency_s"].append(time.perf_counter() - start)
            out["ops"].append(_ops(result))
            out["summaries"].append(json.loads(json.dumps(result.summary())))
            out["errors"].append(None)
            del result
        gc.collect()
        after = calibration.measure()
        out["factor"].append(calibration.factor(before, after))
        before = after
    return out


def _check(workload: str, seed: int, batch: Sequence[RunRequest],
           summaries: Sequence[Any]) -> Dict[str, Any]:
    """Untimed checks: ``scenario`` against ``run``, coalesced outputs.

    Only requests that succeeded are sampled (failures are counted
    elsewhere); a check that raises counts as a mismatch.
    """
    import numpy as np

    def same_as_run(i: int) -> bool:
        return summaries[i] == json.loads(json.dumps(api.run(batch[i]).value))

    def coalescing_invisible(i: int) -> bool:
        on = api.scenario(batch[i]).extras["result"]
        off = api.scenario(batch[i].with_overrides(coalescing=False)).extras["result"]
        return on is not None and bool(np.array_equal(on, off))

    rng = random.Random(f"check/{workload}/{seed}")
    done = [i for i, s in enumerate(summaries) if s is not None]
    checks = {"scenario_equals_run": _sampled(rng, done, same_as_run)}
    if workload == "functional-batched":
        coalesced = [i for i in done if batch[i].coalescing]
        checks["coalesced_equals_uncoalesced"] = _sampled(rng, coalesced, coalescing_invisible)
    return checks


def _sampled(rng: random.Random, candidates: Sequence[int],
             holds: Callable[[int], bool]) -> Dict[str, Any]:
    """Check ``holds`` on up to ``CHECK_SAMPLES`` of ``candidates``;
    a check that raises has failed."""
    picks = sorted(rng.sample(list(candidates), min(CHECK_SAMPLES, len(candidates))))
    mismatched = []
    for i in picks:
        try:
            ok = holds(i)
        except Exception:  # noqa: BLE001 - recorded as a failed check
            ok = False
        if not ok:
            mismatched.append(i)
    return {"sampled": len(picks), "mismatched": mismatched}


def _setup(workload: str, seed: int) -> None:
    from repro.exec.farm import warm_worker

    warm_worker()
    for request in workloads.warmup_requests(workload, seed):
        api.scenario(request)


def measure_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    """An untraced round: set up, time every request, maybe check."""
    workload, seed = spec["workload"], spec["seed"]
    batch = workloads.requests(workload, seed, spec["n"])
    # Set-up time is scaled by the host speed at its start and its end.
    # The first calibration in a fresh interpreter is slower than the rest.
    calibration = _calibration(batch)
    calibration.measure()
    before = calibration.measure()
    _setup(workload, seed)
    out: Dict[str, Any] = {
        "setup_done": time.monotonic(),
        "setup_factor": calibration.factor(before, calibration.measure()),
    }
    out.update(_measure(batch))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summaries = out.pop("summaries")
    out["digests"] = [_digest(s) for s in summaries]
    if spec["checks"]:
        out["checks"] = _check(workload, seed, batch, summaries)
    return out


def trace_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    """A traced round: two untraced and two traced passes, alternating.

    The layer metrics come from the traced passes and the tracing
    overhead from comparing the two modes.
    """
    workload, seed = spec["workload"], spec["seed"]
    batch = workloads.requests(workload, seed, spec["n"])
    _setup(workload, seed)
    tracer = layers.Tracer(keep=3)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(_measure(batch))
        with layers.Installation(tracer) as installed:
            traced.append(_measure(batch))
    with open(os.path.join(spec["out"], f"trace-{workload}.json"), "w") as handle:
        json.dump(layers.chrome_trace(tracer.kept), handle)
    summaries = untraced[0]["summaries"]
    return {
        "absent": installed.absent(),
        "untraced": [{"latency_s": p["latency_s"], "factor": p["factor"]} for p in untraced],
        "traced": [{"latency_s": p["latency_s"], "factor": p["factor"]} for p in traced],
        "summaries": summaries,
        "same_outputs": all(p["summaries"] == summaries for p in untraced + traced),
        "errors": [e for p in untraced + traced for e in p["errors"]],
        # One trace per traced request, in the order of the traced passes.
        "traces": [t.__dict__ for t in tracer.requests],
    }


def main(argv: List[str]) -> int:
    spec = json.loads(argv[0])
    result = trace_round(spec) if spec.get("trace") else measure_round(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
