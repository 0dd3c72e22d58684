"""The ΣVP benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 bench/run.py --seed 1                      # all workloads
    python3 bench/run.py --workload fleet-coalesce --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --trace 1            # per-layer metrics
    python3 bench/run.py --quick                       # smoke: N = 8, one round

Each workload runs the same seeded requests in rounds, every one in a
fresh interpreter (``bench/round.py``), until ``--seconds`` have passed
(at least ``MIN_ROUNDS``).  A round sets up (import, ``warm_worker()``,
ten warm-up requests) and then times each request between two runs of a
calibration kernel, which scales the request's host time to reference
time (``bench/speed.py``).  A request's latency is the median of its
reference times over the rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: Fewest rounds per workload, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: Default ``--seconds``: how long each workload's rounds run.
DEFAULT_SECONDS = 30

#: How many leading requests the pinned digest covers.
PIN_PREFIX = 8

#: A round may take at most this long before it is killed.
ROUND_TIMEOUT_S = 120

#: Environment of every round: no disk cache (rounds measure the warm
#: in-memory path), and one BLAS thread, so that a 2-vCPU host measures
#: the program and not its scheduler.
ROUND_ENV = {
    "REPRO_DISK_CACHE": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: ``(name, unit, better, bound)``; a bound is the share of the median
#: by which a metric may worsen, at least three times the spread of ten
#: runs of the same code (see README.md, "Noise").
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("requests_per_s", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_p90_ms", "ms", "lower", 0.2),
    ("sim_ops_per_s", "ops/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("success_rate", "ratio", "higher", 0.02),
    ("setup_s", "s", "lower", 0.25),
)

_LAYERS = (
    "api", "workloads", "sim", "sched", "core.coalescing", "gpu.timing",
    "kernels.compiler", "backend",
)

#: ``(name, unit, better)`` of every metric a traced run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    item
    for layer in _LAYERS
    for item in (
        (f"{layer}.self_ms_per_req", "ms", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls_per_req", "count", "lower"),
    )
) + (
    ("gpu.timing.memo_hit_ratio", "ratio", "higher"),
    ("backend.batched_member_share", "ratio", "higher"),
    ("backend.fallback_ratio", "ratio", "lower"),
    ("sched.idle_decision_ratio", "ratio", "lower"),
    ("core.coalescing.merges_per_req", "count", "higher"),
    ("core.coalescing.kernels_coalesced_per_req", "count", "higher"),
    ("core.ipc.messages_per_req", "count", "lower"),
    ("workloads.input_mb_per_req", "MB", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: at N = 100, p90 has 10 samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reference_times(passes: Sequence[Dict[str, Any]]) -> List[List[Optional[float]]]:
    """Each pass's request latencies scaled to reference time."""
    return [[None if t is None else t * f for t, f in zip(p["latency_s"], p["factor"])]
            for p in passes]


def per_request_median(passes: Sequence[Sequence[Optional[float]]]) -> List[Optional[float]]:
    """Each request's median over the passes it succeeded in."""
    out = []
    for samples in zip(*passes):
        good = [s for s in samples if s is not None]
        out.append(statistics.median(good) if good else None)
    return out


def pin_digest(digests: Sequence[Optional[str]]) -> str:
    """Digest of the leading requests' outputs (pinned for seed 1)."""
    return hashlib.sha256("".join(d or "-" for d in digests[:PIN_PREFIX]).encode()).hexdigest()


def _failures(errors: Sequence[Optional[str]]) -> Dict[str, int]:
    tally: Dict[str, int] = {}
    for error in errors:
        if error is not None:
            code = error.split(":")[0]
            tally[code] = tally.get(code, 0) + 1
    return tally


# -- rounds ------------------------------------------------------------------


def _run_round(spec: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
    """Start ``round.py`` and return ``(spawn time, its JSON result)``.

    The round runs in its own session, so a timeout takes down anything
    it started along with it.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "round.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
        env=dict(os.environ, **ROUND_ENV),
    )
    try:
        stdout, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round {spec} timed out after {ROUND_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the round left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"round {spec} exited with code {proc.returncode}")
    return spawned, json.loads(stdout.decode().strip().splitlines()[-1])


def measure(workload: str, seed: int, n: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Untraced rounds of one workload: end-to-end metrics and checks.

    Rounds start while the next one is expected to end within
    ``seconds`` of the first one's start; the first round also runs the
    output checks.
    """
    import workloads

    results = []
    setups = []
    began = time.monotonic()
    while True:
        spec = {"workload": workload, "seed": seed, "n": n, "checks": not results}
        spawned, result = _run_round(spec)
        ended = time.monotonic()
        setups.append((result["setup_done"] - spawned) * result["setup_factor"])
        results.append(result)
        if quick or (len(results) >= MIN_ROUNDS and 2 * ended - spawned - began > seconds):
            break
    latency = per_request_median(reference_times(results))
    ok = [i for i, value in enumerate(latency) if value is not None]
    busy = sum(latency[i] for i in ok)
    ops = results[-1]["ops"]
    failed = sum(1 for r in results for e in r["errors"] if e)
    metrics = {
        "requests_per_s": len(ok) / busy if busy else 0.0,
        "latency_p50_ms": 1000 * percentile([latency[i] for i in ok], 50) if ok else 0.0,
        "latency_p90_ms": 1000 * percentile([latency[i] for i in ok], 90) if ok else 0.0,
        "sim_ops_per_s": sum(ops[i] for i in ok) / busy if busy else 0.0,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "success_rate": 1.0 - failed / (n * len(results)),
        "setup_s": statistics.median(setups),
    }
    checks = dict(results[0]["checks"])
    digests = [r["digests"] for r in results]
    checks["rounds_agree"] = {
        "sampled": n,
        "mismatched": [i for i in range(n)
                       if len({d[i] for d in digests if d[i] is not None}) > 1],
    }
    digest = pin_digest(digests[0])
    pinned = workloads.PINNED_DIGESTS.get((workload, n))
    if seed == 1 and pinned is not None:
        checks["pinned_seed1_digest"] = {"expected": pinned, "got": digest,
                                         "mismatched": [] if digest == pinned else [0]}
    raw = per_request_median([r["latency_s"] for r in results])
    return {
        "n": n, "rounds": len(results), "metrics": metrics, "attempted": n * len(results),
        "failed": failed, "failures_by_code": _failures([e for r in results for e in r["errors"]]),
        "digest": digest, "checks": checks, "setups_s": setups,
        # Host time, unscaled: what this host gave, for comparison.
        "host_requests_per_s": len(ok) / sum(raw[i] for i in ok) if ok else 0.0,
        "host_speed": statistics.median(f for r in results for f in r["factor"]),
        "latency_ms": [None if x is None else 1000 * x for x in latency],
        "correct": all(not c["mismatched"] for c in checks.values()),
    }


def trace(workload: str, seed: int, n: int, out: str) -> Dict[str, Any]:
    """One traced round: per-layer metrics and tracing overhead."""
    import layers

    spec = {"workload": workload, "seed": seed, "n": n, "trace": True,
            "out": os.path.relpath(out, ROOT)}
    _, result = _run_round(spec)
    factors = [f for p in result["traced"] for f in p["factor"]]
    traces = [layers.RequestTrace(**t).scaled(f) for t, f in zip(result["traces"], factors)]
    metrics = layers.layer_metrics(traces)
    summaries = [s for s in result["summaries"] if s is not None]
    count = max(1, len(summaries))
    for name, key in (("core.coalescing.merges_per_req", "coalesce_merges"),
                      ("core.coalescing.kernels_coalesced_per_req", "kernels_coalesced"),
                      ("core.ipc.messages_per_req", "ipc_messages")):
        metrics[name] = sum(s.get(key, 0) for s in summaries) / count
    untraced = [x for x in per_request_median(reference_times(result["untraced"]))
                if x is not None]
    traced = [x for x in per_request_median(reference_times(result["traced"])) if x is not None]
    metrics["trace.overhead"] = 1.0 - (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
    errors = result["errors"]
    _merge_json(os.path.join(out, f"layers-{seed}.json"), workload, {
        "metrics": metrics, "absent": result["absent"],
        "requests": [t.__dict__ for t in traces],
    })
    checks = {"traced_outputs_equal_untraced": {
        "mismatched": [] if result["same_outputs"] else [0]}}
    return {
        "n": n, "metrics": metrics, "absent": result["absent"], "attempted": len(errors),
        "failed": sum(1 for e in errors if e), "failures_by_code": _failures(errors),
        "checks": checks, "correct": bool(result["same_outputs"]),
    }


def _merge_json(path: str, key: str, value: Any) -> None:
    """Set ``key`` in the JSON object stored at ``path``."""
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data[key] = value
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)


# -- command line ------------------------------------------------------------


def _units() -> Dict[str, str]:
    return {**{m[0]: m[1] for m in END_TO_END}, **{m[0]: m[1] for m in PER_LAYER}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"how long each workload's rounds run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: one traced round per workload, per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="smoke run: N = 8, one round")
    parser.add_argument("--out", default=os.path.join(BENCH, "out"),
                        help="directory for results, layer and trace files")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(workloads.WORKLOADS)}")
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    units = _units()
    reports: Dict[str, Any] = {}
    for name in names:
        n = PIN_PREFIX if args.quick else workloads.WORKLOADS[name].requests
        if args.trace:
            report = trace(name, args.seed, n, out)
        else:
            report = measure(name, args.seed, n, args.seconds, args.quick)
        reports[name] = report
        print(f"== {name} (seed {args.seed}, N = {report['n']}"
              f"{'' if args.trace else ', rounds = %d' % report['rounds']})")
        for metric, value in report["metrics"].items():
            print(f"  {metric:44s} {value:14.4f} {units[metric]}")
        if not args.trace:
            print(f"  host speed {report['host_speed']:.3f} of the reference; unscaled "
                  f"requests_per_s {report['host_requests_per_s']:.4f}")
        for check, result in report["checks"].items():
            print(f"  check {check}: {'ok' if not result['mismatched'] else 'FAILED'}")
        if report["failures_by_code"]:
            print(f"  failures by code: {report['failures_by_code']}")
        if report.get("absent"):
            print(f"  absent hooks: {report['absent']}")
        _merge_json(os.path.join(out, f"results-{args.seed}{'-trace' if args.trace else ''}.json"),
                    name, report)
    metrics = {
        (metric if len(names) == 1 else f"{name}.{metric}"): {"value": value,
                                                             "unit": units[metric]}
        for name, report in reports.items() for metric, value in report["metrics"].items()
    }
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
