"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                       — the workload catalog
* ``run APP [options]``          — simulate one app on N VPs and report
* ``table1``, ``fig9`` … ``fig13`` — regenerate the paper's Table 1 and
                                   Figs. 9-13, printed exactly as
                                   ``benchmarks/results/`` archives them
                                   (``fig11 [apps...]`` takes a subset)
* ``estimate APP``               — target time/power estimates (Sec. 4)
* ``validate [apps...]``         — functional equivalence across the
                                   emulation, native and SigmaVP routes
* ``report [-o FILE]``           — the paper-vs-measured record; prints
                                   the scorecard of the paper's claims
* ``trace APP [-o FILE]``        — record one scenario into a
                                   Chrome/Perfetto trace (+ metrics);
                                   ``--critpath`` prints what bounds it
* ``metrics APP``                — run one scenario, print its metrics
* ``account APP``                — run one scenario, print the per-VP
                                   and per-kind accounting tables
* ``serve [options]``            — run the multi-tenant simulation
                                   daemon on a local Unix socket
                                   (docs/SERVICE.md)
* ``submit APP [options]``       — submit one scenario to a running
                                   daemon and wait for its result
* ``policies``                   — list the scheduling policies and
                                   placement strategies by name

``run``, ``trace``, ``metrics``, ``account``, and ``submit`` accept
``--policy`` / ``--placement`` to swap the scheduling pipeline's
select/place stages (see ``repro policies`` and ``docs/SCHEDULING.md``).

Nothing is cached across invocations: every command recomputes from
the current model (the in-process memos of :mod:`repro.caching` are the
only cache tier).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, List, Optional

from .analysis import EXPERIMENTS, render_table
from .analysis.timeline import collect_timeline, render_gantt
from .api import RequestError
from .gpu.arch import GRID_K520, QUADRO_4000, TEGRA_K1
from .workloads import SUITE, get_workload


def _vps_list(text: str) -> List[int]:
    """argparse type for ``--vps``: an int or a comma list of ints."""
    counts = [int(v) for v in text.split(",") if v != ""]
    if not counts or any(n < 1 for n in counts):
        raise ValueError(f"need positive VP counts, got {text!r}")
    return counts


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {text!r}")
    return value


def _scenario_options(
    parser_: argparse.ArgumentParser,
    vps_type: Callable[[str], Any] = _positive_int,
    vps_help: str = "number of virtual platforms",
) -> argparse.ArgumentParser:
    """Attach the scenario flags every scenario command shares."""
    parser_.add_argument("app", help="workload name (see `repro list`)")
    parser_.add_argument("--vps", type=vps_type, default="8", help=vps_help)
    parser_.add_argument("--gpus", type=_positive_int, default=1,
                         help="host GPUs to multiplex")
    parser_.add_argument("--no-interleaving", action="store_true")
    parser_.add_argument("--no-coalescing", action="store_true")
    parser_.add_argument("--transport", choices=("socket", "shm"),
                         default="socket")
    parser_.add_argument("--policy", default=None, metavar="NAME",
                         help="scheduling policy (default: follow "
                              "interleaving; see `repro policies`)")
    parser_.add_argument("--placement", default=None, metavar="NAME",
                         help="device placement strategy (default: "
                              "round-robin; see `repro policies`)")
    # A request the flags describe but RunRequest rejects is a usage error.
    parser_.set_defaults(usage_error=parser_.error)
    return parser_


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SigmaVP reproduction: host-GPU multiplexing for "
                    "simulating embedded GPUs (DAC 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload catalog")

    run = _scenario_options(
        sub.add_parser("run", help="simulate one app on N virtual platforms"),
        vps_type=_vps_list,
        vps_help="number of VPs, or a comma list (e.g. 2,4,8) to "
                 "fan the sweep over the scenario farm",
    )
    run.add_argument("--workers", type=_positive_int, default=1,
                     help="farm worker processes for a --vps comma list")
    run.add_argument("--functional", action="store_true",
                     help="execute kernels numerically (numpy)")
    run.add_argument("--gantt", action="store_true",
                     help="print the engine timeline")

    for name, experiment in EXPERIMENTS.items():
        artifact = sub.add_parser(name, help=f"regenerate {experiment.heading}")
        artifact.add_argument("--workers", type=_positive_int, default=1,
                              help="farm worker processes (1 = serial)")
        if experiment.takes_apps:
            artifact.add_argument("apps", nargs="*",
                                  help="subset of apps (default: all)")

    sub.add_parser(
        "policies",
        help="list the scheduling policies and placement strategies by name",
    )

    trace = _scenario_options(sub.add_parser(
        "trace",
        help="run one scenario with observability on; export a "
             "Chrome/Perfetto trace (open at ui.perfetto.dev)",
    ))
    trace.add_argument("-o", "--output", default="trace.json",
                       help="trace JSON path")
    trace.add_argument("--metrics-out", default=None,
                       help="also write the metrics snapshot here")
    trace.add_argument("--gantt", action="store_true",
                       help="print an ASCII gantt rebuilt from the trace")
    trace.add_argument("--critpath", action="store_true",
                       help="print critical-path attribution: which "
                            "engine/IPC/idle segment bounds the scenario")

    metrics = _scenario_options(sub.add_parser(
        "metrics",
        help="run one scenario with metrics on; print the registry",
    ))
    metrics.add_argument("-o", "--output", default=None,
                         help="also write the snapshot JSON here")

    _scenario_options(sub.add_parser(
        "account",
        help="run one scenario and print the per-VP accounting table "
             "(busy/wait, guest CPU, coalesce share, fairness, deadlines) "
             "and the per-kind latency table",
    ))

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant simulation daemon on a local Unix "
             "socket (submit with `repro submit`; see docs/SERVICE.md)",
    )
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default: "
                            "$REPRO_SERVE_SOCKET or "
                            "<state dir>/serve.sock)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="journal directory (default: "
                            "$REPRO_SERVE_DIR or "
                            "~/.cache/repro-sigmavp/serve)")
    serve.add_argument("--max-depth", type=_positive_int, default=None,
                       help="queue bound; submissions past it are "
                            "rejected with 'queue-full' (default 64)")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       help="per-tenant queued+running cap, 0 = "
                            "unlimited (default 16)")
    serve.add_argument("--queue-policy", default="fair-share",
                       metavar="NAME",
                       help="tenant scheduling policy (any `repro "
                            "policies` name; default fair-share)")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="concurrent worker processes (default 1)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-fork kernel compilation warm-up")

    submit = _scenario_options(sub.add_parser(
        "submit",
        help="submit one scenario to a running `repro serve` daemon",
    ))
    submit.add_argument("--functional", action="store_true",
                        help="execute kernels numerically (numpy)")
    submit.add_argument("--tenant", default="default",
                        help="tenant to account this job to")
    submit.add_argument("--qos", type=int, default=None,
                        help="QoS tier for priority-deadline queue "
                             "scheduling (0 = most urgent)")
    submit.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon socket path (default: "
                             "$REPRO_SERVE_SOCKET or the serve default)")

    estimate = sub.add_parser("estimate", help="target time/power for one app")
    estimate.add_argument("app")
    estimate.add_argument("--host", choices=("quadro", "grid"), default="quadro")

    report = sub.add_parser(
        "report", help="regenerate the full paper-vs-measured report"
    )
    report.add_argument("-o", "--output", default="report.md")

    validate = sub.add_parser(
        "validate",
        help="check functional equivalence across all execution routes",
    )
    validate.add_argument("apps", nargs="*",
                          help="workloads to validate (default: a core set)")

    return parser


def _cmd_list() -> None:
    rows = []
    for name in sorted(SUITE):
        spec = SUITE[name]
        rows.append((
            name,
            spec.elements,
            spec.iterations,
            f"{spec.fp_fraction:.0%}",
            "yes" if spec.coalescible else "no",
            "yes" if spec.uses_noncuda else "no",
            spec.description[:46],
        ))
    print(render_table(
        ["Workload", "Elements", "Iters", "FP", "Coalescible",
         "Non-CUDA", "Description"],
        rows,
        title=f"Workload catalog ({len(SUITE)} applications)",
    ))


def _scenario_request(args: argparse.Namespace, **fields: Any):
    """The :class:`~repro.api.RunRequest` a CLI scenario describes.

    One args-to-request mapping shared by ``run``, ``trace``,
    ``metrics``, ``account``, and ``submit``; ``fields`` adds or
    overrides the fields only some commands take.
    """
    from .api import RunRequest

    request = {
        "app": args.app,
        "n_vps": args.vps,
        "interleaving": not args.no_interleaving,
        "coalescing": not args.no_coalescing,
        "transport": args.transport,
        "n_host_gpus": args.gpus,
        "policy": args.policy,
        "placement": args.placement,
    }
    request.update(fields)
    return RunRequest(**request)


def _cmd_run_sweep(args: argparse.Namespace, vps_list: List[int]) -> None:
    """Fan one app across several VP counts over the scenario farm."""
    from .exec import ScenarioFarm

    farm = ScenarioFarm(workers=args.workers)
    results = farm.map([
        _scenario_request(args, n_vps=n).to_farm_job() for n in vps_list
    ])
    rows = []
    for result in results:
        value = result.value
        rows.append((
            value["n_instances"],
            value["total_ms"],
            value.get("ipc_messages", "-"),
            value.get("coalesce_merges", "-"),
            f"{result.duration_s:.2f}",
        ))
    print(render_table(
        ["VPs", "Total (ms)", "IPC msgs", "Merges", "Host wall (s)"],
        rows,
        title=f"{args.app}: VP-count sweep on {farm.workers} worker(s)",
    ))


def _cmd_run(args: argparse.Namespace) -> None:
    vps_list = args.vps
    if len(vps_list) > 1:
        if args.functional or args.gantt:
            raise SystemExit(
                "repro run: error: --functional/--gantt "
                "need a single --vps count"
            )
        _cmd_run_sweep(args, vps_list)
        return
    args.vps = vps_list[0]
    from .api import scenario

    result = scenario(_scenario_request(args, functional=args.functional))
    framework = result.extras["framework"]
    total = result.total_ms
    print(f"{result.workload}: {args.vps} VPs on {args.gpus} host GPU(s), "
          f"interleaving={'on' if not args.no_interleaving else 'off'}, "
          f"coalescing={'on' if not args.no_coalescing else 'off'}, "
          f"policy={framework.dispatcher.policy.name}, "
          f"placement={framework.dispatcher.pipeline.placement.name}")
    print(f"total simulated time: {total:.3f} ms")
    print(f"IPC messages: {framework.ipc.messages_sent}")
    if framework.coalescer is not None:
        stats = framework.coalescer.stats
        print(f"coalescer: {stats.merges} merges covering "
              f"{stats.kernels_coalesced} kernels")
    print(f"kernels profiled: {len(framework.profiler)}")
    if args.gantt:
        print()
        print(render_gantt(collect_timeline(framework)))


def _cmd_experiment(args: argparse.Namespace) -> None:
    """Print an artifact's tables, as ``benchmarks/results/`` holds them."""
    tables = EXPERIMENTS[args.command].run(args.workers, getattr(args, "apps", ()))
    print("\n\n".join(table.render() for table in tables))


def _cmd_estimate(args: argparse.Namespace) -> None:
    from .core.estimation import ExecutionAnalyzer

    host = QUADRO_4000 if args.host == "quadro" else GRID_K520
    spec = get_workload(args.app)
    analyzer = ExecutionAnalyzer(host, TEGRA_K1)
    kernel, launch = spec.kernel, spec.launch_config()
    profile = analyzer.profile_on_host(kernel, launch)
    estimate = analyzer.analyze(kernel, launch, host_profile=profile)
    power = analyzer.estimate_power(kernel, launch, host_profile=profile)
    as_ms = analyzer.estimated_time_ms
    print(f"{spec.name} on {host.name} -> Tegra K1")
    print(f"  host execution:     {profile.time_ms:10.3f} ms")
    print(f"  estimate C:         {as_ms(estimate.c_cycles):10.3f} ms")
    print(f"  estimate C':        {as_ms(estimate.c_prime_cycles):10.3f} ms")
    print(f"  estimate C'':       {as_ms(estimate.c_double_prime_cycles):10.3f} ms")
    print(f"  estimated power:    {power.total_w:10.3f} W "
          f"(static {power.static_w:.2f} + dynamic {power.dynamic_w:.2f})")


def _captured_scenario(args: argparse.Namespace):
    """Run one scenario in-process inside an observability capture.

    Returns ``(job, value, capture)``.  The run is the request's
    :class:`FarmJob` through ``run_job``, so exported artifacts are
    stamped with the config hash and seed of :func:`repro.api.run` and
    the daemon.  It runs cold (no warm-up), so the capture counts the
    run's own kernel compiles.
    """
    from .exec.farm import run_job
    from .obs import capture

    job = _scenario_request(args).to_farm_job()
    with capture() as window:
        value = run_job(job).value
    return job, value, window


def _cmd_trace(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .analysis.timeline import render_gantt, timeline_from_trace
    from .obs import run_stamp, span_counts_by_lane, write_metrics, write_trace

    job, value, window = _captured_scenario(args)
    trace = window.trace_payload()
    stamp = run_stamp(job.fn, job.kwargs, seed=job.seed, label=job.label)
    path = write_trace(Path(args.output), [(job.label, trace)], stamp)
    print(f"{job.label}: total simulated time {value['total_ms']:.3f} ms "
          f"(config {stamp['config_hash']}, seed {stamp['seed']})")
    for lane, count in span_counts_by_lane(trace).items():
        print(f"  {lane:<28} {count:5d} spans")
    print(f"trace written to {path} (open at ui.perfetto.dev)")
    if args.metrics_out:
        mpath = write_metrics(Path(args.metrics_out), window.metrics_payload(), stamp)
        print(f"metrics written to {mpath}")
    if args.gantt:
        print()
        print(render_gantt(timeline_from_trace(trace)))
    if args.critpath:
        from .analysis.critpath import attribute, render_critpath

        print()
        print(render_critpath(attribute(trace)))


def _cmd_metrics(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .obs import metrics_snapshot, render_metrics, run_stamp, write_metrics

    job, _value, window = _captured_scenario(args)
    metrics = window.metrics_payload()
    stamp = run_stamp(job.fn, job.kwargs, seed=job.seed, label=job.label)
    print(render_metrics(metrics_snapshot(metrics, stamp)))
    if args.output:
        path = write_metrics(Path(args.output), metrics, stamp)
        print(f"metrics written to {path}")


def _cmd_account(args: argparse.Namespace) -> None:
    from .api import scenario
    from .obs import render_accounts

    result = scenario(_scenario_request(args))
    framework = result.extras["framework"]
    print(f"{result.workload}: {args.vps} VPs on {args.gpus} host GPU(s), "
          f"policy={framework.dispatcher.policy.name}, "
          f"total simulated time {result.total_ms:.3f} ms")
    print()
    print(render_accounts(framework))


DEFAULT_VALIDATION_APPS = ("vectorAdd", "BlackScholes", "mergeSort",
                           "physxParticles", "histogram")


def _cmd_validate(apps: List[str]) -> int:
    from .analysis.validation import validate_workload

    names = apps or list(DEFAULT_VALIDATION_APPS)
    failures = 0
    rows = []
    for name in names:
        spec = get_workload(name)
        if spec.elements > 16384:
            spec = spec.scaled_to(8192, iterations=min(spec.iterations, 2))
        result = validate_workload(spec)
        rows.append((
            name,
            "OK" if result.ok else "FAIL",
            f"{result.max_abs_difference:g}",
            result.detail or "-",
        ))
        if not result.ok:
            failures += 1
    print(render_table(
        ["Workload", "Equivalent", "Max |diff|", "Detail"],
        rows,
        title="Cross-backend functional validation "
              "(emulation vs native vs SigmaVP)",
    ))
    return 1 if failures else 0


def _cmd_report(output: str) -> int:
    from pathlib import Path

    from .analysis.experiments import run_experiments, scorecard
    from .analysis.report_builder import build_report, render_scorecard

    tables = run_experiments()
    verdicts = scorecard(tables)
    Path(output).write_text(build_report(tables) + "\n")
    print(render_scorecard(verdicts))
    print(f"report written to {output}")
    return 0 if all(verdict.passed for verdict in verdicts) else 1


def _cmd_policies() -> None:
    from .sched import PLACEMENTS, POLICIES

    print(render_table(
        ["Policy", "Description"],
        [(name, POLICIES[name].description) for name in sorted(POLICIES)],
        title="Scheduling policies (select stage)",
    ))
    print()
    print(render_table(
        ["Placement", "Description"],
        [(name, PLACEMENTS[name].description) for name in sorted(PLACEMENTS)],
        title="Placement strategies (place stage)",
    ))
    print()
    print("Use with: repro run/trace/metrics/account/submit --policy NAME "
          "--placement NAME")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeDaemon

    kwargs = {}
    if args.max_depth is not None:
        kwargs["max_depth"] = args.max_depth
    if args.tenant_quota is not None:
        kwargs["tenant_quota"] = args.tenant_quota
    daemon = ServeDaemon(
        socket_path=args.socket,
        state_dir=args.state_dir,
        policy=args.queue_policy,
        max_workers=args.workers,
        warm=not args.no_warm,
        **kwargs,
    )
    daemon.start()
    print(f"repro serve: listening on {daemon.socket_path}")
    print(f"  state dir:  {daemon.state_dir}")
    print(f"  policy:     {daemon.queue.policy_name}, "
          f"max depth {daemon.queue.max_depth}, "
          f"tenant quota {daemon.queue.tenant_quota}, "
          f"{daemon.max_workers} worker(s)")
    recovery = daemon.recovery
    if recovery["resumed"] or recovery["faulted"]:
        print(f"  recovered:  {recovery['resumed']} job(s) requeued, "
              f"{recovery['faulted']} faulted (mid-run at crash)")
    try:
        daemon.join()
    except KeyboardInterrupt:
        print("repro serve: shutting down (requeueing running jobs)")
        daemon.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import JobState, ServeClient, ServeError

    request = _scenario_request(
        args, functional=args.functional, tenant=args.tenant, qos=args.qos
    )
    try:
        with ServeClient.connect(args.socket) as client:
            record = client.submit(request)
            print(f"{record['job_id']}: {record['label']} submitted for "
                  f"tenant {record['tenant']} "
                  f"(config {record['config_hash']})")
            record = client.wait(record["job_id"])
    except ServeError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 1
    state = record["state"]
    if state == JobState.DONE.value:
        value = record["value"]
        print(f"total simulated time: {value['total_ms']:.3f} ms")
        print(f"digest: {record['digest']}")
        return 0
    error = record.get("error") or {}
    print(f"{record['job_id']}: {state}"
          + (f" [{error.get('code')}] {error.get('message')}" if error else ""),
          file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except RequestError as exc:
        args.usage_error(exc.message)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        _cmd_list()
    elif args.command == "run":
        _cmd_run(args)
    elif args.command in EXPERIMENTS:
        _cmd_experiment(args)
    elif args.command == "trace":
        _cmd_trace(args)
    elif args.command == "metrics":
        _cmd_metrics(args)
    elif args.command == "account":
        _cmd_account(args)
    elif args.command == "estimate":
        _cmd_estimate(args)
    elif args.command == "report":
        return _cmd_report(args.output)
    elif args.command == "policies":
        _cmd_policies()
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "submit":
        return _cmd_submit(args)
    elif args.command == "validate":
        return _cmd_validate(args.apps)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
