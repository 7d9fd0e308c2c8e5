"""Command-line interface: regenerate any paper figure from a shell.

Usage:
    python -m repro list [--archs]
    python -m repro run fig12 --apps S2,KM,LI --scale 0.3 --workers 4
    python -m repro run fig14 --sms 2 --no-cache
    python -m repro run fig12 --executor remote --hosts a,b,c \\
        --worker-command "ssh {host} python -m repro worker"
    python -m repro worker
    python -m repro serve --port 8642 --workers 2
    python -m repro submit --url http://127.0.0.1:8642 --apps S2,LI \\
        --arch linebacker --scale 0.25
    python -m repro overhead
    python -m repro trace GE linebacker --json
    python -m repro run dynamics --timeseries
    python -m repro lint --strict
    python -m repro lint --json src/repro/gpu
    python -m repro fuzz --seed 2019 --count 25 --out corpus/
    python -m repro fuzz --seed 7 --count 5 --minimize --no-simulate
    python -m repro cache info
    python -m repro cache clear

Figure runs go through the parallel experiment runner: ``--workers N``
fans simulations out over N processes, and results are memoized in the
persistent cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) so a
repeat of the same figure is near-instant. ``--no-cache`` bypasses the
persistent layer for a guaranteed-fresh run.

``--executor`` picks where jobs run: ``inline`` (this process),
``pool`` (local process pool), ``remote`` (worker processes, one per
``--hosts`` entry — by default forks of this process, which start with
the simulator already imported; a ``--worker-command`` template is
exec'd instead, and an ``ssh {host} ...`` one crosses machines), or
``loopback`` (the remote wire protocol, round-tripped in-process —
deterministic, great for debugging). ``python -m repro worker`` is the
exec'd process on the other end of that wire.

``python -m repro serve`` puts the same job table behind an always-on
HTTP service: a coordinator with a persistent worker fleet and a
read-through result cache it alone writes, deduplicating concurrent submissions
by content hash. ``python -m repro submit`` is the matching client
(programmatic callers use ``repro.api.Session.connect``).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.analysis import (
    ExperimentContext,
    format_series,
    format_table,
    storage_overhead,
)
from repro.analysis import experiments as exp
from repro.config import scaled_config
from repro.gpu.gpu import run_kernel
from repro.runner import ARCHITECTURES, ExperimentRunner, ResultCache, default_workers
from repro.workloads import ALL_APPS, kernel_for, validate_scale

#: figure name -> (runner, description)
FIGURES = {
    "fig1": (exp.run_fig1, "cold vs capacity/conflict miss breakdown"),
    "fig2": (exp.run_fig2, "top-4 load reused working set per window"),
    "fig3": (exp.run_fig3, "streaming data per window"),
    "fig4": (exp.run_fig4, "SUR/DUR under Best-SWL"),
    "fig5": (exp.run_fig5, "idealized CacheExt study"),
    "fig9": (exp.run_fig9, "Linebacker victim space + monitoring periods"),
    "fig10": (exp.run_fig10, "VTT partition associativity sweep"),
    "fig11": (exp.run_fig11, "Linebacker technique breakdown"),
    "fig12": (exp.run_fig12, "performance vs previous approaches"),
    "fig13": (exp.run_fig13, "request breakdown per architecture"),
    "fig14": (exp.run_fig14, "L1 size sweep"),
    "fig15": (exp.run_fig15, "combinations of previous works"),
    "fig16": (exp.run_fig16, "register file bank conflicts"),
    "fig17": (exp.run_fig17, "off-chip memory traffic"),
    "fig18": (exp.run_fig18, "energy consumption"),
    "dynamics": (exp.run_dynamics, "per-window timeseries summary (Fig 6 workflow)"),
}


def _print_result(name: str, data) -> None:
    if name == "fig13":
        for app, configs in data.items():
            print(format_table(f"{name} [{app}]", configs))
            print()
        return
    if isinstance(next(iter(data.values())), dict):
        rows = {str(k): v for k, v in data.items()}
        print(format_table(name, rows))
    else:
        print(format_series(name, data))


def _scale(text: str) -> float:
    """``--scale``: a finite number > 0, or an argparse error (exit 2)."""
    try:
        return validate_scale(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scaled(args, parser: argparse.ArgumentParser):
    """``scaled_config`` at ``--sms``; a refused machine is a usage error."""
    config = scaled_config(num_sms=args.sms)
    try:
        config.gpu.check()
    except ValueError as exc:
        parser.error(str(exc))
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="regenerate one figure")
    run_p.add_argument("figure", help="a figure id (fig1..fig18); see 'list'")
    run_p.add_argument("--apps", default="", help="comma-separated app subset")
    run_p.add_argument("--scale", type=_scale, default=0.5, help="workload scale")
    run_p.add_argument("--sms", type=int, default=4, help="number of SMs")
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation processes (default: $REPRO_WORKERS or 1)",
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result cache",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    run_p.add_argument(
        "--executor",
        choices=("inline", "pool", "remote", "loopback"),
        default=None,
        help="where jobs run (default: pool iff --workers > 1, else inline)",
    )
    run_p.add_argument(
        "--hosts",
        default="",
        help="comma-separated host names for --executor remote "
        "(one worker each; default: --workers local workers)",
    )
    run_p.add_argument(
        "--worker-command",
        default=None,
        help="remote worker launch template, exec'd per worker; {python} and "
        "{host} are substituted (default: fork each worker from this process)",
    )
    run_p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="seconds before a dispatched remote job is killed and requeued",
    )
    run_p.add_argument(
        "--stats-report",
        default=None,
        help="write the RunnerStats JSON report to this path",
    )
    run_p.add_argument(
        "--timeseries",
        action="store_true",
        help="record per-window timeseries on every supporting "
        "architecture (distinct cache keys from scalar runs)",
    )

    trace_p = sub.add_parser(
        "trace", help="per-window timeseries of one (app, architecture) run"
    )
    trace_p.add_argument("app", help=f"one of {', '.join(ALL_APPS)}")
    trace_p.add_argument(
        "arch",
        nargs="?",
        default="linebacker",
        help="a registered architecture other than the derived (oracle) "
        "rows (default: linebacker; see list --archs)",
    )
    trace_p.add_argument("--scale", type=_scale, default=0.5, help="workload scale")
    trace_p.add_argument("--sms", type=int, default=4, help="number of SMs")
    trace_p.add_argument(
        "--sm", type=int, default=0, help="which SM's series to print (default 0)"
    )
    trace_p.add_argument(
        "--json", action="store_true", help="emit the full series as JSON"
    )
    trace_p.add_argument(
        "--output", default=None, help="write the output to this path instead of stdout"
    )

    worker_p = sub.add_parser(
        "worker",
        add_help=False,
        help="serve simulation jobs over stdin/stdout (wire protocol)",
    )
    worker_p.add_argument("rest", nargs=argparse.REMAINDER)

    serve_p = sub.add_parser(
        "serve",
        help="run the HTTP coordinator with a persistent worker fleet",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1; the service "
                         "trusts its network — do not expose it publicly)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="TCP port (default 8642; 0 picks a free port)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="persistent worker processes (default 2)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="shared result-cache directory (default: "
                         "$REPRO_CACHE_DIR or ~/.cache/repro)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="serve without the shared result store")
    serve_p.add_argument("--job-timeout", type=float, default=None,
                         help="seconds before an in-flight job's worker is "
                         "recycled and the job requeued")
    serve_p.add_argument("--worker-command", default=None,
                         help="worker launch template, exec'd per worker; "
                         "{python} and {host} are substituted (default: "
                         "fork each worker from this process)")

    submit_p = sub.add_parser(
        "submit", help="submit jobs to a running coordinator over HTTP"
    )
    submit_p.add_argument("--url", required=True,
                          help="coordinator endpoint, e.g. http://127.0.0.1:8642")
    submit_p.add_argument("--apps", default="S2",
                          help="comma-separated apps (default S2)")
    submit_p.add_argument("--arch", default="linebacker",
                          help="registered architecture (default linebacker)")
    submit_p.add_argument("--scale", type=_scale, default=0.5,
                          help="workload scale")
    submit_p.add_argument("--sms", type=int, default=4, help="number of SMs")
    submit_p.add_argument("--timeseries", action="store_true",
                          help="request per-window timeseries recording")
    submit_p.add_argument("--no-wait", action="store_true",
                          help="print job ids and exit without polling")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for results (default 600)")
    submit_p.add_argument("--json", dest="json_path", default=None,
                          help="write the submission/result report to this path")
    submit_p.add_argument("--fleet-report", default=None,
                          help="write the service's /v1/fleet JSON to this path")

    list_p = sub.add_parser("list", help="list figures (and architectures)")
    list_p.add_argument(
        "--archs",
        action="store_true",
        help="also list registered architectures: what each returns and "
        "its extra parameters",
    )

    sub.add_parser("overhead", help="Section 4.2 storage overhead inventory")

    lint_p = sub.add_parser(
        "lint",
        add_help=False,
        help="static invariant checker (see `python -m repro lint --help`)",
    )
    lint_p.add_argument("rest", nargs=argparse.REMAINDER)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="generate seeded workload specs and check every paper-rule "
        "classification gate and engine invariant",
    )
    fuzz_p.add_argument("--seed", type=int, default=2019,
                        help="corpus seed (default 2019); every spec is "
                        "deterministic per (seed, index)")
    fuzz_p.add_argument("--count", type=int, default=25,
                        help="number of specs to generate (default 25)")
    fuzz_p.add_argument("--out", default=None,
                        help="write each spec as <name>.json into this "
                        "corpus directory")
    fuzz_p.add_argument("--scale", type=_scale, default=1.0,
                        help="workload scale for classification/simulation")
    fuzz_p.add_argument("--sms", type=int, default=1,
                        help="SMs for the differential simulation (default 1)")
    fuzz_p.add_argument("--no-simulate", action="store_true",
                        help="classification gates only; skip the "
                        "Linebacker/Best-SWL differential harness")
    fuzz_p.add_argument("--minimize", action="store_true",
                        help="greedily shrink each failing spec and write "
                        "<name>.min.json next to it (or print it)")

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=("info", "clear"))
    cache_p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    return parser


def _cmd_list(args) -> int:
    for name, (_, description) in FIGURES.items():
        print(f"{name:7s} {description}")
    if args.archs:
        # Every column is derived from the registry row: what it returns
        # is the return type of the function that makes its value.
        print(f"\n{'architecture':24s} {'returns':16s} {'params':10s} description")
        for name, arch in sorted(ARCHITECTURES.items()):
            returns = inspect.signature(arch.reduce or run_kernel).return_annotation
            print(f"{name:24s} {returns:16s} "
                  f"{','.join(arch.params) or '-':10s} {arch.description}")
    return 0


def _cmd_overhead() -> int:
    overhead = storage_overhead()
    print(format_series("Section 4.2 storage overhead (bytes)", {
        "HPC fields": overhead.hpc_fields,
        "Load Monitor": overhead.load_monitor,
        "IPC monitor": overhead.ipc_monitor,
        "CTA manager": overhead.cta_manager,
        "Per-CTA Info": overhead.per_cta_info,
        "VTT": overhead.vtt,
        "buffer": overhead.buffer,
        "total (KB)": overhead.total_kb,
    }, precision=1))
    return 0


def _cmd_trace(args, parser: argparse.ArgumentParser) -> int:
    """Run one (app, arch) simulation with timeseries on and print the
    per-window rows — the observability entry point for the paper's
    Fig. 6 workflow dynamics. Always simulates fresh (no cache)."""
    from repro.runner.registry import resolve

    if args.app not in ALL_APPS:
        parser.error(f"unknown app {args.app!r}; choose one of {', '.join(ALL_APPS)}")
    try:
        arch = resolve(args.arch)
    except KeyError as exc:
        parser.error(str(exc))
    refusal = arch.refuses("timeseries", True, job=False)
    if refusal:
        parser.error(refusal)
    config = _scaled(args, parser)
    if args.sm < 0 or args.sm >= args.sms:
        parser.error(f"--sm must be in [0, {args.sms})")

    kernel = kernel_for(args.app, scale=args.scale)
    print(
        f"tracing {args.app} on {args.arch} at scale {args.scale} "
        f"({args.sms} SMs, window = {config.linebacker.window_cycles} cycles)...",
        file=sys.stderr,
    )
    result = arch.runner(config, kernel, timeseries=True)
    series = result.timeseries[args.sm]
    rows = list(series)

    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.json:
            import json

            json.dump(
                {
                    "version": series.version,
                    "app": args.app,
                    "arch": args.arch,
                    "scale": args.scale,
                    "sm": args.sm,
                    "window_cycles": series.window_cycles,
                    "dropped": series.dropped,
                    "rows": rows,
                },
                out,
                indent=2,
                sort_keys=True,
            )
            out.write("\n")
        else:
            print(
                f"{args.app}: per-window dynamics on SM{args.sm} "
                f"(window = {series.window_cycles} cycles)\n",
                file=out,
            )
            print(
                f"{'cycle':>8} {'IPC':>6} {'act':>4} {'inact':>6} {'VPs':>4} "
                f"{'monitor':>10} {'search':>11}  active-CTA bar",
                file=out,
            )
            for row in rows:
                bar = "#" * row["active"] + "." * row["inactive"]
                print(
                    f"{row['cycle']:>8} {row['ipc']:>6.2f} {row['active']:>4} "
                    f"{row['inactive']:>6} {row.get('vps', 0):>4} "
                    f"{row.get('state', '-'):>10} {row.get('phase', '-'):>11}  {bar}",
                    file=out,
                )
            if series.dropped:
                print(f"({series.dropped} oldest windows dropped)", file=out)
            print(
                f"\nfinal: IPC {result.ipc:.2f} over {result.cycles} cycles, "
                f"{len(rows)} windows",
                file=out,
            )
    finally:
        if args.output:
            out.close()
            print(f"trace written to {args.output}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import signal

    from repro.service import DEFAULT_PORT
    from repro.service import serve as service_serve

    port = args.port if args.port is not None else DEFAULT_PORT
    server = service_serve(
        host=args.host,
        port=port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        worker_command=args.worker_command,
        job_timeout=args.job_timeout,
    )

    # Shells start background children with SIGINT ignored, and Python
    # keeps an inherited SIG_IGN — so `python -m repro serve &` would be
    # unstoppable short of SIGKILL (which orphans the fleet). Install
    # explicit handlers so Ctrl-C, `kill -INT` and `kill -TERM` all take
    # the same graceful teardown path.
    def _graceful(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)

    host, bound_port = server.server_address[:2]
    print(
        f"serving on http://{host}:{bound_port} with {args.workers} "
        f"worker(s), cache {'off' if args.no_cache else 'on'} "
        "(Ctrl-C to stop)",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.coordinator.shutdown()
        print("coordinator stopped, fleet torn down", file=sys.stderr)
    return 0


def _cmd_submit(args, parser: argparse.ArgumentParser) -> int:
    import json

    from repro.api import Session
    from repro.options import RunOptions
    from repro.runner import JobSpec
    from repro.service import ServiceError

    apps = tuple(a for a in args.apps.split(",") if a)
    unknown = set(apps) - set(ALL_APPS)
    if unknown:
        parser.error(f"unknown apps: {sorted(unknown)}")
    config = _scaled(args, parser)
    options = RunOptions(timeseries=args.timeseries)
    try:
        # Unknown architecture, or a flag it refuses: a usage error
        # before anything is sent.
        specs = [
            JobSpec.build(app, args.arch, config, args.scale, options=options)
            for app in apps
        ]
    except ValueError as exc:
        parser.error(str(exc))
    try:
        session = Session.connect(args.url)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    handles = session.run_many(specs)
    report = {"url": args.url, "arch": args.arch, "scale": args.scale,
              "jobs": []}
    for app, handle in zip(apps, handles):
        entry = {"app": app, "job_id": handle.job_id}
        if args.no_wait:
            entry["status"] = handle.status()
        else:
            result = handle.result(timeout=args.timeout)
            status = session._transport.status(handle.job_id)
            entry["status"] = status["status"]
            entry["source"] = status["source"]
            entry["ipc"] = getattr(result, "ipc", None)
            print(
                f"{app:4s} {args.arch:16s} {entry['status']:6s} "
                f"[{entry['source']:8s}] ipc={entry['ipc']:.4f}"
            )
        report["jobs"].append(entry)
    if args.no_wait:
        for entry in report["jobs"]:
            print(f"{entry['app']:4s} {entry['job_id']} {entry['status']}")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json_path}", file=sys.stderr)
    if args.fleet_report:
        with open(args.fleet_report, "w") as fh:
            json.dump(session.stats, fh, indent=2, sort_keys=True)
        print(f"fleet report written to {args.fleet_report}", file=sys.stderr)
    return 0


def _cmd_fuzz(args, parser: argparse.ArgumentParser) -> int:
    """Generate a seeded corpus and hold every spec to the paper-rule
    classification gates (and, unless --no-simulate, the differential
    engine-invariant harness). Exit 1 if any spec fails."""
    import json
    from pathlib import Path

    from repro.workloads.fuzz import (
        check_gates,
        differential_check,
        fuzz_workload,
        minimize,
    )
    from repro.workloads.spec import encode_workload, save_workload_file

    if args.count < 1:
        parser.error("--count must be at least 1")
    _scaled(args, parser)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def all_problems(spec) -> list[str]:
        problems, _ = check_gates(spec, scale=args.scale)
        if not args.no_simulate:
            problems += differential_check(spec, scale=args.scale, sms=args.sms)
        return problems

    failures = 0
    started = time.time()
    for index in range(args.count):
        spec = fuzz_workload(args.seed, index)
        if out_dir is not None:
            save_workload_file(spec, out_dir / f"{spec.name}.json")
        problems = all_problems(spec)
        status = "ok" if not problems else "FAIL"
        print(f"[{index:3d}] {spec.name:32s} {status}")
        for p in problems:
            print(f"      {p}", file=sys.stderr)
        if problems:
            failures += 1
            if args.minimize:
                small = minimize(spec, lambda s: bool(all_problems(s)))
                doc = encode_workload(small)
                if out_dir is not None:
                    path = out_dir / f"{spec.name}.min.json"
                    with open(path, "w") as fh:
                        json.dump(doc, fh, indent=2, sort_keys=True)
                    print(f"      minimized repro -> {path}", file=sys.stderr)
                else:
                    print(json.dumps(doc, indent=2, sort_keys=True),
                          file=sys.stderr)
    gates = "gates" if args.no_simulate else "gates + engine invariants"
    print(
        f"\n{args.count - failures}/{args.count} specs passed {gates} "
        f"(seed {args.seed}, {time.time() - started:.0f}s)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        info = cache.info()
        print(format_series("result cache", {
            "entries": info.entries,
            "size (KB)": info.total_bytes / 1024,
        }, precision=1))
        print(f"directory: {info.root}", file=sys.stderr)
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entries from {cache.root}")
    return 0


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    if args.figure not in FIGURES:
        parser.error(f"unknown figure {args.figure!r}; try 'list'")
    apps = tuple(a for a in args.apps.split(",") if a) or ALL_APPS
    unknown = set(apps) - set(ALL_APPS)
    if unknown:
        parser.error(f"unknown apps: {sorted(unknown)}")
    config = _scaled(args, parser)

    workers = args.workers if args.workers is not None else default_workers()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    hosts = [h for h in args.hosts.split(",") if h] or None
    runner = ExperimentRunner(
        workers=workers,
        cache=cache,
        use_cache=not args.no_cache,
        executor=args.executor,
        hosts=hosts,
        worker_command=args.worker_command,
        job_timeout=args.job_timeout,
    )
    ctx = ExperimentContext(
        config=config,
        scale=args.scale,
        apps=apps,
        runner=runner,
        default_overrides={"timeseries": True} if args.timeseries else {},
    )
    figure_runner, description = FIGURES[args.figure]
    print(
        f"running {args.figure} ({description}) on {len(apps)} apps "
        f"at scale {args.scale} with {args.sms} SMs, {workers} worker(s), "
        f"cache {'off' if args.no_cache else 'on'}...",
        file=sys.stderr,
    )
    started = time.time()
    data = figure_runner(ctx)
    runner.close()
    _print_result(args.figure, data)
    print(
        f"\n[{time.time() - started:.0f}s; {runner.stats.summary()}]",
        file=sys.stderr,
    )
    if args.stats_report:
        import json

        with open(args.stats_report, "w") as fh:
            json.dump(runner.stats.to_dict(), fh, indent=2, sort_keys=True)
        print(f"runner stats written to {args.stats_report}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint CLI owns its own argument surface (including --help).
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "worker":
        # The worker CLI owns its own argument surface (including --help).
        from repro.runner.worker import main as worker_main

        return worker_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list(args)
    if args.command == "overhead":
        return _cmd_overhead()
    if args.command == "trace":
        return _cmd_trace(args, parser)
    if args.command == "fuzz":
        return _cmd_fuzz(args, parser)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args, parser)
    return _cmd_run(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
