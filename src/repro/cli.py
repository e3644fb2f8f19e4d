"""Command-line interface: ``python -m repro <experiment>``.

Commands
--------
``repro list``
    Show the available experiments and commands.
``repro all [--fast]``
    Run every experiment and print the reports.
``repro <experiment> [--fast] [--seed N]``
    Run one experiment (e.g. ``repro fig5``).  ``repro all --jobs N`` and
    ``repro report --jobs N`` fan the experiments out over N worker
    processes with results identical to serial execution; the fan-out is
    crash-isolated (a failed experiment prints a FAILED report and exits
    1, siblings keep their results) with optional ``--retries N`` and
    ``--timeout SEC`` budgets — see docs/RESILIENCE.md.
``repro profile <experiment> [--fast]``
    Run one experiment with telemetry and the deterministic profiler on
    and print the sorted span-timing, metrics and hot-path tables.
``repro hotspots <experiment> [--fast] [--top N] [--collapsed OUT] [--flame OUT]``
    Profile one experiment and rank the hottest ``repro.*`` functions by
    exclusive time, with the subsystem taxonomy rollup.  ``--collapsed``
    writes flamegraph.pl-compatible collapsed stacks; ``--flame`` writes
    a standalone SVG flame chart.
``repro report [--fast] [--resume] [--html OUT] [--only EXP] [--from-run SPEC]``
    Run every experiment and write EXPERIMENTS.md (paper vs measured).
    ``--resume`` checkpoints completed experiments so an interrupted or
    partially failed report rerun only repeats the missing ones.
    ``--html OUT`` additionally writes the self-contained HTML fit
    report (inline-SVG charts, no external assets); with ``--only EXP``
    (repeatable) just the selected experiments run and only the HTML is
    written; ``--from-run SPEC`` renders the HTML from an archived run
    without running anything.
``repro diff [RUN_A] [RUN_B] [--store DIR]``
    Compare two archived runs (run ids, id prefixes, ``latest``,
    ``latest~N``, or run directories; default ``latest~1`` vs
    ``latest``): parameter/quality/counter drift against thresholds
    (``--drift-params`` relative, ``--drift-quality`` absolute,
    ``--drift-counters`` relative, ``--gate-wall``).  Exits nonzero on
    drift — CI-friendly.  Runs are archived with ``--archive`` on any
    experiment run (``repro fig5 --archive``).
``repro doctor [EXPERIMENT...] [--full] [--r2-floor X]``
    One-screen health report: failed experiments, solver degradations
    and non-converged solves, low-R² fits, influential fit points.
``repro calibrate``
    Regenerate the shipped calibration table from the Table II anchors.
``repro topology``
    Print likwid-style topology of the three simulated testbeds.
``repro lint [PATH] [--format text|json|github] [--baseline FILE]``
    Run the domain lint rules (see docs/LINTING.md); exits 1 on any
    error-severity finding.  ``--write-baseline`` records the current
    findings as grandfathered; ``--changed`` replays cached findings
    for unchanged files (incremental mode).
``repro serve [--port P] [--host H] [--workers N]``
    Run the contention-prediction HTTP service (docs/SERVING.md).
``repro slo [--url URL]``
    Show a running service's SLO burn rates, windowed latency and
    degraded/ok status (reads ``/healthz`` and ``/metrics``).
``repro tail [--url URL] [--top N]``
    Show a running service's recent and slowest requests with their
    span counts (reads ``/debug/requests``).

Telemetry flags (see docs/OBSERVABILITY.md)
-------------------------------------------
``--trace PATH``
    Write a Chrome trace-event JSON of the run (load in Perfetto).
``--metrics``
    Print the metrics summary table after the run.
``--manifest PATH``
    Write the structured run manifest(s) as JSON.
``--log PATH``
    Write the structured JSONL event log of the run.
``--serve-metrics PORT``
    Serve live ``/metrics``, ``/healthz`` and ``/events`` JSON endpoints
    on 127.0.0.1:PORT while the run executes (0 picks a free port).
``--version``
    Print the package version and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import __version__, obs
from repro.experiments import available_experiments, run_experiment

#: Non-experiment commands, as shown by ``repro list``.
_COMMANDS: dict[str, str] = {
    "list": "show available experiments and commands",
    "all": "run every experiment",
    "profile": "run one experiment and print span/metric/hot-path summaries",
    "hotspots": "profile one experiment and rank its hottest functions",
    "report": "run everything and write EXPERIMENTS.md",
    "calibrate": "regenerate the shipped calibration table",
    "topology": "print the simulated testbed topologies",
    "lint": "run the domain lint rules (docs/LINTING.md)",
    "diff": "compare two archived runs for drift (docs/OBSERVABILITY.md)",
    "doctor": "run a health check-up and print a one-screen report",
    "serve": "run the contention-prediction HTTP service (docs/SERVING.md)",
    "slo": "show a running service's SLO burn rates and windowed latency",
    "tail": "show a running service's recent and slowest requests",
}


def _cmd_list(_args) -> int:
    print("available experiments:")
    for name in available_experiments():
        print(f"  {name}")
    print()
    print("commands:")
    for name, doc in _COMMANDS.items():
        print(f"  {name:<10} {doc}")
    return 0


def _cmd_calibrate(_args) -> int:
    import os

    from repro.runtime import calibration

    path = os.path.join(os.path.dirname(calibration.__file__),
                        "calibration_table.py")
    print(f"recomputing calibration anchors -> {path} (takes ~1 min)")
    calibration.write_table(path)
    print("done")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import write_experiments_md

    if args.from_run is not None:
        if not args.html:
            print("usage: repro report --from-run SPEC --html OUT.html",
                  file=sys.stderr)
            return 2
        from repro.obs.htmlreport import write_html
        from repro.obs.store import RunStore, StoreError

        try:
            run = _run_store(args).load(args.from_run)
        except StoreError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        charts = write_html(args.html, run.diagnostics, meta=run.meta)
        print(f"HTML fit report for run {run.run_id} written to "
              f"{args.html} ({charts} charts)")
        return 0

    profiler = obs.Profiler() if args.profile else None
    if profiler is not None and args.jobs > 1:
        print("repro report: --profile profiles the coordinating process "
              "only; use --jobs 1 for full attribution", file=sys.stderr)

    if args.only:
        from repro.experiments import run_experiments
        from repro.obs.htmlreport import write_html
        from repro.obs.prof import profile_payload

        if profiler is not None:
            with profiler:
                results = run_experiments(
                    args.only, fast=args.fast, rng=args.seed,
                    jobs=args.jobs, timeout_s=args.timeout,
                    retries=args.retries)
        else:
            results = run_experiments(args.only, fast=args.fast,
                                      rng=args.seed, jobs=args.jobs,
                                      timeout_s=args.timeout,
                                      retries=args.retries)
        failures = sum(1 for r in results if not r.ok)
        if args.html:
            diagnostics = {r.name: r.diagnostics for r in results
                           if r.diagnostics}
            profile = (profile_payload(profiler.report)
                       if profiler is not None and profiler.report is not None
                       else None)
            charts = write_html(args.html, diagnostics,
                                meta={"fast": args.fast,
                                      "only": ",".join(args.only)},
                                profile=profile)
            print(f"HTML fit report written to {args.html} "
                  f"({charts} charts)")
        for result in results:
            if not result.ok:
                print(result.render(), file=sys.stderr)
        return 1 if failures else 0

    path = "EXPERIMENTS.md"
    print(f"running every experiment and writing {path} "
          "(several minutes at full fidelity)")
    failures = write_experiments_md(path, fast=args.fast, rng=args.seed,
                                    jobs=args.jobs, resume=args.resume,
                                    html_path=args.html, profiler=profiler)
    if args.html:
        print(f"HTML fit report written to {args.html}")
    if failures:
        print(f"done with {failures} FAILED experiment"
              f"{'' if failures == 1 else 's'} (see {path}; rerun with "
              "--resume to retry only the failures)", file=sys.stderr)
        return 1
    print("done")
    return 0


def _run_store(args):
    """The archive for --store, defaulting to .repro/runs."""
    from repro.obs.store import RunStore

    return RunStore(args.store) if args.store else RunStore()


def _cmd_diff(args) -> int:
    from repro.obs.drift import DriftThresholds, compare_runs
    from repro.obs.store import StoreError

    specs = [s for s in [args.target, *args.extra] if s is not None]
    if len(specs) > 2:
        print("usage: repro diff [RUN_A] [RUN_B]", file=sys.stderr)
        return 2
    spec_a = specs[0] if len(specs) == 2 else "latest~1"
    spec_b = specs[-1] if specs else "latest"
    store = _run_store(args)
    try:
        run_a = store.load(spec_a)
        run_b = store.load(spec_b)
    except StoreError as exc:
        print(f"repro diff: {exc}", file=sys.stderr)
        return 2
    overrides = {
        "params_rel": args.drift_params,
        "quality_abs": args.drift_quality,
        "counters_rel": args.drift_counters,
        "gate_wall": args.gate_wall or None,
    }
    thresholds = DriftThresholds(
        **{k: v for k, v in overrides.items() if v is not None})
    report = compare_runs(run_a, run_b, thresholds)
    print(report.render())
    return report.exit_code()


def _cmd_doctor(args) -> int:
    from repro.obs.doctor import DEFAULT_R2_FLOOR, diagnose

    selected = [s for s in [args.target, *args.extra] if s is not None]
    floor = args.r2_floor if args.r2_floor is not None else DEFAULT_R2_FLOOR
    report = diagnose(selected or None, fast=not args.full, rng=args.seed,
                      jobs=args.jobs, r2_floor=floor)
    print(report.render())
    return report.exit_code()


def _cmd_lint(args) -> int:
    import os

    from repro import lintkit

    if args.target:
        targets = [args.target]
    elif os.path.isdir("src/repro"):
        targets = ["src/repro"]
    else:
        targets = None  # fall back to [tool.reprolint] paths / defaults
    config = lintkit.load_config(os.getcwd())
    report = lintkit.lint_paths(targets, config,
                                baseline_path=args.baseline,
                                incremental=args.changed)
    if args.changed:
        print(f"lint cache: {report.cache_hits} hit"
              f"{'' if report.cache_hits == 1 else 's'}, "
              f"{report.cache_misses} miss"
              f"{'' if report.cache_misses == 1 else 'es'}")
    if args.write_baseline:
        path = args.baseline or config.baseline or "lint-baseline.json"
        n = lintkit.write_baseline(report, path)
        print(f"baseline written to {path} ({n} entr"
              f"{'y' if n == 1 else 'ies'})")
        return 0
    print(lintkit.render(report, args.format))
    return report.exit_code()


def _cmd_topology(_args) -> int:
    from repro.counters.likwid import TopologyMap
    from repro.machine import all_machines

    for machine in all_machines():
        print(TopologyMap(machine).render())
        print()
    return 0


def _experiment_names(name: str) -> list[str]:
    return available_experiments() if name == "all" else [name]


def _reject_run(name: str, args) -> bool:
    """Refuse, before any work, a run that could not finish usefully.

    An unknown experiment, or a ``--trace``/``--manifest``/``--log``
    path into a missing directory, gets a one-line stderr error and
    ``True``; otherwise ``False``.
    """
    valid = available_experiments()
    if name != "all" and name not in valid:
        print(f"repro: unknown experiment {name!r}; valid: all, "
              f"{', '.join(valid)} (see 'repro list' for commands)",
              file=sys.stderr)
        return True
    for flag in ("trace", "manifest", "log"):
        path = getattr(args, flag)
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            print(f"repro: --{flag} {path}: directory does not exist",
                  file=sys.stderr)
            return True
    return False


def _write_telemetry(args, tel) -> None:
    """Honour --trace/--metrics/--manifest/--log after a telemetry run."""
    if args.trace:
        tel.tracer.write_chrome_trace(args.trace)
        print(f"chrome trace written to {args.trace} "
              "(open in Perfetto or chrome://tracing)")
    if args.log:
        n = tel.log.write_jsonl(args.log)
        print(f"structured log written to {args.log} ({n} event"
              f"{'' if n == 1 else 's'})")
    if args.manifest:
        records = [m.to_dict() for m in tel.manifests]
        payload = records[0] if len(records) == 1 else records
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"run manifest written to {args.manifest}")
    if args.metrics:
        print()
        print(obs.render_summary(tel))


def _cmd_experiment(args) -> int:
    from repro.experiments import run_experiments

    if _reject_run(args.experiment, args):
        return 2
    telemetry_wanted = bool(args.trace or args.metrics or args.manifest
                            or args.archive or args.log
                            or args.serve_metrics is not None)
    if telemetry_wanted:
        obs.enable(fresh=True)
    server = None
    if args.serve_metrics is not None:
        server = obs.MetricsServer(port=args.serve_metrics)
        server.start()
        print(f"live metrics at {server.url}/metrics "
              f"(health: {server.url}/healthz)")
    names = _experiment_names(args.experiment)
    failures = 0
    try:
        results = run_experiments(names, fast=args.fast, rng=args.seed,
                                  jobs=args.jobs, timeout_s=args.timeout,
                                  retries=args.retries)
    finally:
        if server is not None:
            server.stop()
    for result in results:
        print(result.render())
        print()
        if not result.ok:
            failures += 1
    if args.archive:
        from repro.obs.store import DEFAULT_KEEP

        store = _run_store(args)
        run_id = store.archive(
            results, obs.session(), fast=args.fast, seed=args.seed,
            keep=args.keep if args.keep is not None else DEFAULT_KEEP,
            trace=bool(args.trace))
        print(f"run archived as {run_id} under {store.root} "
              "(compare with 'repro diff')")
    if telemetry_wanted:
        _write_telemetry(args, obs.session())
    return 1 if failures else 0


def _profiled_run(names: list[str], fast: bool, rng):
    """One profiled, telemetry-enabled run shared by profile/hotspots.

    The solve stack is imported up front so the profile attributes time
    to solving, not to first-touch module imports, then every experiment
    runs serially under one :class:`repro.obs.Profiler`.
    """
    import repro.experiments.runner  # noqa: F401  (pre-import: attribution)
    import repro.qnet.mva  # noqa: F401
    import repro.runtime.flow  # noqa: F401

    tel = obs.enable(fresh=True)
    results = []
    with obs.Profiler() as profiler:
        for name in names:
            results.append(run_experiment(name, fast=fast, rng=rng))
    return tel, profiler.report, results


def _cmd_profile(args) -> int:
    if not args.target:
        print("usage: repro profile <experiment> [--fast]", file=sys.stderr)
        return 2
    if _reject_run(args.target, args):
        return 2
    tel, report, results = _profiled_run(_experiment_names(args.target),
                                         args.fast, args.seed)
    for result in results:
        footer = result.timing_footer()
        print(f"== profile: {result.name} =="
              f"{'  [' + footer + ']' if footer else ''}")
    print()
    print(obs.render_summary(tel, report, top=args.top))
    _write_telemetry(argparse.Namespace(trace=args.trace, metrics=False,
                                        manifest=args.manifest,
                                        log=args.log), tel)
    return 0


def _cmd_hotspots(args) -> int:
    if not args.target:
        print("usage: repro hotspots <experiment> [--fast] [--top N] "
              "[--collapsed OUT] [--flame OUT]", file=sys.stderr)
        return 2
    if _reject_run(args.target, args):
        return 2
    _, report, _ = _profiled_run(_experiment_names(args.target),
                                 args.fast, args.seed)
    print(obs.render_hotspots(report, top=args.top))
    if args.collapsed:
        n = report.write_collapsed(args.collapsed)
        print(f"collapsed stacks written to {args.collapsed} "
              f"({n} line{'' if n == 1 else 's'}; feed to flamegraph.pl)")
    if args.flame:
        from repro.obs.htmlreport import flame_svg

        with open(args.flame, "w", encoding="utf-8") as fh:
            fh.write(flame_svg(report.flame_tree()) + "\n")
        print(f"flame chart written to {args.flame}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import PredictionServer

    # The service is a telemetry surface by construction: /metrics and
    # the cache hit-rate gauges only exist with an enabled session.
    if not obs.enabled():
        obs.enable()
    server = PredictionServer(host=args.host, port=args.port,
                              workers=args.workers)
    try:
        import asyncio

        asyncio.run(_announce_and_serve(server))
    except KeyboardInterrupt:
        print("\nrepro serve: stopped")
    return 0


async def _announce_and_serve(server) -> None:
    await server.start()
    print(f"repro serve listening on {server.url}")
    print("  POST /predict         one (machine, workload, allocation) cell")
    print("  POST /recommend       minimum-slowdown core allocation")
    print("  GET  /metrics         telemetry snapshot + rolling windows")
    print("  GET  /healthz         liveness + SLO burn-rate state")
    print("  GET  /events          structured-log ring")
    print("  GET  /debug/requests  recent/slowest requests with span trees")
    print("  GET  /dashboard       script-free inline-SVG live dashboard")
    try:
        await server._server.serve_forever()
    finally:
        await server.stop()


def _service_url(args) -> str:
    if args.url:
        return args.url.rstrip("/")
    return f"http://{args.host}:{args.port}"


def _fetch_service_json(url: str, timeout_s: float = 5.0):
    """GET a JSON payload from a running service; ``None`` on refusal.

    HTTP error statuses still carry JSON payloads (the service's error
    contract), so they parse and return; only transport-level failures
    (refused, timeout) return ``None``.
    """
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            return json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            return None
    except (urllib.error.URLError, OSError, ValueError):
        return None


def _cmd_slo(args) -> int:
    base = _service_url(args)
    healthz = _fetch_service_json(base + "/healthz")
    if healthz is None:
        print(f"repro slo: no service answering at {base}", file=sys.stderr)
        return 2
    slo = healthz.get("slo")
    if slo is None:
        print(f"repro slo: the service at {base} predates the SLO schema "
              "(no 'slo' block on /healthz); upgrade the server",
              file=sys.stderr)
        return 2
    print(f"service {base} — status: {healthz['status']} "
          f"(uptime {healthz.get('uptime_s', 0):.0f}s)")
    print()
    print(f"{'objective':<14} {'kind':<13} {'target':>8} {'status':>9} "
          f"{'burn 1m':>8} {'burn 5m':>8} {'burn 1h':>8} {'bad/total 1h':>14}")
    for name in sorted(slo["objectives"]):
        obj = slo["objectives"][name]
        win = obj["windows"]
        hour = win["1h"]
        print(f"{name:<14} {obj['kind']:<13} {obj['target']:>8.4g} "
              f"{obj['status']:>9} {win['1m']['burn_rate']:>8.2f} "
              f"{win['5m']['burn_rate']:>8.2f} {hour['burn_rate']:>8.2f} "
              f"{hour['bad']:>6}/{hour['total']}")
    print()
    print(f"degraded = burn >= {slo['fast_burn_threshold']:g} on both the "
          "1m and 5m windows")
    metrics = _fetch_service_json(base + "/metrics")
    windows = (metrics or {}).get("windows")
    if windows:
        for label, title in (("fast", "last 60s"), ("slow", "last 60m")):
            block = windows[label]
            lat = block["window.latency_seconds"]
            req = block["window.requests"]
            err = block["window.errors"]
            if not lat["count"]:
                print(f"{title}: no requests")
                continue
            print(f"{title}: {req['total']} requests "
                  f"({req['rate_per_s']:.1f}/s), "
                  f"error rate {err['error_rate'] * 100:.2f}%, "
                  f"p50 {lat['p50'] * 1e3:.2f}ms "
                  f"p95 {lat['p95'] * 1e3:.2f}ms "
                  f"p99 {lat['p99'] * 1e3:.2f}ms")
    else:
        print("windowed latency unavailable "
              "(telemetry disabled or pre-window server)")
    return 0


def _cmd_tail(args) -> int:
    base = _service_url(args)
    payload = _fetch_service_json(
        base + f"/debug/requests?limit={max(args.top, 1)}")
    if payload is None:
        print(f"repro tail: no service answering at {base}", file=sys.stderr)
        return 2
    if "recent" not in payload:
        print(f"repro tail: the service at {base} has no /debug/requests "
              "surface; upgrade the server", file=sys.stderr)
        return 2
    print(f"service {base} — {payload['total']} requests seen, "
          f"ring capacity {payload['capacity']}")
    for title, key in (("recent", "recent"), ("slowest", "slowest")):
        entries = payload.get(key, [])
        print()
        print(f"{title} ({len(entries)}):")
        print(f"  {'request id':<18} {'method':<7} {'path':<18} "
              f"{'status':>6} {'ms':>9} {'spans':>6}")
        for entry in entries:
            spans = _span_count(entry.get("trace"))
            print(f"  {entry['request_id']:<18} {entry['method']:<7} "
                  f"{entry['path']:<18} {entry['status']:>6} "
                  f"{entry['duration_s'] * 1e3:>9.2f} "
                  f"{spans if spans else '-':>6}")
    return 0


def _span_count(trace) -> int:
    if not trace:
        return 0
    return 1 + sum(_span_count(c) for c in trace.get("children", ()))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Understanding Off-chip Memory "
                    "Contention of Parallel Programs in Multicore Systems' "
                    "(ICPP 2011)")
    parser.add_argument(
        "experiment",
        help="experiment name (see 'repro list'), 'all', or a command: "
             + ", ".join(f"'{c}'" for c in _COMMANDS))
    parser.add_argument(
        "target", nargs="?", default=None,
        help="experiment name for 'repro profile/hotspots <experiment>', "
             "the path to scan for 'repro lint [PATH]', or the first run "
             "spec for 'repro diff'")
    parser.add_argument(
        "extra", nargs="*", default=[],
        help="second run spec for 'repro diff A B', or further "
             "experiment names for 'repro doctor'")
    parser.add_argument("--fast", action="store_true",
                        help="smaller sweeps / fewer samples")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the default RNG seed")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes "
                             "(results identical to serial; see "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts a failed experiment gets in "
                             "--jobs runs (see docs/RESILIENCE.md)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-experiment wall-clock budget in --jobs "
                             "runs (see docs/RESILIENCE.md)")
    parser.add_argument("--resume", action="store_true",
                        help="for 'repro report': checkpoint completed "
                             "experiments and restore them on rerun")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON (Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics summary after the run")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="write the structured run manifest JSON")
    parser.add_argument("--log", metavar="PATH", default=None,
                        help="write the structured JSONL event log")
    parser.add_argument("--serve-metrics", type=int, default=None,
                        metavar="PORT", dest="serve_metrics",
                        help="serve live /metrics and /healthz JSON on "
                             "127.0.0.1:PORT during the run (0 = any free "
                             "port)")
    parser.add_argument("--top", type=int, default=15, metavar="N",
                        help="rows in the 'repro profile'/'repro hotspots' "
                             "hot-path table (default 15)")
    parser.add_argument("--collapsed", metavar="PATH", default=None,
                        help="'repro hotspots': write flamegraph.pl-"
                             "compatible collapsed stacks")
    parser.add_argument("--flame", metavar="PATH", default=None,
                        help="'repro hotspots': write a standalone SVG "
                             "flame chart")
    parser.add_argument("--profile", action="store_true",
                        help="'repro report --html': run under the profiler "
                             "and include the flame-chart section")
    parser.add_argument("--archive", action="store_true",
                        help="archive the run (manifest, metrics, fit "
                             "diagnostics) under --store for 'repro diff'")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="run-archive directory (default .repro/runs)")
    parser.add_argument("--keep", type=int, default=None, metavar="N",
                        help="archived runs retained before pruning "
                             "(default 50)")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="for 'repro report': write the self-contained "
                             "HTML fit report (inline SVG, no assets)")
    parser.add_argument("--only", action="append", metavar="EXP",
                        default=None,
                        help="for 'repro report --html': run only this "
                             "experiment (repeatable); skips EXPERIMENTS.md")
    parser.add_argument("--from-run", metavar="SPEC", default=None,
                        help="for 'repro report --html': render from an "
                             "archived run instead of running experiments")
    parser.add_argument("--drift-params", type=float, default=None,
                        metavar="REL",
                        help="'repro diff' relative threshold for fitted "
                             "parameters (default 1e-3)")
    parser.add_argument("--drift-quality", type=float, default=None,
                        metavar="ABS",
                        help="'repro diff' absolute threshold for R²/error "
                             "statistics (default 1e-3)")
    parser.add_argument("--drift-counters", type=float, default=None,
                        metavar="REL",
                        help="'repro diff' relative threshold for work "
                             "counters (default 0.25)")
    parser.add_argument("--gate-wall", action="store_true",
                        help="'repro diff': gate on wall-clock drift too")
    parser.add_argument("--full", action="store_true",
                        help="'repro doctor': full-fidelity sweeps instead "
                             "of fast mode")
    parser.add_argument("--r2-floor", type=float, default=None, metavar="X",
                        help="'repro doctor': flag fits with R² below X "
                             "(default 0.8)")
    parser.add_argument("--format", default="text", metavar="FMT",
                        choices=("text", "json", "github"),
                        help="lint report format: text, json or github "
                             "(workflow annotations)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="lint baseline file overriding "
                             "[tool.reprolint] baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current lint findings as the baseline "
                             "instead of failing on them")
    parser.add_argument("--changed", action="store_true",
                        help="lint incrementally: replay cached findings "
                             "for unchanged files (.repro/lintcache.json)")
    parser.add_argument("--port", type=int, default=8321, metavar="PORT",
                        help="'repro serve': listen port (default 8321; "
                             "0 = any free port)")
    parser.add_argument("--host", default="127.0.0.1", metavar="HOST",
                        help="'repro serve': bind address (default "
                             "loopback)")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="'repro serve': solver worker threads "
                             "(default 4)")
    parser.add_argument("--url", default=None, metavar="URL",
                        help="'repro slo'/'repro tail': base URL of the "
                             "running service (default http://HOST:PORT "
                             "from --host/--port)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    # intermixed: options may appear between the positionals, e.g.
    # ``repro lint --format json src/repro``.
    args = parser.parse_intermixed_args(argv)

    if args.experiment == "list":
        return _cmd_list(args)
    if args.experiment == "calibrate":
        return _cmd_calibrate(args)
    if args.experiment == "report":
        return _cmd_report(args)
    if args.experiment == "topology":
        return _cmd_topology(args)
    if args.experiment == "profile":
        return _cmd_profile(args)
    if args.experiment == "hotspots":
        return _cmd_hotspots(args)
    if args.experiment == "lint":
        return _cmd_lint(args)
    if args.experiment == "diff":
        return _cmd_diff(args)
    if args.experiment == "doctor":
        return _cmd_doctor(args)
    if args.experiment == "serve":
        return _cmd_serve(args)
    if args.experiment == "slo":
        return _cmd_slo(args)
    if args.experiment == "tail":
        return _cmd_tail(args)
    return _cmd_experiment(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
