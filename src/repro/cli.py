"""Command-line interface: run deployments and print reports.

Usage::

    repro-sim simulate --days 7 --seed 42
    repro-sim simulate --days 30 --override 2 --no-wind
    repro-sim science --days 14 --seed 3
    repro-sim health --days 10
    repro-sim metrics --days 7 --seed 0
    repro-sim simulate --days 2 --metrics-out metrics.prom --spans-out spans.json
    repro-sim sweep --days 7 --seeds 0,1,2,3 --param solar_w=5,10 --jobs 4
    repro-sim sweep --days 7 --seeds 0,1 --rollup-out rollup.json \\
        --alerts examples/alerts/mission_slo.json
    repro-sim rollup shard_a.json shard_b.json --table
    repro-sim lint src/repro --check-determinism
    repro-sim races --days 45 --faults examples/faults/canonical_chaos.json

(Equivalently ``python -m repro.cli ...``.  ``repro-sim lint`` forwards to
the ``repro-lint`` static-analysis gate; see :mod:`repro.lint`.)
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.core import Deployment
from repro.faults.harness import (
    add_mission_args,
    build_mission,
    extra_station_count,
    load_fault_plan,
    mission_overrides,
)
from repro.server.archive import ScienceArchive


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Glacsweb Gumsense deployment simulator (Martinez et al., 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--days", type=float, default=7.0, help="days to simulate")
        add_mission_args(p)
        p.add_argument("--no-wind", action="store_true",
                       help="disable the base station's wind turbine")
        p.add_argument("--solar-w", type=float, default=None,
                       help="override the base station's solar rating")
        p.add_argument("--override", type=int, default=None, choices=(0, 1, 2, 3),
                       help="server-side manual power-state override")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write metrics after the run (.json = JSON dump, "
                            "anything else = Prometheus text)")
        p.add_argument("--spans-out", metavar="FILE", default=None,
                       help="write spans after the run (.ndjson = NDJSON, "
                            "anything else = Chrome trace JSON); also enables "
                            "per-event kernel spans")
        p.add_argument("--self-profile", action="store_true",
                       help="measure wall-clock time per process and print a "
                            "hotspot report to stderr (host-dependent; never "
                            "part of any exported artefact)")
        p.add_argument("--alerts", metavar="RULES.json", default=None,
                       help="declarative alert/SLO rules evaluated against "
                            "the run (JSON; see docs/telemetry_rollup.md)")
        fleet_args(p)

    def fleet_args(p):
        p.add_argument("--tenant-size", type=int, default=None, metavar="K",
                       help="group stations into tenants of K for per-tenant "
                            "override state (default: one global tenant)")
        p.add_argument("--batched-sync", action="store_true",
                       help="stations use the single-request sync_session "
                            "endpoint (state up + override + specials + "
                            "load hints in one modem exchange)")

    simulate = sub.add_parser("simulate", help="run a deployment and summarise")
    common(simulate)

    science = sub.add_parser("science", help="run, then print the dGPS/probe products")
    common(science)

    health = sub.add_parser("health", help="run, then print station-health indicators")
    common(health)

    report = sub.add_parser("report", help="run, then print the full mission report")
    common(report)

    metrics = sub.add_parser(
        "metrics", help="run, then print the Prometheus metrics dump")
    common(metrics)
    metrics.add_argument("--format", choices=("prom", "json"), default="prom",
                         help="metrics dump format (default: prom)")

    export = sub.add_parser("export", help="run, then print archive data as CSV/JSON")
    common(export)
    export.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    export.add_argument("--what", choices=("velocity", "voltage", "snapshot"),
                        default="velocity", help="which product to export")

    inject = sub.add_parser(
        "inject",
        help="run under a fault plan and check the recovery invariants",
    )
    common(inject)
    inject.add_argument("--report-out", metavar="FILE", default=None,
                        help="also write the invariant report to this file")
    inject.set_defaults(days=45.0)

    sweep = sub.add_parser(
        "sweep",
        help="run a config-grid x seed sweep in parallel, with result caching",
    )
    sweep.add_argument("--days", type=float, default=7.0, help="days per run")
    sweep.add_argument("--seeds", default="0", metavar="S1,S2,...",
                       help="comma-separated seed list (default: 0)")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="FIELD=V1,V2,...",
                       help="StationConfig field to sweep; repeatable — the "
                            "grid is the cartesian product of all --param")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (default: 1 = in-process)")
    sweep.add_argument("--cache-dir", default=".repro-sweep-cache",
                       help="result cache directory (default: "
                            ".repro-sweep-cache; unused with --work-dir)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore and do not write the result cache")
    sweep.add_argument("--output", metavar="FILE", default=None,
                       help="write the sweep JSON here instead of stdout")
    sweep.add_argument("--faults", action="append", default=[],
                       metavar="PLAN.json",
                       help="fault plan to cross into the grid; repeatable. "
                            "Use the literal 'none' for the fault-free "
                            "baseline alongside plan files")
    sweep.add_argument("--alerts", metavar="RULES.json", default=None,
                       help="alert rules evaluated inside every run; "
                            "per-run firings land in the run summaries "
                            "and alerts_fired_total in the rollup")
    sweep.add_argument("--rollup-out", metavar="FILE", default=None,
                       help="write the streaming campaign metric rollup "
                            "(canonical JSON, byte-identical across --jobs "
                            "and cache states)")
    sweep.add_argument("--chunk-size", type=_positive_int, default=None,
                       metavar="N",
                       help="jobs per chunk (default: adaptive from measured "
                            "run wall time; with --work-dir, the claim-block "
                            "size fixed at campaign creation, default 32)")
    sweep.add_argument("--work-dir", metavar="DIR", default=None,
                       help="drain a campaign directory (manifest + claims + "
                            "cache) cooperatively with any other drainers "
                            "sharing it, instead of sweeping locally")
    sweep.add_argument("--progress", action="store_true",
                       help="print a periodic runs/s progress line to stderr")
    sweep.add_argument("--stale-claim-s", type=float, default=None,
                       metavar="SECONDS",
                       help="--work-dir only: steal another drainer's claim "
                            "once this old if its block is still incomplete "
                            "(default: 300)")
    sweep.add_argument("--cache-gc", action="store_true",
                       help="prune cache entries written by older repro "
                            "versions, report reclaimed bytes, and exit "
                            "without sweeping")
    sweep.add_argument("--stations", type=int, default=None, metavar="N",
                       help="total station count per run (sugar for "
                            "--param extra_stations=N-2)")
    sweep.add_argument("--servers", default=None, metavar="N1,N2,...",
                       help="server fleet size(s) as a grid axis (sugar for "
                            "--param servers=...)")
    sweep.add_argument("--server-policy", default=None, metavar="P1,P2,...",
                       help="upload-target policy grid axis: static, "
                            "round-robin, hop (sugar for "
                            "--param server_policy=...)")

    rollup = sub.add_parser(
        "rollup",
        help="merge rollup JSON shards from separate sweeps into one "
             "campaign aggregate",
    )
    rollup.add_argument("shards", nargs="+", metavar="ROLLUP.json",
                        help="rollup files written by sweep --rollup-out")
    rollup.add_argument("--output", metavar="FILE", default=None,
                        help="write the merged rollup here instead of stdout")
    rollup.add_argument("--table", action="store_true",
                        help="print the campaign results table "
                             "(analysis/campaign_table) instead of JSON")

    races = sub.add_parser(
        "races",
        help="event-ordering race check: static tie-sensitivity lint plus "
             "perturbed-tie replay",
    )
    races.add_argument("--days", type=float, default=45.0,
                       help="replay length in simulated days (default: 45)")
    add_mission_args(races)
    fleet_args(races)
    races.add_argument("--policies", default="fifo,shuffle:1",
                       metavar="P1,P2,...",
                       help="tie-break policies; the first is the replay "
                            "baseline (default: %(default)s)")
    races.add_argument("--paths", nargs="*", default=["src/repro"],
                       help="paths the static race rules lint (default: "
                            "src/repro; none = the replay alone)")
    races.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format")
    races.add_argument("--output", metavar="FILE", default=None,
                       help="write the report here as well as stdout")

    lint = sub.add_parser(
        "lint",
        help="run the determinism/correctness static analysis (repro-lint)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro-lint")
    return parser


def _load_json(path: str, what: str):
    """Parse a JSON input file; a missing or malformed one is a clean error.

    Prints ``repro-sim: cannot load <what>: <reason>`` and exits 2, as
    :func:`repro.faults.harness.load_fault_plan` does for fault plans.
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"repro-sim: cannot load {what}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _build_deployment(args, check_invariants: bool = False) -> Deployment:
    deployment, fault_engine = build_mission(
        args.seed, mission_overrides(args),
        fault_plan=load_fault_plan(args.faults),
        check_invariants=check_invariants)
    #: Armed fault engine (None without --faults); ``inject`` reads the
    #: invariant report off it after the run.
    deployment.fault_engine = fault_engine
    if args.override is not None:
        deployment.set_manual_override(args.override)
    #: Armed alert engine (None without --alerts); every command that
    #: finalises observability also settles and prints its firings.
    deployment.alert_engine = None
    if getattr(args, "alerts", None):
        from repro.obs.alerts import AlertEngine

        try:
            engine = AlertEngine.from_file(args.alerts,
                                           metrics=deployment.sim.obs.metrics)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro-sim: cannot load alert rules: {exc}")
        engine.attach(deployment.sim.trace)
        deployment.alert_engine = engine
    if getattr(args, "spans_out", None):
        deployment.sim.obs.enable_kernel_spans()
    if getattr(args, "self_profile", False):
        deployment.sim.obs.enable_self_profile()
    return deployment


def _write_file(path: str, text: str) -> int:
    """Write an exporter artefact; unwritable paths are a clean error.

    Returns 0 on success, 2 (with a message on stderr, no traceback) when
    the path cannot be written — the S2 contract for exporter-facing CLI
    paths.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"repro-sim: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def _write_observability(deployment: Deployment, args) -> int:
    """Honour ``--metrics-out`` / ``--spans-out`` / ``--self-profile``.

    File format follows the extension: ``.json`` selects the JSON metric
    dump / Chrome trace JSON, ``.ndjson`` selects span NDJSON, anything
    else gets Prometheus text (metrics) or Chrome trace JSON (spans).

    Finalises observability first (kernel gauges, provenance close-out,
    alert settlement) so every dump carries the complete mission view.
    Returns a process exit code: 0, or 2 when an output path is
    unwritable.
    """
    from repro.obs.export import (
        metrics_to_json,
        metrics_to_prometheus,
        spans_to_chrome_trace,
        spans_to_ndjson,
    )

    obs = deployment.sim.obs
    obs.finalise(deployment.sim)
    engine = getattr(deployment, "alert_engine", None)
    if engine is not None:
        engine.finish(deployment.sim.now)
    code = 0
    if getattr(args, "metrics_out", None):
        if args.metrics_out.endswith(".json"):
            text = metrics_to_json(obs.metrics)
        else:
            text = metrics_to_prometheus(obs.metrics)
        code = _write_file(args.metrics_out, text) or code
    if getattr(args, "spans_out", None):
        if args.spans_out.endswith(".ndjson"):
            text = spans_to_ndjson(obs.spans)
        else:
            text = spans_to_chrome_trace(obs.spans)
        code = _write_file(args.spans_out, text) or code
    if getattr(args, "self_profile", False) and obs.profile is not None:
        print(obs.profile.report(), file=sys.stderr)
    return code


def _print_alerts(deployment: Deployment) -> None:
    engine = getattr(deployment, "alert_engine", None)
    if engine is not None:
        print()
        print(engine.format())


def _run_command(printer):
    """Turn ``printer(deployment, args)`` into a run-then-print handler.

    The six run commands share one prologue: build the deployment, run it
    for ``--days``, then honour the observability outputs
    (:func:`_write_observability`).  They differ only in what they print
    afterwards.  The handler returns the observability exit code.
    """
    @functools.wraps(printer)
    def handler(args) -> int:
        deployment = _build_deployment(args)
        deployment.run_days(args.days)
        code = _write_observability(deployment, args)
        printer(deployment, args)
        return code

    return handler


@_run_command
def _cmd_simulate(deployment: Deployment, args) -> None:
    """Summarise every station and the probe fleet."""
    rows = []
    for station in deployment.stations:
        rows.append(
            (
                station.name,
                station.daily_runs,
                int(station.effective_state),
                round(station.bus.battery.soc, 3),
                round(deployment.server.received_bytes(station=station.name) / 1e6, 2),
                round(station.modem.cost_total, 2),
            )
        )
    print(format_table(
        ["Station", "Runs", "State", "SoC", "Delivered (MB)", "GPRS cost"],
        rows,
        title=f"{args.days:g} simulated days (seed {args.seed})",
    ))
    print(f"\nProbes alive: {deployment.surviving_probes()}/{len(deployment.probes)}; "
          f"readings collected: {deployment.base.readings_collected}")
    _print_alerts(deployment)


@_run_command
def _cmd_science(deployment: Deployment, args) -> None:
    """Print the dGPS and probe science products."""
    archive = ScienceArchive(deployment.server)
    velocities = archive.daily_velocity()
    print(format_table(
        ["Day", "Ice velocity (m/day)"],
        [(d, round(v, 4)) for d, v in velocities],
        title="dGPS daily velocity (differential solutions)",
    ))
    print(f"\nDifferential solution fraction: {archive.differential_fraction():.0%}")
    slips = archive.stick_slip_days()
    print(f"Stick-slip candidate days: {slips if slips else 'none'}")
    series = archive.probe_series("conductivity_us")
    if series:
        rows = [
            (pid, len(values), round(values[-1][1], 2))
            for pid, values in sorted(series.items())
        ]
        print()
        print(format_table(["Probe", "Readings", "Latest conductivity (µS)"], rows,
                           title="Sub-glacial probes"))
    _print_alerts(deployment)


@_run_command
def _cmd_health(deployment: Deployment, args) -> None:
    """Print the station-health indicators."""
    archive = ScienceArchive(deployment.server)
    rows = []
    for station in ("base", "reference"):
        minima = archive.battery_daily_minima(station)
        rows.append(
            (
                station,
                round(minima[-1][1], 2) if minima else None,
                "yes" if archive.battery_declining(station) else "no",
                "YES" if archive.snow_burial_risk(station) else "no",
                "YES" if archive.enclosure_humidity_alert(station) else "no",
            )
        )
    print(format_table(
        ["Station", "Last daily-min V", "Battery declining", "Burial risk",
         "Humidity alert"],
        rows,
        title=f"Station health after {args.days:g} days",
    ))
    _print_alerts(deployment)


@_run_command
def _cmd_report(deployment: Deployment, args) -> None:
    """Print the full mission report."""
    from repro.analysis.mission_report import mission_report

    print(mission_report(deployment))


@_run_command
def _cmd_metrics(deployment: Deployment, args) -> None:
    """Print the metrics dump (Prometheus text or JSON)."""
    from repro.obs.export import metrics_to_json, metrics_to_prometheus

    if args.format == "json":
        print(metrics_to_json(deployment.sim.obs.metrics), end="")
    else:
        print(metrics_to_prometheus(deployment.sim.obs.metrics), end="")


def _cmd_inject(args) -> int:
    """Run under a fault plan and verdict the recovery invariants.

    Without ``--faults`` the canonical chaos scenario runs (every fault
    kind over 45 days — the CI chaos-smoke configuration).  Exit code is
    the invariant verdict: 0 iff no violation.
    """
    from repro.faults import apply_fault_plan, canonical_chaos_plan

    deployment = _build_deployment(args, check_invariants=True)
    if deployment.fault_engine is None:
        deployment.fault_engine = apply_fault_plan(
            deployment, canonical_chaos_plan(), check_invariants=True)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
    report = deployment.fault_engine.finish()
    text = report.format()
    conservation = deployment.sim.obs.finalise(deployment.sim)
    if conservation is not None:
        text += "\n" + conservation.format()
    print(text)
    _print_alerts(deployment)
    if args.report_out:
        code = _write_file(args.report_out, text + "\n") or code
    if not report.ok:
        return 1
    if conservation is not None and not conservation.ok:
        return 1
    return code


@_run_command
def _cmd_export(deployment: Deployment, args) -> None:
    """Print one archive product as CSV or JSON."""
    from repro.analysis.export import (
        archive_snapshot_json,
        series_to_csv,
        series_to_json,
    )

    archive = ScienceArchive(deployment.server)
    if args.what == "snapshot":
        print(archive_snapshot_json(archive))
        return
    if args.what == "velocity":
        series = [(float(d) * 86400.0, v) for d, v in archive.daily_velocity()]
        name = "velocity_m_per_day"
    else:
        series = archive.voltage_series("base")
        name = "volts"
    if args.format == "csv":
        print(series_to_csv(series, value_name=name), end="")
    else:
        print(series_to_json(series, value_name=name,
                             metadata={"seed": args.seed, "days": args.days}))


def _parse_param_value(raw: str):
    """``--param`` value literal: int, then float, then bool, else string."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _cmd_sweep(args) -> int:
    from repro.fleet import SweepCache, SweepSpec, expand_grid, run_sweep, sweep_to_json

    params = {}
    for spec_arg in args.param:
        name, sep, values = spec_arg.partition("=")
        if not sep or not values:
            raise SystemExit(f"--param must look like FIELD=V1,V2,... (got {spec_arg!r})")
        params[name] = [_parse_param_value(v) for v in values.split(",")]
    # Fleet sugar: the flags expand to ordinary grid axes, so they cross
    # with --param and land in config digests like any other override.
    if args.stations is not None:
        params.setdefault("extra_stations", [extra_station_count(args.stations)])
    if args.servers:
        params.setdefault("servers",
                          [int(v) for v in args.servers.split(",") if v])
    if args.server_policy:
        params.setdefault(
            "server_policy",
            [p.strip() for p in args.server_policy.split(",") if p.strip()])
    seeds = [int(s) for s in args.seeds.split(",") if s]
    fault_plans = None
    if args.faults:
        fault_plans = [None if path == "none" else load_fault_plan(path)
                       for path in args.faults]
    alert_rules = None
    if args.alerts:
        from repro.obs.alerts import AlertEngine

        alert_rules = _load_json(args.alerts, "alert rules")
        try:
            AlertEngine(alert_rules)  # validate once, before fan-out
        except ValueError as exc:
            raise SystemExit(f"repro-sim: cannot load alert rules: {exc}")
    spec = SweepSpec(grid=expand_grid(params), seeds=seeds, days=args.days,
                     fault_plans=fault_plans, alert_rules=alert_rules)
    if args.cache_gc:
        if args.no_cache:
            raise SystemExit("--cache-gc and --no-cache are contradictory")
        gc_root = args.cache_dir
        if args.work_dir:
            import os

            from repro.fleet.executor import CACHE_DIR

            gc_root = os.path.join(args.work_dir, CACHE_DIR)
        report = SweepCache(gc_root).gc()
        print(report.format(), file=sys.stderr)
        return 0
    cache = None
    if args.work_dir:
        if args.no_cache:
            raise SystemExit("--work-dir needs the cache "
                             "(--no-cache is contradictory)")
    elif not args.no_cache:
        cache = SweepCache(args.cache_dir)
    progress = None
    if args.progress:
        def progress(line: str) -> None:
            print(line, file=sys.stderr)
    result = run_sweep(spec, jobs=args.jobs, cache=cache,
                       chunk_size=args.chunk_size,
                       work_dir=args.work_dir, progress=progress,
                       stale_claim_s=args.stale_claim_s)
    text = sweep_to_json(result)
    code = 0
    if args.output:
        code = _write_file(args.output, text) or code
    else:
        print(text)
    if args.rollup_out and result.rollup is not None:
        code = _write_file(args.rollup_out, result.rollup.to_json()) or code
    print(
        f"sweep: {len(result.runs)} runs "
        f"({result.cache_hits} cached, {result.cache_misses} computed, "
        f"jobs={args.jobs})",
        file=sys.stderr,
    )
    return code


def _cmd_rollup(args) -> int:
    """Merge rollup shards; print (or write) the campaign aggregate."""
    import json

    from repro.obs.rollup import merge_rollups

    docs = []
    for path in args.shards:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"repro-sim: cannot read rollup shard {path}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        merged = merge_rollups(docs)
    except ValueError as exc:
        print(f"repro-sim: {exc}", file=sys.stderr)
        return 1
    if args.table:
        from repro.analysis.campaign_table import campaign_table

        text = campaign_table(merged)
    else:
        text = json.dumps(merged, indent=2, sort_keys=True) + "\n"
    if args.output:
        return _write_file(args.output, text)
    print(text, end="")
    return 0


def _cmd_races(args) -> int:
    """Two-pronged event-ordering race check.

    Static prong: the three tie-sensitivity rules over ``--paths``.
    Dynamic prong: the mission replayed once per ``--policies`` entry,
    normalized trace digests diffed against the first (baseline) policy,
    divergences bisected to the offending schedule callsites.  Exit 0 iff
    both prongs are clean.
    """
    import json

    from repro.lint.engine import lint_paths
    from repro.lint.races import RACE_RULE_IDS
    from repro.lint.rules import default_rules
    from repro.lint.tie_replay import check_tie_robustness

    static_findings = lint_paths(
        args.paths, rules=default_rules(select=list(RACE_RULE_IDS)))
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    report = check_tie_robustness(seed=args.seed, days=args.days,
                                  policies=policies,
                                  fault_plan=load_fault_plan(args.faults),
                                  overrides=mission_overrides(args))
    if args.format == "json":
        text = json.dumps({
            "static": [finding.to_dict() for finding in static_findings],
            "replay": report.to_dict(),
        }, indent=2)
    else:
        lines = [f"static race rules: {len(static_findings)} finding(s) "
                 f"over {' '.join(args.paths)}"]
        lines.extend("  " + finding.render() for finding in static_findings)
        lines.append(report.format())
        text = "\n".join(lines)
    print(text)
    code = _write_file(args.output, text + "\n") if args.output else 0
    return code if not static_findings and report.robust else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded before argparse: REMAINDER cannot capture a leading
        # option (e.g. ``repro-sim lint --help``), bpo-17050.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "science": _cmd_science,
        "health": _cmd_health,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
        "export": _cmd_export,
        "inject": _cmd_inject,
        "sweep": _cmd_sweep,
        "rollup": _cmd_rollup,
        "races": _cmd_races,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
