"""One workload operation in a fresh process: ``python -m perfbench.child``.

Modes:

- ``plain``: untraced, as a user runs it; reports set-up time, timed-phase
  wall time, peak memory, checks, digest and counters.
- ``traced``: the layers wrapped in spans (:mod:`perfbench.tracer`); the
  spans are written to ``--spans`` when the timed phase ends.
- ``obs-off``: the trace, trace bridge and provenance switched off; reports
  wall time and archived bytes only.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "obs-off"),
                        default="plain")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--cache", default=None, help="sweep cache directory")
    parser.add_argument("--spans", default=None, help="where traced spans go")
    args = parser.parse_args(argv)

    from perfbench.workloads import WORKLOADS, uploaded_bytes

    workload = WORKLOADS[args.workload]
    log = scans = None
    if args.mode == "traced":
        from perfbench import tracer

        log = tracer.SpanLog()
        tracer.install(log)
        scans = tracer.ScanCounter()
        scans.install()

    op = workload.setup(args.seed, {"cache": args.cache,
                                    "obs_off": args.mode == "obs-off"})
    setup_end = time.monotonic()
    result = {"mode": args.mode, "attempted": op.attempted}
    if args.t0 is not None:
        result["setup_s"] = setup_end - args.t0

    if log is not None:
        log.clear()
        scans.records = 0
        root = log.open("bench:timed-phase", "bench")
    start = time.perf_counter()
    op.run()
    result["wall_s"] = time.perf_counter() - start
    if log is not None:
        log.close(root)
        result["records_scanned"] = scans.records
        result["layers"] = sorted(tracer.layer_map())
        log.dump(args.spans)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["station_years"] = workload.station_years(op)
    if "deployment" in op.state:
        deployment = op.state["deployment"]
        result["station_days"] = len(deployment.stations) * op.state["days"]
        result["uploaded_bytes"] = uploaded_bytes(deployment)
    for key in ("parent_cpu_s", "worker_cpu_s"):
        if key in op.state:
            result[key] = op.state[key]
    if args.mode != "obs-off":
        result["checks"] = workload.checks(op)
        result["digest"] = workload.digest(op)
        result["counters"] = workload.counters(op)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
