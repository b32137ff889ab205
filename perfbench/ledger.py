"""Turning operation results into the benchmark's metrics.

Pure functions over the JSON results :mod:`perfbench.child` prints and the
span logs it writes, so the self-tests can feed them made-up inputs.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from perfbench import tracer


def judge(results: Sequence[Mapping[str, Any]]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, reasons)`` over the checked operations.

    A result fails when its process crashed, a check failed, or its digest
    or counters differ from the ones most results of the same seed agree
    on.  A failed sweep fails every job in it.
    """
    def key(counters: Mapping[str, float]) -> Tuple:
        return tuple(sorted(counters.items()))

    checked = [r for r in results if "checks" in r or "error" in r]
    digests = Counter(r["digest"] for r in checked if "digest" in r)
    counters = Counter(key(r["counters"]) for r in checked if "counters" in r)
    want_digest = digests.most_common(1)[0][0] if digests else None
    want_counters = counters.most_common(1)[0][0] if counters else None
    attempted = failed = 0
    reasons: List[str] = []
    for index, result in enumerate(checked):
        ops = int(result.get("attempted", 1))
        attempted += ops
        why = []
        if "error" in result:
            why.append(result["error"])
        else:
            why += [f"check {name} failed"
                    for name, ok in sorted(result["checks"].items()) if not ok]
            if result["digest"] != want_digest:
                why.append("model digest differs from the other runs of this seed")
            if key(result["counters"]) != want_counters:
                why.append("counters differ from the other runs of this seed")
        if why:
            failed += ops
            reasons += [f"{result.get('mode', '?')} run {index}: {w}" for w in why]
    return attempted, failed, reasons


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def end_to_end(plain: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced runs."""
    ok = [r for r in plain if "wall_s" in r]
    return {
        "station_years_per_s": median([r["station_years"] / r["wall_s"] for r in ok]),
        "runs_per_s": median([r["attempted"] / r["wall_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
    }


def layer_rows(layers: Sequence[str]) -> List[str]:
    """The rows of the layer table: every package, the trace, the root."""
    rows = list(layers)
    rows.insert(rows.index("sim") + 1 if "sim" in rows else len(rows), "sim.trace")
    return rows + [tracer.ROOT]


def span_metrics(log: tracer.SpanLog, layers: Sequence[str]) -> Dict[str, float]:
    """Per-layer self time and share, plus the span-derived figures."""
    roots = [sid for sid in range(len(log)) if log.parent[sid] < 0]
    wall = sum(log.end[sid] - log.start[sid] for sid in roots)
    own = tracer.layer_self_times(log)
    out: Dict[str, float] = {"bench.traced_wall_s": wall}
    for layer in layer_rows(layers):
        seconds = own.get(layer, 0.0)
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.share"] = seconds / wall if wall > 0 else 0.0
    scans = [d for name in tracer.SCAN_SPANS for d in tracer.span_durations(log, name)]
    uploads_us = [d * 1e6 for d in tracer.span_durations(log, tracer.UPLOAD_SPAN)]
    layer_of = log.name_layer
    out.update({
        "sim.trace.scan_s": sum(scans),
        "sim.trace.scan_calls": float(len(scans)),
        "server.upload_call_us.p50": percentile(uploads_us, 50),
        "server.upload_call_us.p99": percentile(uploads_us, 99),
        "fleet.cache_load_s": sum(tracer.span_durations(log, tracer.CACHE_LOAD_SPAN)),
        "environment.calls": float(sum(1 for nid in log.name
                                       if layer_of[nid] == "environment")),
    })
    return out


def derived_counters(counters: Mapping[str, float]) -> Dict[str, float]:
    """Ratios of counters."""
    def ratio(num: str, den: str) -> float:
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    predicted = counters.get("energy.crossings_predicted", 0.0)
    return {
        "sim.events_per_batch": ratio("sim.events", "sim.dispatch_batches"),
        "energy.prediction_hit_ratio":
            (predicted - counters.get("energy.prediction_misses", 0.0)) / predicted
            if predicted else 0.0,
        "comms.useful_byte_ratio": ratio("server.upload_bytes", "comms.sent_bytes"),
    }


def per_layer(plain: Sequence[Mapping[str, Any]], traced: Sequence[Mapping[str, Any]],
              traced_spans: Sequence[Dict[str, float]],
              obs_off: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Every per-layer figure of one traced benchmark run.

    Times are medians over the cycles run; counters come from the first
    untraced run (the checks make every run of the seed agree).
    """
    out: Dict[str, float] = {}
    for name in traced_spans[0]:
        out[name] = median([spans[name] for spans in traced_spans])
    counters = dict(plain[0]["counters"])
    out.update(counters)
    out.update(derived_counters(counters))
    plain_wall = median([r["wall_s"] for r in plain])
    out["bench.plain_wall_s"] = plain_wall
    out["bench.trace_overhead_ratio"] = (
        median([r["wall_s"] for r in traced]) / plain_wall)
    scanned = median([r["records_scanned"] for r in traced])
    station_days = plain[0].get("station_days", 0)
    out["sim.trace.records_scanned"] = scanned
    out["sim.trace.records_scanned_per_station_day"] = (
        scanned / station_days if station_days else 0.0)
    if obs_off:
        out["obs.off_speedup"] = plain_wall / median([r["wall_s"] for r in obs_off])
        out["core.obs_coupling_bytes"] = float(abs(
            plain[0]["uploaded_bytes"] - obs_off[0]["uploaded_bytes"]))
    else:
        out["obs.off_speedup"] = 0.0
        out["core.obs_coupling_bytes"] = 0.0
    if "parent_cpu_s" in plain[0]:
        out["fleet.parent_cpu_s"] = median([r["parent_cpu_s"] for r in plain])
        out["fleet.worker_cpu_s"] = median([r["worker_cpu_s"] for r in plain])
        out["fleet.parent_wait_s"] = median(
            [r["wall_s"] - r["parent_cpu_s"] for r in plain])
    else:
        for name in ("parent_cpu_s", "worker_cpu_s", "parent_wait_s"):
            out[f"fleet.{name}"] = 0.0
    out.setdefault("fleet.cache_hits", 0.0)
    out.setdefault("fleet.cache_misses", 0.0)
    return out
