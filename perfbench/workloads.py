"""The four canonical workloads: set-up, timed phase, checks, digest, counters.

Every workload runs on the shipping defaults (exact comms, adaptive
energy, deferred probe sampling); the slow A/B arms are never built, so
deleting them leaves every number here unchanged.  A workload is split
into the set-up the user pays before simulating (imports, deployment,
fault engine, sweep spec) and the timed phase (``run_days`` or
``run_sweep``), so ``setup_s`` and the throughput metrics measure
separate things.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
from typing import Any, Callable, Dict, Optional

YEAR_DAYS = 365.25


@dataclasses.dataclass
class Op:
    """One built workload instance, carried from set-up to the checks."""

    workload: "Workload"
    seed: int
    state: Dict[str, Any]

    def run(self) -> None:
        self.workload.run(self)

    @property
    def attempted(self) -> int:
        """Operations in one timed phase: one mission, or one per sweep job."""
        return self.workload.operations(self)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    #: Builds the state the timed phase needs (the set-up phase).
    build: Callable[[int, Dict[str, Any]], Dict[str, Any]]
    #: The timed phase.
    run: Callable[[Op], None]
    #: ``{check name: passed}`` after the timed phase.
    checks: Callable[[Op], Dict[str, bool]]
    #: Model outputs that must repeat exactly for one seed.
    digest: Callable[[Op], str]
    #: Deterministic counters, ``{name: number}``.
    counters: Callable[[Op], Dict[str, float]]
    #: Simulated station-years the timed phase delivers.
    station_years: Callable[[Op], float]
    #: Operations one timed phase attempts (missions or sweep jobs).
    operations: Callable[[Op], int]
    #: Whether the workload is one in-process mission (so the tracer
    #: sees all of it and observability can be switched off).
    mission: bool = True

    def setup(self, seed: int, options: Optional[Dict[str, Any]] = None) -> Op:
        return Op(self, seed, self.build(seed, dict(options or {})))


# ----------------------------------------------------------------------
# Shared mission helpers
# ----------------------------------------------------------------------
def _canonical_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _servers(deployment) -> list:
    fleet = deployment.fleet
    return list(fleet.shards) if fleet is not None else [deployment.server]


def uploaded_bytes(deployment) -> int:
    """Bytes the archive received, over every server."""
    return sum(upload.nbytes for server in _servers(deployment)
               for upload in server.uploads)


def mission_digest(op: Op) -> str:
    """Archive uploads, final battery SoC per station, events processed."""
    deployment = op.state["deployment"]
    uploads = [[server.name, upload.station, upload.name, upload.nbytes]
               for server in _servers(deployment) for upload in server.uploads]
    soc = {station.name: repr(station.bus.battery.soc)
           for station in deployment.stations}
    return _canonical_digest({"uploads": uploads, "soc": soc,
                              "events": deployment.sim.events_processed})


def _family_total(families, name: str) -> float:
    return float(sum(metric.value for metric in families.get(name, ())))


def registry_counters(families) -> Dict[str, float]:
    """Counters read from a metrics registry's families."""
    total = lambda name: _family_total(families, name)  # noqa: E731
    return {
        "energy.syncs": total("energy_syncs_total"),
        "energy.crossings_predicted": total("energy_crossings_predicted_total"),
        "energy.prediction_misses": total("energy_prediction_misses_total"),
        "obs.provenance_edges": total("provenance_edges_total"),
        "probes.frames": total("probe_frames_total"),
        "comms.sessions": total("comms_sessions_total"),
        "comms.exact_draws": total("comms_exact_draws_total"),
        "comms.drops": total("modem_drops_total"),
        "comms.sent_bytes": total("modem_sent_bytes_total"),
        "server.uploads": total("server_uploads_total"),
        "server.upload_bytes": total("server_upload_bytes_total"),
        "server.sync_sessions": total("server_sync_sessions_total"),
        "faults.injected": total("faults_injected_total"),
        "faults.recoveries": total("fault_recoveries_total"),
        "core.state_transitions": total("power_state_transitions_total"),
    }


def mission_counters(op: Op) -> Dict[str, float]:
    deployment = op.state["deployment"]
    sim = deployment.sim
    counters = registry_counters(sim.obs.metrics.families())
    counters.update({
        "sim.events": float(sim.events_processed),
        "sim.dispatch_batches": float(sim.dispatch_batches),
        "sim.trace.records": float(len(sim.trace.records)),
        "core.daily_runs": float(sum(s.daily_runs for s in deployment.stations)),
        "core.uploaded_bytes": float(uploaded_bytes(deployment)),
    })
    return counters


def _run_mission(op: Op) -> None:
    op.state["deployment"].run_days(op.state["days"])


def _mission_station_years(op: Op) -> float:
    deployment = op.state["deployment"]
    return len(deployment.stations) * op.state["days"] / YEAR_DAYS


def _one(op: Op) -> int:
    return 1


def _deployment(config, options: Dict[str, Any]):
    """Build the deployment; ``obs_off`` switches observability off.

    The switches are the public ones: a hub built with the trace bridge
    and provenance off, and the trace's ``enabled`` gate.
    """
    from repro.core import Deployment

    deployment = Deployment(config)
    if options.get("obs_off"):
        from repro.obs import Observability

        sim = deployment.sim
        sim.obs = Observability(clock=sim.clock, trace_bridge=False,
                                provenance=False)
        sim.trace.enabled = False
    return deployment


# ----------------------------------------------------------------------
# e20-year: the probe-idled endurance year
# ----------------------------------------------------------------------
#: Maintenance cadence of the endurance scenario: 6 hours.
E20_SAMPLE_INTERVAL_S = 21600.0
E20_DAYS = 365
#: The E20 endurance check: daily cycles on (almost) every day.
E20_MIN_DAILY_RUNS = 355


def _build_e20(seed: int, options: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import DeploymentConfig
    from repro.core.config import StationConfig, reference_defaults

    reference = reference_defaults()
    reference.sample_interval_s = E20_SAMPLE_INTERVAL_S
    config = DeploymentConfig(
        seed=seed,
        base=StationConfig(sample_interval_s=E20_SAMPLE_INTERVAL_S),
        reference=reference,
        probe_ids=(),
    )
    return {"deployment": _deployment(config, options), "days": E20_DAYS}


def _checks_e20(op: Op) -> Dict[str, bool]:
    deployment = op.state["deployment"]
    checks = {
        f"{station.name}_daily_runs_ge_{E20_MIN_DAILY_RUNS}":
            station.daily_runs >= E20_MIN_DAILY_RUNS
        for station in deployment.stations
    }
    checks["no_brownouts"] = not deployment.sim.trace.select(kind="brownout")
    return checks


# ----------------------------------------------------------------------
# mission-chaos: the default mission under the canonical chaos plan
# ----------------------------------------------------------------------
#: The canonical chaos plan's window.
CHAOS_DAYS = 45


def _build_chaos(seed: int, options: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import DeploymentConfig
    from repro.faults import apply_fault_plan, canonical_chaos_plan

    deployment = _deployment(DeploymentConfig(seed=seed), options)
    engine = apply_fault_plan(deployment, canonical_chaos_plan())
    return {"deployment": deployment, "engine": engine, "days": CHAOS_DAYS}


def _checks_chaos(op: Op) -> Dict[str, bool]:
    deployment = op.state["deployment"]
    report = op.state["engine"].finish()
    conservation = deployment.sim.obs.finalise(deployment.sim)
    return {
        "invariants_ok": report is not None and report.ok,
        "provenance_conservation_ok": conservation is not None and conservation.ok,
    }


# ----------------------------------------------------------------------
# fleet-202x4: 202 stations hopping over four server shards
# ----------------------------------------------------------------------
FLEET_EXTRA_STATIONS = 200
FLEET_SERVERS = 4
FLEET_DAYS = 2


def _build_fleet(seed: int, options: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import DeploymentConfig
    from repro.core.config import StationConfig, reference_defaults

    reference = reference_defaults()
    reference.batched_sync = True
    config = DeploymentConfig(
        seed=seed,
        base=StationConfig(batched_sync=True),
        reference=reference,
        extra_stations=FLEET_EXTRA_STATIONS,
        servers=FLEET_SERVERS,
        server_policy="hop",
    )
    return {"deployment": _deployment(config, options), "days": FLEET_DAYS}


def _checks_fleet(op: Op) -> Dict[str, bool]:
    deployment = op.state["deployment"]
    days = op.state["days"]
    shards_used = sum(1 for shard in deployment.fleet.shards if shard.uploads)
    return {
        "every_station_ran_daily": all(station.daily_runs >= days
                                       for station in deployment.stations),
        "hop_spreads_over_shards": shards_used > 1,
    }


# ----------------------------------------------------------------------
# sweep-halfwarm: run_sweep over a grid whose cache holds every other seed
# ----------------------------------------------------------------------
SWEEP_GRID = {"solar_w": (5.0, 10.0, 15.0, 20.0), "wind_w": (0.0, 50.0)}
SWEEP_SEEDS = 8
SWEEP_DAYS = 4.0
#: ``nproc`` on the reference host.
SWEEP_JOBS = 2


def sweep_spec(seed: int, warm_only: bool = False):
    """The campaign; ``warm_only`` is the every-other-seed half."""
    from repro.fleet.runner import SweepSpec, expand_grid

    seeds = [seed * SWEEP_SEEDS + index for index in range(SWEEP_SEEDS)]
    if warm_only:
        seeds = seeds[::2]
    return SweepSpec(grid=expand_grid(dict(SWEEP_GRID)), seeds=seeds,
                     days=SWEEP_DAYS)


def cache_entries(root: str) -> int:
    """Finished-run entries under a sweep cache root."""
    return sum(1 for _, _, files in os.walk(root)
               for name in files if name.endswith(".json"))


def prefill_sweep_cache(seed: int, root: str) -> None:
    """Fill ``root`` with every other seed of the campaign."""
    from repro.fleet.cache import SweepCache
    from repro.fleet.runner import run_sweep

    run_sweep(sweep_spec(seed, warm_only=True), jobs=SWEEP_JOBS,
              cache=SweepCache(root))


def _build_sweep(seed: int, options: Dict[str, Any]) -> Dict[str, Any]:
    from repro.fleet.cache import SweepCache

    root = options["cache"]
    return {"spec": sweep_spec(seed), "cache": SweepCache(root), "root": root,
            "entries_before": cache_entries(root)}


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _run_sweep(op: Op) -> None:
    from repro.fleet.runner import run_sweep

    state = op.state
    parent, workers = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    state["result"] = run_sweep(state["spec"], jobs=SWEEP_JOBS,
                                cache=state["cache"])
    # The pool has shut down, so its workers count as reaped children.
    state["parent_cpu_s"] = _cpu_s(resource.RUSAGE_SELF) - parent
    state["worker_cpu_s"] = _cpu_s(resource.RUSAGE_CHILDREN) - workers


def _sweep_job_ok(record: Dict[str, Any]) -> bool:
    provenance = record["result"].get("provenance") or {}
    return provenance.get("conserved") is True


def _checks_sweep(op: Op) -> Dict[str, bool]:
    state = op.state
    result = state["result"]
    total = state["spec"].total_jobs()
    computed = cache_entries(state["root"]) - state["entries_before"]
    return {
        "every_job_delivered": len(result.runs) == total
        and result.rollup.runs == total,
        "computed_equals_misses": computed == result.cache_misses,
        "half_warm": result.cache_hits == state["entries_before"]
        and result.cache_hits + result.cache_misses == total,
        "provenance_conserved_every_run": all(map(_sweep_job_ok, result.runs)),
    }


def _digest_sweep(op: Op) -> str:
    """The sweep's canonical JSON and its rollup, as the CLI writes them."""
    from repro.fleet.results import sweep_to_json

    result = op.state["result"]
    text = sweep_to_json(result) + result.rollup.to_json()
    return hashlib.sha256(text.encode()).hexdigest()


def _counters_sweep(op: Op) -> Dict[str, float]:
    result = op.state["result"]
    counters = registry_counters(result.rollup.to_registry().families())
    records = [record["result"] for record in result.runs]
    counters.update({
        "sim.events": float(sum(r["events_processed"] for r in records)),
        "core.daily_runs": float(sum(station["daily_runs"] for r in records
                                     for station in r["stations"].values())),
        "core.uploaded_bytes": float(sum(station["delivered_bytes"]
                                         for r in records
                                         for station in r["stations"].values())),
        "fleet.cache_hits": float(result.cache_hits),
        "fleet.cache_misses": float(result.cache_misses),
    })
    return counters


def _sweep_station_years(op: Op) -> float:
    result = op.state["result"]
    return sum(len(record["result"]["stations"]) * record["days"]
               for record in result.runs) / YEAR_DAYS


def _sweep_jobs(op: Op) -> int:
    return op.state["spec"].total_jobs()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="e20-year", default_seed=100,
            build=_build_e20, run=_run_mission, checks=_checks_e20,
            digest=mission_digest, counters=mission_counters,
            station_years=_mission_station_years, operations=_one),
        Workload(
            name="mission-chaos", default_seed=42,
            build=_build_chaos, run=_run_mission, checks=_checks_chaos,
            digest=mission_digest, counters=mission_counters,
            station_years=_mission_station_years, operations=_one),
        Workload(
            name="fleet-202x4", default_seed=5,
            build=_build_fleet, run=_run_mission, checks=_checks_fleet,
            digest=mission_digest, counters=mission_counters,
            station_years=_mission_station_years, operations=_one),
        Workload(
            name="sweep-halfwarm", default_seed=1,
            build=_build_sweep, run=_run_sweep, checks=_checks_sweep,
            digest=_digest_sweep, counters=_counters_sweep,
            station_years=_sweep_station_years, operations=_sweep_jobs,
            mission=False),
    )
}
