"""Station-years/second: legacy vs batched/exact dispatch stack, A/B.

The throughput headline for the batched same-timestamp dispatch +
exact-interval comms/sensor scheduling layer, measured as **simulated
station-years per wall-clock second** on two scenarios:

- **E20** — the probe-idled power-endurance year (same scenario as
  ``test_endurance.py``).  The adaptive PowerBus already collected this
  scenario's order of magnitude (3.3-3.8x, ``BENCH_endurance.json``);
  what remains is model physics (weather quadrature, GPS, planner), so
  the legacy-vs-batched margin here is honest but modest — the pinned
  floor says the new stack must never be *slower*.
- **Fleet** — the comms/sensor-bound regime this layer is for: two
  deployments (four stations), each with the full seven-probe fleet at a
  2-minute cadence, whose wired probe fails on day 3 (the paper's
  Section V single-point-of-failure).  The legacy stack burns one kernel
  event + one sensor sweep per probe sample all run long and one timeout
  per transfer chunk / stream packet; the batched stack schedules comms
  with single inverse-CDF draws and materialises probe samples lazily —
  samples that nothing will ever observe (the radio is dead) are never
  computed at all.  This is where the >= 3x station-years/s and >= 10x
  fewer dispatched events gates live.

Each arm is a separate pytest-benchmark entry so ``check_regression.py``
can gate wall-clock and the deterministic counters against
``BENCH_throughput.json``; the ratio gates close the module.  Run the
whole module — the gate test skips if any arm was deselected.
"""

import time

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults
from tests.oracles import oracle_arms

#: Maintenance cadence shared with the endurance scenario: 6 hours.
MAINTENANCE_INTERVAL_S = 21600.0

E20_DAYS = 365
FLEET_DAYS = 60
FLEET_SEEDS = (100, 101)
#: High-rate probe survey: one sample every two minutes.
FLEET_PROBE_INTERVAL_S = 120.0
#: The Section V failure: probe comms die on day 3.
FLEET_WIRED_PROBE_LIFETIME_DAYS = 3.0

#: Acceptance floors (see docs/performance.md section 4).
MIN_FLEET_SPEEDUP = 3.0
MIN_FLEET_EVENT_RATIO = 10.0
#: E20 is physics-bound, not dispatch-bound (see module docstring): the
#: honest claim is "the batched stack is never slower" — measured ~1.1x,
#: gated at parity so wall noise cannot flake the build.
MIN_E20_SPEEDUP = 1.0

#: The two arms: the pre-batching configuration (the chunked Bernoulli
#: comms and eager probe-sampling oracles from ``tests.oracles``) vs the
#: shipping defaults.
ARMS = {
    "legacy": {"chunked_comms": True, "eager_probes": True},
    "batched": {},
}

#: ``(scenario, arm) -> {"wall_s", "station_years", ...}`` filled by the
#: four benchmark tests, consumed by the ratio gates below.
_RESULTS: dict = {}


def e20_config() -> DeploymentConfig:
    base = StationConfig(sample_interval_s=MAINTENANCE_INTERVAL_S)
    reference = reference_defaults()
    reference.sample_interval_s = MAINTENANCE_INTERVAL_S
    return DeploymentConfig(seed=100, base=base, reference=reference,
                            probe_ids=())


def fleet_config(seed: int) -> DeploymentConfig:
    base = StationConfig(sample_interval_s=MAINTENANCE_INTERVAL_S)
    reference = reference_defaults()
    reference.sample_interval_s = MAINTENANCE_INTERVAL_S
    return DeploymentConfig(
        seed=seed, base=base, reference=reference,
        probe_sampling_interval_s=FLEET_PROBE_INTERVAL_S,
        wired_probe_lifetime_days=FLEET_WIRED_PROBE_LIFETIME_DAYS,
    )


def build(arm: str, config: DeploymentConfig) -> Deployment:
    """``config`` deployed on ``arm``'s comms and probe-sampling paths."""
    with oracle_arms(**ARMS[arm]):
        return Deployment(config)


def total_exact_draws(deployment) -> int:
    families = deployment.sim.obs.metrics.families()
    return sum(int(m.value) for m in families.get("comms_exact_draws_total", []))


def run_e20(arm: str):
    """One probe-idled endurance year; returns ``(stats, wall_s)``."""
    start = time.perf_counter()
    deployment = build(arm, e20_config())
    deployment.run_days(E20_DAYS)
    wall_s = time.perf_counter() - start
    # Scenario sanity: still the endurance year — daily cycles, no
    # brown-outs (mirrors test_endurance.py).
    assert deployment.base.daily_runs >= 355
    assert deployment.reference.daily_runs >= 355
    assert len(deployment.sim.trace.select(kind="brownout")) == 0
    stats = {
        "station_years": 2 * E20_DAYS / 365.25,
        "events_processed": deployment.sim.events_processed,
        "dispatch_batches": deployment.sim.dispatch_batches,
        "comms_exact_draws": total_exact_draws(deployment),
    }
    return stats, wall_s


def run_fleet(arm: str):
    """Two fleet deployments back to back; returns ``(stats, wall_s)``."""
    start = time.perf_counter()
    events = batches = draws = 0
    for seed in FLEET_SEEDS:
        deployment = build(arm, fleet_config(seed))
        deployment.run_days(FLEET_DAYS)
        # The Section V outage actually happened: probe comms are dead,
        # yet the stations keep their daily cycle.
        assert not deployment.wired_probe.is_alive
        assert deployment.base.daily_runs >= FLEET_DAYS - 5
        events += deployment.sim.events_processed
        batches += deployment.sim.dispatch_batches
        draws += total_exact_draws(deployment)
        del deployment
    wall_s = time.perf_counter() - start
    stats = {
        "station_years": 2 * len(FLEET_SEEDS) * FLEET_DAYS / 365.25,
        "events_processed": events,
        "dispatch_batches": batches,
        "comms_exact_draws": draws,
    }
    return stats, wall_s


_RUNNERS = {"e20": run_e20, "fleet": run_fleet}


def _measure(benchmark, scenario: str, arm: str):
    stats, wall_s = run_once(benchmark, _RUNNERS[scenario], arm)
    stats["wall_s"] = wall_s
    stats["sy_per_s"] = stats["station_years"] / wall_s
    for key in ("events_processed", "dispatch_batches", "comms_exact_draws"):
        benchmark.extra_info[key] = stats[key]
    _RESULTS[(scenario, arm)] = stats
    return stats


def test_throughput_e20_legacy(benchmark):
    stats = _measure(benchmark, "e20", "legacy")
    # The chunked engine draws no exact samples.
    assert stats["comms_exact_draws"] == 0


def test_throughput_e20_batched(benchmark):
    stats = _measure(benchmark, "e20", "batched")
    assert stats["comms_exact_draws"] > 0


def test_throughput_fleet_legacy(benchmark):
    stats = _measure(benchmark, "fleet", "legacy")
    # One kernel event per probe sample: 14 probes x 720/day x 60 days
    # puts the legacy fleet well past half a million events.
    assert stats["events_processed"] > 600_000


def test_throughput_fleet_batched(benchmark):
    stats = _measure(benchmark, "fleet", "batched")
    # Deferred sampling + exact comms: the whole fleet run dispatches
    # fewer events than a single legacy probe would have.
    assert stats["events_processed"] < 80_000


def _speedup(scenario: str) -> float:
    legacy = _RESULTS[(scenario, "legacy")]
    batched = _RESULTS[(scenario, "batched")]
    return batched["sy_per_s"] / legacy["sy_per_s"]


def _retry(scenario: str) -> None:
    """Single-shot walls are noisy; re-measure both arms, keep the min."""
    for arm in ARMS:
        stats = _RESULTS[(scenario, arm)]
        _, wall_retry = _RUNNERS[scenario](arm)
        stats["wall_s"] = min(stats["wall_s"], wall_retry)
        stats["sy_per_s"] = stats["station_years"] / stats["wall_s"]


def test_throughput_gates(emit):
    needed = [(s, a) for s in ("e20", "fleet") for a in ARMS]
    if any(key not in _RESULTS for key in needed):
        pytest.skip("A/B arms incomplete — run the whole module")

    if _speedup("fleet") < MIN_FLEET_SPEEDUP:
        _retry("fleet")
    if _speedup("e20") < MIN_E20_SPEEDUP:
        _retry("e20")

    rows = []
    for scenario, title in (("e20", "E20 year"), ("fleet", "fleet 60 d")):
        legacy = _RESULTS[(scenario, "legacy")]
        batched = _RESULTS[(scenario, "batched")]
        rows.append((f"{title}: station-years/s",
                     f"{legacy['sy_per_s']:.3f}", f"{batched['sy_per_s']:.3f}",
                     f"{_speedup(scenario):.2f}x"))
        rows.append((f"{title}: kernel events",
                     legacy["events_processed"], batched["events_processed"],
                     f"{legacy['events_processed'] / batched['events_processed']:.1f}x"))
        rows.append((f"{title}: dispatch batches",
                     legacy["dispatch_batches"], batched["dispatch_batches"],
                     f"{legacy['dispatch_batches'] / batched['dispatch_batches']:.1f}x"))
    emit(
        "Throughput — legacy (chunked + eager) vs batched (exact + deferred)",
        format_table(["Measure", "legacy", "batched", "ratio"], rows),
    )

    fleet_events = (_RESULTS[("fleet", "legacy")]["events_processed"]
                    / _RESULTS[("fleet", "batched")]["events_processed"])
    assert _speedup("fleet") >= MIN_FLEET_SPEEDUP
    assert fleet_events >= MIN_FLEET_EVENT_RATIO
    assert _speedup("e20") >= MIN_E20_SPEEDUP
