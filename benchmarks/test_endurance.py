"""E20 — the power-endurance year: fixed-step vs adaptive bus, A/B.

The fixed-step arm is the test oracle :class:`tests.oracles.FixedStepBus`
at its 300 s step; the adaptive arm is the shipping
:class:`~repro.energy.bus.PowerBus`.

The paper's Section V endurance question — does the station survive the
winter on its power budget? — exercises the energy layer almost in
isolation: both stations at the 6-hour maintenance sampling cadence, the
probe fleet idled.  In that regime the fixed-step PowerBus dominates the
event budget (a 300 s tick is ~100k wake-ups per station-year), which
makes this the honest scenario for the adaptive integrator's headline
claim:

- >= 3x whole-simulation wall-clock speedup, and
- >= 10x fewer bus syncs,

with the *same physics* — the equivalence properties live in
``tests/energy/test_adaptive_equivalence.py``; this bench pins the cost.

The two modes run as separate pytest-benchmark entries (so
``check_regression.py`` can gate each wall-clock against
``BENCH_endurance.json``) and stash their counters module-locally for the
ratio-gate test that closes the file.  Run the whole module; the gate
test skips if either half is deselected.
"""

import time

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults
from tests.oracles import oracle_arms

#: Maintenance cadence: one health/housekeeping sample every six hours.
MAINTENANCE_INTERVAL_S = 21600.0

#: Acceptance floors for the adaptive integrator (see docs/performance.md).
MIN_WALL_SPEEDUP = 3.0
MIN_SYNC_RATIO = 10.0

#: ``mode -> {"wall_s", "energy_syncs_total", "events_processed"}`` filled
#: by the two benchmark tests, consumed by the ratio gate below.
_RESULTS: dict = {}


#: The fixed-step oracle's tick, seconds.
FIXED_STEP_S = 300.0


def endurance_config() -> DeploymentConfig:
    base = StationConfig(sample_interval_s=MAINTENANCE_INTERVAL_S)
    reference = reference_defaults()
    reference.sample_interval_s = MAINTENANCE_INTERVAL_S
    return DeploymentConfig(seed=100, base=base, reference=reference,
                            probe_ids=())


def run_endurance(mode: str):
    """One station-pair endurance year; returns ``(deployment, wall_s)``.

    Wall time is measured here as well as by the benchmark fixture so the
    ratio gate can compare the two modes without reaching into
    pytest-benchmark session internals.
    """
    start = time.perf_counter()
    with oracle_arms(fixed_step_s=FIXED_STEP_S if mode == "fixed" else None):
        deployment = Deployment(endurance_config())
    deployment.run_days(365)
    return deployment, time.perf_counter() - start


def total_bus_syncs(deployment) -> int:
    families = deployment.sim.obs.metrics.families()
    return sum(int(m.value) for m in families.get("energy_syncs_total", []))


def _measure(benchmark, mode: str):
    deployment, wall_s = run_once(benchmark, run_endurance, mode)
    syncs = total_bus_syncs(deployment)
    events = deployment.sim.events_processed
    benchmark.extra_info["energy_syncs_total"] = syncs
    benchmark.extra_info["events_processed"] = events
    _RESULTS[mode] = {
        "wall_s": wall_s,
        "energy_syncs_total": syncs,
        "events_processed": events,
    }
    # Scenario sanity: the endurance year must still *be* the endurance
    # year — both stations keep their daily cycle and never brown out.
    assert deployment.base.daily_runs >= 355
    assert deployment.reference.daily_runs >= 355
    assert len(deployment.sim.trace.select(kind="brownout")) == 0
    return deployment


def test_endurance_year_fixed(benchmark):
    deployment = _measure(benchmark, "fixed")
    # The baseline must genuinely tick: ~2 stations x 365 d / 300 s.
    assert _RESULTS["fixed"]["energy_syncs_total"] > 100_000
    del deployment


def test_endurance_year_adaptive(benchmark):
    deployment = _measure(benchmark, "adaptive")
    # Planned syncs only: load switches, predicted crossings, max_step
    # heartbeats.  Measured 2,921 for this seed; 6,000 leaves headroom for
    # schedule drift while staying far below fixed/10.
    assert _RESULTS["adaptive"]["energy_syncs_total"] < 6_000
    del deployment


def test_endurance_speedup_gates(emit):
    fixed = _RESULTS.get("fixed")
    adaptive = _RESULTS.get("adaptive")
    if fixed is None or adaptive is None:
        pytest.skip("A/B pair incomplete — run the whole module")

    wall_speedup = fixed["wall_s"] / adaptive["wall_s"]
    if wall_speedup < MIN_WALL_SPEEDUP:
        # Single-shot walls are noisy; re-measure each mode once and take
        # the per-mode minimum before declaring the speedup lost.
        _, fixed_retry = run_endurance("fixed")
        _, adaptive_retry = run_endurance("adaptive")
        fixed["wall_s"] = min(fixed["wall_s"], fixed_retry)
        adaptive["wall_s"] = min(adaptive["wall_s"], adaptive_retry)
        wall_speedup = fixed["wall_s"] / adaptive["wall_s"]
    sync_ratio = (fixed["energy_syncs_total"]
                  / max(1, adaptive["energy_syncs_total"]))
    event_ratio = (fixed["events_processed"]
                   / max(1, adaptive["events_processed"]))

    emit(
        "E20 — power-endurance year, fixed vs adaptive bus (seed 100)",
        format_table(
            ["Measure", "fixed", "adaptive", "ratio"],
            [
                ("wall clock (s)",
                 f"{fixed['wall_s']:.2f}", f"{adaptive['wall_s']:.2f}",
                 f"{wall_speedup:.2f}x"),
                ("bus syncs",
                 fixed["energy_syncs_total"], adaptive["energy_syncs_total"],
                 f"{sync_ratio:.1f}x"),
                ("kernel events",
                 fixed["events_processed"], adaptive["events_processed"],
                 f"{event_ratio:.2f}x"),
            ],
        ),
    )

    assert wall_speedup >= MIN_WALL_SPEEDUP
    assert sync_ratio >= MIN_SYNC_RATIO
