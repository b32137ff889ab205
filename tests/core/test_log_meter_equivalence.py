"""The daily log's meter against its oracle, the windowed trace query.

Every station's :class:`~repro.sim.trace.LogMeter` is paired with a
:class:`~tests.oracles.WindowedLogSizer` over the same trace; each staged
``logs`` file must carry exactly the byte count the query gives for its
window, on the default mission, the canonical chaos plan and a sharded
fleet, under both tie policies.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.faults import build_mission
from tests.oracles import WindowedLogSizer

CHAOS_PLAN = (Path(__file__).resolve().parents[2]
              / "examples" / "faults" / "canonical_chaos.json")

MISSIONS = {
    "default": dict(seed=0, days=0.5),
    "chaos": dict(seed=42, days=45.0, plan=True),
    "fleet-20x2": dict(seed=5, days=3.0,
                       overrides={"extra_stations": 18, "servers": 2,
                                  "server_policy": "hop"}),
}


class PairedMeter:
    """Returns the shipping meter's count and records the oracle's beside it."""

    def __init__(self, meter, oracle, takes):
        self.meter = meter
        self.oracle = oracle
        self.takes = takes

    def take(self, now):
        got = self.meter.take(now)
        self.takes.append((self.meter.source, now, got, self.oracle.take(now)))
        return got


@pytest.mark.parametrize("tie_break", ["fifo", "shuffle:1"])
@pytest.mark.parametrize("mission", sorted(MISSIONS))
def test_every_staged_log_matches_the_windowed_query(mission, tie_break):
    spec = MISSIONS[mission]
    plan = json.loads(CHAOS_PLAN.read_text()) if spec.get("plan") else None
    deployment, _ = build_mission(
        spec["seed"], {**spec.get("overrides", {}), "tie_break": tie_break},
        fault_plan=plan)
    trace = deployment.sim.trace
    takes = []
    for station in deployment.stations:
        station._log_meter = PairedMeter(
            station._log_meter, WindowedLogSizer(trace, station.name), takes)
    deployment.run_days(spec["days"])

    staged = Counter(record.detail["station"]
                     for record in trace.iter_select(source="prov", kind="queued")
                     if record.detail["file_kind"] == "logs")
    assert staged, "the mission staged no daily logs"
    assert Counter(source for source, *_ in takes) == staged
    mismatched = [take for take in takes if take[2] != take[3]]
    assert mismatched == []
    assert any(take[2] > 0 for take in takes)
