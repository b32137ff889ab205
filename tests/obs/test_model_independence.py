"""Observability is an output: switching it off changes nothing simulated.

The model outcome — every archived upload (server, station, file, bytes),
each station's final state of charge and the kernel's event count — must
be identical with the trace, the trace-to-metrics bridge and the
provenance ledger each on or off.  The daily logfile is the coupling this
guards: stations size it from their log meters, which run whether or not
the trace records anything.
"""

import functools
import itertools
import json
from pathlib import Path

import pytest

from repro.faults import build_mission
from repro.obs import Observability

CHAOS_PLAN = (Path(__file__).resolve().parents[2]
              / "examples" / "faults" / "canonical_chaos.json")

MISSIONS = {
    "default": dict(seed=0, days=2.0),
    "chaos": dict(seed=42, days=45.0, plan=True),
}

SWITCHES = list(itertools.product((True, False), repeat=3))


def switch_observability(deployment, *, trace, bridge, provenance):
    """Rebuild the deployment's hub with the given parts, before the run."""
    sim = deployment.sim
    old = sim.obs
    sim.trace.unsubscribe(old._on_trace_record)
    if old.provenance is not None:
        old.provenance.detach()
    hub = Observability(clock=sim.clock, trace_bridge=bridge, provenance=provenance)
    hub.attach_trace(sim.trace)
    sim.obs = hub
    sim.trace.enabled = trace


@functools.lru_cache(maxsize=None)
def model_outcome(mission, trace, bridge, provenance):
    spec = MISSIONS[mission]
    plan = json.loads(CHAOS_PLAN.read_text()) if spec.get("plan") else None
    deployment, _ = build_mission(spec["seed"], fault_plan=plan)
    switch_observability(deployment, trace=trace, bridge=bridge,
                         provenance=provenance)
    deployment.run_days(spec["days"])
    servers = (deployment.fleet.shards if deployment.fleet is not None
               else [deployment.server])
    uploads = [(server.name, upload.station, upload.name, upload.nbytes)
               for server in servers for upload in server.uploads]
    soc = tuple((station.name, station.bus.battery.soc)
                for station in deployment.stations)
    return uploads, soc, deployment.sim.events_processed


@pytest.mark.parametrize("trace,bridge,provenance", SWITCHES)
@pytest.mark.parametrize("mission", sorted(MISSIONS))
def test_model_outcome_ignores_observability(mission, trace, bridge, provenance):
    reference = model_outcome(mission, True, True, True)
    assert reference[0], "the mission archived nothing"
    assert model_outcome(mission, trace, bridge, provenance) == reference
