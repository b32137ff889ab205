"""Deterministic fault injection for the deployment's field-failure paths.

The paper is a deployment-experience report: its contributions exist
because things broke on the glacier.  This package makes those breakages
*schedulable* — a declarative, seeded :class:`FaultPlan` injects GPRS
outages, probe-radio loss spikes, CF-card corruption, RTC resets/skews,
battery drain shocks and server outages into a live deployment, while an
:class:`InvariantChecker` asserts the recovery properties the paper
claims.  Same seed + same plan reproduces byte-identical traces.

Typical use::

    from repro.faults import build_mission, canonical_chaos_plan

    deployment, engine = build_mission(42, fault_plan=canonical_chaos_plan(),
                                       check_invariants=True)
    deployment.run_days(45)
    report = engine.finish()
    assert report.ok, report.format()
"""

from repro.faults.harness import FaultEngine, apply_fault_plan, build_mission
from repro.faults.invariants import (
    FaultOutcome,
    InvariantChecker,
    InvariantReport,
    Violation,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ResolvedFault,
    canonical_chaos_plan,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEngine",
    "FaultOutcome",
    "FaultPlan",
    "FaultSpec",
    "InvariantChecker",
    "InvariantReport",
    "ResolvedFault",
    "Violation",
    "apply_fault_plan",
    "build_mission",
    "canonical_chaos_plan",
]
