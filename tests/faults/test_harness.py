"""FaultEngine / apply_fault_plan wiring and end-to-end replay determinism."""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.faults import (
    FaultPlan,
    FaultSpec,
    apply_fault_plan,
    build_mission,
    canonical_chaos_plan,
)
from repro.lint.determinism import check_determinism


def _short_plan() -> FaultPlan:
    day = 86400.0
    return FaultPlan(name="short", specs=[
        FaultSpec(kind="gprs-outage", station="base", at_s=0.25 * day,
                  duration_s=0.5 * day),
        FaultSpec(kind="rtc-reset", station="base", at_s=1.1 * day),
    ])


class TestApplyFaultPlan:
    def test_no_plan_anywhere_returns_none(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        assert apply_fault_plan(deployment) is None

    def test_dict_plan_is_armed(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        engine = apply_fault_plan(deployment, _short_plan().to_dict())
        assert engine is not None
        assert len(engine.resolved) == 2
        assert engine.checker is not None

    def test_invariant_checker_is_optional(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        engine = apply_fault_plan(deployment, _short_plan(),
                                  check_invariants=False)
        assert engine.plan.name == "short"
        assert engine.checker is None

    def test_unknown_station_rejected_at_arm_time(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        plan = FaultPlan(specs=[
            FaultSpec(kind="rtc-reset", station="nunatak", at_s=10.0)])
        with pytest.raises(ValueError, match="unknown station"):
            apply_fault_plan(deployment, plan)

    def test_probe_loss_on_station_without_links_rejected(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        plan = FaultPlan(specs=[
            FaultSpec(kind="probe-loss-spike", station="reference", at_s=0.0,
                      duration_s=3600.0)])
        with pytest.raises(ValueError, match="no probe links"):
            apply_fault_plan(deployment, plan)


class TestBuildMission:
    def test_overrides_split_between_base_station_and_config(self):
        deployment, engine = build_mission(
            3, {"solar_w": 5.0, "extra_stations": 1, "servers": 2})
        assert engine is None
        assert deployment.config.seed == 3
        assert deployment.config.base.solar_w == 5.0
        assert deployment.config.reference.solar_w == 10.0
        assert deployment.config.servers == 2
        assert len(deployment.stations) == 3

    def test_plan_armed_with_optional_checker(self):
        _, engine = build_mission(1, fault_plan=_short_plan())
        assert engine is not None and engine.checker is None
        _, engine = build_mission(1, fault_plan=_short_plan().to_dict(),
                                  check_invariants=True)
        assert engine.checker is not None

    def test_unknown_override_rejected_by_name(self):
        with pytest.raises(ValueError, match="'solar_kw'"):
            build_mission(0, {"solar_kw": 5.0})


class TestEndToEnd:
    def test_short_run_injects_and_recovers(self):
        deployment = Deployment(DeploymentConfig(seed=7))
        engine = apply_fault_plan(deployment, _short_plan())
        deployment.run_days(3.0)
        report = engine.finish()
        assert report.ok, report.format()
        assert len(report.outcomes) == 2
        kinds = {o.kind for o in report.outcomes}
        assert kinds == {"gprs-outage", "rtc-reset"}
        # The reset clock must have been restored within the run.
        rtc = next(o for o in report.outcomes if o.kind == "rtc-reset")
        assert rtc.result in ("clock_recovered", "recovery_failed_retry",
                              "implicit")

    def test_fault_records_in_trace_digest_stream(self):
        deployment = Deployment(DeploymentConfig(seed=7))
        apply_fault_plan(deployment, _short_plan(), check_invariants=False)
        deployment.run_days(2.0)
        faults = [r for r in deployment.sim.trace.records
                  if r.source == "faults"]
        assert any(r.kind == "fault_injected" for r in faults)
        assert any(r.kind == "fault_cleared" for r in faults)


class TestReplayDeterminism:
    def test_same_seed_same_plan_identical_digest(self):
        report = check_determinism(seed=5, days=2.0,
                                   fault_plan=_short_plan().to_dict())
        assert report.identical, report.summary()

    def test_plan_changes_the_digest(self):
        from repro.lint.determinism import run_mission
        digest_plain, _ = run_mission(seed=5, days=1.0)
        digest_faulted, _ = run_mission(seed=5, days=1.0,
                                        fault_plan=_short_plan().to_dict())
        assert digest_plain != digest_faulted

    def test_canonical_chaos_plan_covers_every_kind(self):
        from repro.faults.plan import FAULT_KINDS
        plan = canonical_chaos_plan()
        assert {s.kind for s in plan.specs} == set(FAULT_KINDS)
