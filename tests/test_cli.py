"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.lint.determinism import main as determinism_main


def run_entry(command):
    """Run ``repro-sim <command>``, or another entry point given first."""
    if callable(command[0]):
        return command[0](command[1:])
    return main(command)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.days == 7.0
        assert args.seed == 0
        assert args.override is None

    def test_override_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--override", "5"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["science", "--days", "3", "--seed", "9", "--no-wind", "--solar-w", "4"]
        )
        assert args.days == 3.0 and args.seed == 9
        assert args.no_wind and args.solar_w == 4.0


class TestCommands:
    def test_simulate_prints_summary(self, capsys):
        assert main(["simulate", "--days", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "reference" in out
        assert "Delivered (MB)" in out
        assert "Probes alive" in out

    def test_simulate_with_override(self, capsys):
        assert main(["simulate", "--days", "2", "--override", "1"]) == 0
        out = capsys.readouterr().out
        assert "State" in out

    def test_science_prints_velocity(self, capsys):
        assert main(["science", "--days", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Ice velocity" in out
        assert "Differential solution fraction" in out

    def test_health_prints_indicators(self, capsys):
        assert main(["health", "--days", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Battery declining" in out
        assert "Burial risk" in out

    def test_no_wind_variant_runs(self, capsys):
        assert main(["simulate", "--days", "2", "--no-wind", "--solar-w", "3"]) == 0


class TestObservabilityCli:
    def test_metrics_prints_prometheus_dump(self, capsys):
        assert main(["metrics", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE battery_soc gauge" in out
        assert "# TYPE kernel_events_processed gauge" in out
        assert "gprs_upload_bytes_total" in out
        assert 'daily_runs_total{station="base"}' in out

    def test_metrics_out_writes_prometheus_or_json(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        blob = tmp_path / "metrics.json"
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--metrics-out", str(prom)]) == 0
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--metrics-out", str(blob)]) == 0
        capsys.readouterr()
        assert "# TYPE" in prom.read_text()
        import json
        assert json.loads(blob.read_text())["version"] == 1

    def test_spans_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "spans.json"
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--spans-out", str(out)]) == 0
        capsys.readouterr()
        import json
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "M" for e in doc["traceEvents"])

    def test_spans_out_ndjson(self, tmp_path, capsys):
        out = tmp_path / "spans.ndjson"
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--spans-out", str(out)]) == 0
        capsys.readouterr()
        import json
        lines = out.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

    def test_same_seed_exports_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.prom", tmp_path / "b.prom"]
        for path in paths:
            assert main(["simulate", "--days", "1", "--seed", "42",
                         "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_self_profile_reports_to_stderr(self, capsys):
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--self-profile"]) == 0
        err = capsys.readouterr().err
        assert "events" in err or "wall" in err.lower()

    def test_report_has_observability_section(self, capsys):
        assert main(["report", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Observability" in out
        assert "Span totals" in out


class TestFaultCli:
    @staticmethod
    def write_plan(tmp_path, at_s=3600.0):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"name": "cli", "faults": [
            {"kind": "rtc-reset", "station": "base", "at_s": at_s}]}))
        return str(path)

    def test_inject_defaults_to_45_day_chaos(self):
        args = build_parser().parse_args(["inject"])
        assert args.days == 45.0
        assert args.faults is None

    def test_inject_with_plan_exits_on_verdict(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        assert main(["inject", "--days", "2", "--seed", "4",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "invariants: OK" in out
        assert "rtc-reset" in out

    def test_inject_report_out(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        report = tmp_path / "report.txt"
        assert main(["inject", "--days", "2", "--seed", "4", "--faults", plan,
                     "--report-out", str(report)]) == 0
        capsys.readouterr()
        assert "invariants: OK" in report.read_text()

    def test_simulate_accepts_faults_flag(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        assert main(["simulate", "--days", "2", "--seed", "4",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "base" in out

    def test_faulted_metrics_include_injection_counters(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        assert main(["metrics", "--days", "2", "--seed", "4",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "faults_injected_total" in out

    def test_sweep_fault_grid(self, tmp_path, capsys):
        import json

        plan = self.write_plan(tmp_path)
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "--days", "1", "--seeds", "0", "--no-cache",
                     "--faults", plan, "--faults", "none",
                     "--output", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert len(payload["runs"]) == 2
        with_plan = [r for r in payload["runs"] if "fault_plan" in r]
        assert len(with_plan) == 1
        assert with_plan[0]["result"]["faults"]["injected"] == 1


class TestCliErrors:
    """S2: bad formats and unwritable paths exit non-zero with a clear
    message, never a traceback."""

    def test_unknown_metrics_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--days", "1", "--format", "xml"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_unknown_export_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "--days", "1", "--format", "yaml"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unwritable_metrics_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "metrics.prom"
        code = main(["simulate", "--days", "1", "--seed", "0",
                     "--metrics-out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write" in captured.err and str(target) in captured.err

    def test_unwritable_spans_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "spans.json"
        code = main(["simulate", "--days", "1", "--seed", "0",
                     "--spans-out", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_sweep_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.json"
        code = main(["sweep", "--days", "1", "--seeds", "0", "--no-cache",
                     "--output", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_races_output_exits_2(self, tmp_path, capsys):
        # Exit 1 means "race found"; a bad output path must not read as one.
        target = tmp_path / "missing" / "races.txt"
        code = main(["races", "--days", "0.1", "--seed", "0",
                     "--paths", str(tmp_path), "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write" in captured.err and str(target) in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["simulate", "--days", "1"],
        ["inject", "--days", "1"],
        ["races", "--days", "0.1"],
        ["sweep", "--days", "1", "--no-cache"],
        [determinism_main, "--days", "0.1"],
    ])
    def test_missing_fault_plan_is_clean_error(self, tmp_path, capsys, command):
        missing = tmp_path / "no_such_plan.json"
        with pytest.raises(SystemExit) as excinfo:
            run_entry(command + ["--faults", str(missing)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: cannot load fault plan: ")
        assert str(missing) in err

    @pytest.mark.parametrize("command", [
        ["inject", "--days", "1"],
        ["sweep", "--days", "1", "--no-cache"],
        [determinism_main, "--days", "0.1"],
    ])
    def test_malformed_fault_plan_is_clean_error(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        plan.write_text('{"name": "broken", "faults": [')
        with pytest.raises(SystemExit) as excinfo:
            run_entry(command + ["--faults", str(plan)])
        assert excinfo.value.code == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_sweep_missing_alert_rules_is_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--days", "1", "--no-cache",
                  "--alerts", str(tmp_path / "no_rules.json")])
        assert excinfo.value.code == 2
        assert "cannot load alert rules" in capsys.readouterr().err

    def test_stations_floor_shares_one_message(self):
        for command in (["simulate", "--days", "1"], ["sweep", "--days", "1"],
                        [determinism_main, "--days", "0.1"]):
            with pytest.raises(SystemExit) as excinfo:
                run_entry(command + ["--stations", "1"])
            assert str(excinfo.value) == (
                "repro-sim: --stations must be >= 2 (base + reference)")

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"), ("--jobs", "-1"),
        ("--chunk-size", "0"), ("--chunk-size", "-2"),
    ])
    def test_sweep_non_positive_counts_exit_2(self, tmp_path, capsys,
                                              monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        for place in ([], ["--work-dir", str(tmp_path / "wd")]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--days", "0.25", *place, flag, value])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: must be >= 1, got {value}" in err
            assert "Traceback" not in err
        assert not (tmp_path / "wd").exists()

    def test_retired_mode_flags_rejected(self, capsys):
        for command, flag, value in (("simulate", "--energy-mode", "fixed"),
                                     ("simulate", "--comms-mode", "chunked"),
                                     ("simulate", "--energy-step-s", "60"),
                                     ("sweep", "--backend", "shared-dir")):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--days", "1", flag, value])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_alert_rules_file_is_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--days", "1",
                  "--alerts", "/no/such/rules.json"])
        assert "cannot load alert rules" in str(excinfo.value)

    def test_malformed_alert_rules_is_clean_error(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text('{"rules": [{"name": "x", "type": "bogus"}]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--days", "1", "--alerts", str(rules)])
        assert "unknown type" in str(excinfo.value)


class TestRacesCli:
    def test_replay_alone_exits_zero_on_robust_mission(self, capsys):
        assert main(["races", "--days", "0.25", "--paths",
                     "--policies", "fifo,lifo"]) == 0
        out = capsys.readouterr().out
        assert "static race rules: 0 finding(s)" in out
        assert "tie replay OK" in out

    def test_batched_sync_reaches_the_replayed_mission(self, monkeypatch,
                                                       capsys):
        from repro.core.deployment import Deployment

        configs = []
        init = Deployment.__init__

        def spy(self, config=None):
            configs.append(config)
            init(self, config)

        monkeypatch.setattr(Deployment, "__init__", spy)
        assert main(["races", "--days", "0.05", "--paths",
                     "--policies", "fifo,lifo", "--batched-sync"]) == 0
        capsys.readouterr()
        assert len(configs) == 2
        assert all(config.base.batched_sync for config in configs)


class TestOneConvention:
    def test_simulate_and_sweep_job_give_one_metric_snapshot(self, tmp_path,
                                                             capsys):
        """The CLI flags and the sweep's overrides name the same mission."""
        from repro.fleet import SweepSpec
        from repro.fleet.runner import run_job
        from repro.obs.export import metrics_to_json
        from repro.obs.metrics import MetricsRegistry

        out = tmp_path / "m.json"
        assert main(["simulate", "--seed", "3", "--days", "1",
                     "--solar-w", "5", "--stations", "3",
                     "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        (job,) = SweepSpec(grid=[{"solar_w": 5.0, "extra_stations": 1}],
                           seeds=[3], days=1.0).jobs()
        snapshot = run_job(job)["metrics"]
        assert out.read_text() == metrics_to_json(
            MetricsRegistry.from_snapshot(snapshot))


class TestMetricsFormat:
    def test_metrics_json_format(self, capsys):
        import json

        assert main(["metrics", "--days", "1", "--seed", "0",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert any(m["name"] == "battery_soc" for m in doc["metrics"])


class TestProvenanceCli:
    def test_inject_prints_conservation_line(self, capsys):
        assert main(["inject", "--days", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "conservation: OK" in out
        assert "created=" in out and "archived=" in out

    def test_report_has_provenance_section(self, capsys):
        assert main(["report", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Data provenance" in out
        assert "conservation: OK" in out

    def test_metrics_dump_carries_provenance_families(self, capsys):
        assert main(["metrics", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "provenance_edges_total" in out
        assert "provenance_conserved 1" in out


class TestAlertsCli:
    @staticmethod
    def write_rules(tmp_path, value=1e9):
        import json

        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "soc-floor", "type": "threshold",
             "signal": {"source": "base", "kind": "local_state",
                        "field": "voltage"},
             "op": "<", "value": value},
        ]}))
        return str(path)

    def test_quiet_rules_print_ok(self, tmp_path, capsys):
        rules = self.write_rules(tmp_path, value=0.0)  # never fires
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--alerts", rules]) == 0
        out = capsys.readouterr().out
        assert "alerts: OK (1 rules, none fired)" in out

    def test_firing_rules_are_listed(self, tmp_path, capsys):
        rules = self.write_rules(tmp_path, value=1e9)  # always fires
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--alerts", rules]) == 0
        out = capsys.readouterr().out
        assert "[soc-floor]" in out

    def test_report_gains_alerts_section(self, tmp_path, capsys):
        rules = self.write_rules(tmp_path, value=0.0)
        assert main(["report", "--days", "1", "--seed", "0",
                     "--alerts", rules]) == 0
        out = capsys.readouterr().out
        assert "Alerts\n" in out

    def test_shipped_slo_rules_run_clean_mission(self, capsys):
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--alerts", "examples/alerts/mission_slo.json"]) == 0
        out = capsys.readouterr().out
        assert "alerts:" in out


class TestRollupCli:
    def sweep(self, tmp_path, capsys, name, seeds):
        out = tmp_path / f"{name}.json"
        rollup = tmp_path / f"{name}_rollup.json"
        assert main(["sweep", "--days", "1", "--seeds", seeds, "--no-cache",
                     "--output", str(out), "--rollup-out", str(rollup)]) == 0
        capsys.readouterr()
        return rollup

    def test_sweep_rollup_out_and_merge_identity(self, tmp_path, capsys):
        import json

        shard_a = self.sweep(tmp_path, capsys, "a", "0")
        shard_b = self.sweep(tmp_path, capsys, "b", "1")
        combined = self.sweep(tmp_path, capsys, "ab", "0,1")
        merged_path = tmp_path / "merged.json"
        assert main(["rollup", str(shard_a), str(shard_b),
                     "--output", str(merged_path)]) == 0
        assert merged_path.read_text() == combined.read_text()
        doc = json.loads(merged_path.read_text())
        assert doc["runs"] == 2

    def test_rollup_table_renders(self, tmp_path, capsys):
        shard = self.sweep(tmp_path, capsys, "t", "0")
        assert main(["rollup", str(shard), "--table"]) == 0
        out = capsys.readouterr().out
        assert "Campaign rollup: 1 run(s)" in out
        assert "Counters (summed across runs)" in out

    def test_overlapping_shards_exit_1(self, tmp_path, capsys):
        shard = self.sweep(tmp_path, capsys, "dup", "0")
        assert main(["rollup", str(shard), str(shard)]) == 1
        assert "overlap" in capsys.readouterr().err

    def test_unreadable_shard_exits_2(self, tmp_path, capsys):
        assert main(["rollup", str(tmp_path / "nope.json")]) == 2
        assert "cannot read rollup shard" in capsys.readouterr().err


class TestSweepWorkDirCli:
    SWEEP = ["sweep", "--days", "0.25", "--seeds", "0,1",
             "--param", "solar_w=5,10"]

    def test_work_dir_alone_selects_the_work_dir_engine(self, tmp_path,
                                                        capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        work_dir = tmp_path / "wd"
        ref, out = tmp_path / "ref.json", tmp_path / "out.json"
        assert main(self.SWEEP + ["--no-cache", "--output", str(ref)]) == 0
        assert main(self.SWEEP + ["--work-dir", str(work_dir),
                                  "--output", str(out)]) == 0
        assert (work_dir / "manifest.json").is_file()
        assert out.read_text() == ref.read_text()
        assert not (tmp_path / ".repro-sweep-cache").exists()

        stale = work_dir / "cache" / "bb" / ("b" * 64 + ".json")
        stale.parent.mkdir(exist_ok=True)
        stale.write_text(json.dumps({"v": "0.0.0-old", "summary": {}}))
        capsys.readouterr()
        assert main(["sweep", "--cache-gc", "--work-dir", str(work_dir)]) == 0
        err = capsys.readouterr().err
        assert "removed 1 stale entry" in err
        assert "kept 4 current entries" in err
        assert not stale.exists()
