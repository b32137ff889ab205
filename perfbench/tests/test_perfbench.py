"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ledger, tracer
from perfbench.run import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

#: Packages of the layer map no workload calls into: the lint rules the
#: tracer reads the map from, the CLI and the report renderers.
NOT_CALLED = {"lint", "cli", "analysis"}


def _log(spans):
    """A span log from ``(name, layer, parent, start, end)`` tuples."""
    log = tracer.SpanLog()
    for name, layer, parent, start, end in spans:
        log.name.append(log.intern(name, layer))
        log.parent.append(parent)
        log.start.append(start)
        log.end.append(end)
    return log


def test_self_time_of_nested_spans():
    log = _log([
        ("bench:root", "bench", -1, 0.0, 10.0),
        ("energy:a", "energy", 0, 1.0, 4.0),
        ("obs:b", "obs", 1, 2.0, 3.0),
        ("obs:c", "obs", 0, 5.0, 9.0),
        ("sim:d", "sim", 3, 5.5, 6.0),
    ])
    assert tracer.self_times(log.parent, log.start, log.end) == [3.0, 2.0, 1.0, 3.5, 0.5]
    assert tracer.layer_self_times(log) == {"bench": 3.0, "energy": 2.0,
                                            "obs": 4.5, "sim": 0.5}


def test_wrapped_calls_nest_and_skip_same_layer_calls():
    log = tracer.SpanLog()

    def leaf():
        return "leaf"

    inner = log.wrap(leaf, "obs", "obs:leaf")

    def middle():
        return inner(), same()

    same = log.wrap(lambda: "same", "energy", "energy:same")
    outer = log.wrap(middle, "energy", "energy:middle")
    root = log.open("bench:root", "bench")
    assert outer() == ("leaf", "same")
    log.close(root)
    names = [log.names[nid] for nid in log.name]
    assert names == ["bench:root", "energy:middle", "obs:leaf"]
    assert list(log.parent) == [-1, 0, 1]


def test_span_log_round_trips_through_a_file(tmp_path):
    log = _log([("bench:root", "bench", -1, 0.0, 2.0),
                ("sim:x", "sim", 0, 0.5, 1.5)])
    path = str(tmp_path / "spans.bin")
    log.dump(path)
    back = tracer.load(path)
    assert back.names == log.names and back.name_layer == log.name_layer
    assert list(back.parent) == [-1, 0]
    assert list(back.end) == [2.0, 1.5]


def test_window_size_bisects_time_ordered_records():
    class Record:
        def __init__(self, time):
            self.time = time

    records = [Record(t) for t in (0.0, 1.0, 1.0, 2.0, 5.0)]
    assert tracer.window_size(records, 1.0, 2.0) == 2
    assert tracer.window_size(records, None, None) == 5
    assert tracer.window_size(records, 3.0, None) == 1


def _result(digest="d", counters=None, checks=None, attempted=1):
    return {"mode": "plain", "attempted": attempted, "digest": digest,
            "counters": counters or {"sim.events": 10.0},
            "checks": checks or {"ok": True}}


def test_altered_digest_makes_failed_share_non_zero():
    results = [_result(), _result(), _result(digest="altered")]
    attempted, failed, reasons = ledger.judge(results)
    assert (attempted, failed) == (3, 1)
    assert "digest" in reasons[0]
    assert ledger.judge([_result(), _result()])[1] == 0


def test_counter_mismatch_failed_check_and_crash_fail_their_operations():
    results = [_result(attempted=64), _result(attempted=64),
               _result(attempted=64, counters={"sim.events": 11.0}),
               _result(attempted=64, checks={"ok": False}),
               {"mode": "plain", "attempted": 1, "error": "exit 1: boom"}]
    attempted, failed, _ = ledger.judge(results)
    assert (attempted, failed) == (257, 129)


@pytest.fixture(scope="module")
def traced_chaos(tmp_path_factory):
    """One traced mission-chaos run through the benchmark's child process."""
    spans = str(tmp_path_factory.mktemp("spans") / "chaos.bin")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", "--workload", "mission-chaos",
         "--seed", "42", "--mode", "traced", "--spans", spans],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, tracer.load(spans)


def test_layer_self_times_add_up_to_the_traced_wall(traced_chaos):
    result, log = traced_chaos
    values = ledger.span_metrics(log, result["layers"])
    wall = values["bench.traced_wall_s"]
    rows = ledger.layer_rows(result["layers"])
    assert sum(values[f"{row}.self_s"] for row in rows) == pytest.approx(wall, rel=1e-9)
    assert sum(values[f"{row}.share"] for row in rows) == pytest.approx(1.0)
    assert wall == pytest.approx(result["wall_s"], rel=0.05)
    assert all(result["checks"].values())


def test_every_called_layer_gets_a_row(traced_chaos):
    result, log = traced_chaos
    from repro.lint.rules import LayeringRule

    assert result["layers"] == sorted(LayeringRule.LAYERS)
    values = ledger.span_metrics(log, result["layers"])
    called = set(LayeringRule.LAYERS) - NOT_CALLED - {"fleet"}
    for layer in called | {"sim.trace"}:
        assert values[f"{layer}.self_s"] > 0.0, layer
    listed = {entry["name"] for entry in SPEC["per_layer"]}
    for layer in set(LayeringRule.LAYERS) - NOT_CALLED | {"sim.trace"}:
        assert {f"{layer}.self_s", f"{layer}.share"} <= listed, layer


def test_a_traced_mission_yields_every_listed_per_layer_metric(traced_chaos):
    result, log = traced_chaos
    spans = ledger.span_metrics(log, result["layers"])
    values = ledger.per_layer([result], [result], [spans], [result])
    assert not {entry["name"] for entry in SPEC["per_layer"]} - set(values)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e20-year",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
