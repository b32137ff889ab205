"""The repository benchmark: one workload, measured from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload e20-year --seed 100 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it starts fresh untraced
processes one after another, each building the workload and running its
timed phase once, until ``--seconds`` have passed, and reports medians.
``--trace 1`` measures the per-layer metrics: cycles of one untraced, one
traced and (for missions) one observability-off run.

Every run's outputs are checked (:mod:`perfbench.workloads`); the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics
``BENCHMARK.json`` lists for the mode.  The exit code is 1 when any
check failed, and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import ledger, tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fewest runs a measurement takes, however short ``--seconds`` is.
MIN_RUNS = 3
#: A run never starts another process past this, whatever ``--seconds``.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 120.0
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def _spawn(cmd: list) -> tuple:
    """Run ``cmd`` with ``repro`` importable from ``src/``, and wait for it.

    The process gets a session of its own, so a timeout also stops the
    sweep's pool workers.  Returns ``(exit code, stdout, stderr)``; the
    code is None after a timeout.
    """
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "", f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    return proc.returncode, stdout, stderr


def _child(workload: str, seed: int, mode: str, work: str, tag: str,
           cache: str = None) -> dict:
    """Run one operation in a fresh process; its JSON result."""
    spans = os.path.join(work, f"spans-{tag}.bin")
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if cache is not None:
        cmd += ["--cache", cache]
    if mode == "traced":
        cmd += ["--spans", spans]
    code, stdout, stderr = _spawn(cmd + ["--t0", repr(time.monotonic())])
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {"mode": mode, "attempted": 1, "error": f"exit {code}: {tail}"}
    result = json.loads(lines[-1])
    if mode == "traced":
        log = tracer.load(spans)
        os.remove(spans)
        result["spans"] = ledger.span_metrics(log, result["layers"])
    return result


class Session:
    """One benchmark invocation: a work directory and its sweep cache."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        os.makedirs(WORK_DIR, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
        self.template = None
        self.runs = 0

    def prepare(self) -> None:
        """Fill the half-warm sweep cache once; every run gets a copy."""
        if WORKLOADS[self.workload].mission:
            return
        self.template = os.path.join(self.work, "warm-cache")
        code, _, stderr = _spawn([
            sys.executable, "-c",
            "import sys; from perfbench.workloads import prefill_sweep_cache;"
            f" prefill_sweep_cache({self.seed}, sys.argv[1])", self.template])
        if code != 0:
            raise RuntimeError(f"filling the sweep cache failed: {stderr.strip()}")

    def run(self, mode: str) -> dict:
        self.runs += 1
        tag = f"{mode}-{self.runs}"
        cache = None
        if self.template is not None:
            cache = os.path.join(self.work, f"cache-{tag}")
            shutil.copytree(self.template, cache)
        try:
            return _child(self.workload, self.seed, mode, self.work, tag, cache)
        finally:
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def measure(session: Session, seconds: float, trace: bool) -> dict:
    """Repeat runs (or traced cycles) until ``seconds`` have passed."""
    modes = ["plain"]
    if trace:
        modes += ["traced"] + (["obs-off"] if WORKLOADS[session.workload].mission else [])
    runs = {mode: [] for mode in modes}
    start = time.monotonic()
    cycles = 0
    while True:
        for mode in modes:
            runs[mode].append(session.run(mode))
        cycles += 1
        elapsed = time.monotonic() - start
        per_cycle = elapsed / cycles
        if elapsed + per_cycle > HARD_LIMIT_S:
            break
        if cycles >= (1 if trace else MIN_RUNS) and elapsed + per_cycle > seconds:
            break
    return runs


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's canonical seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names)


def run_workload(workload: str, seed, seconds: float, trace: bool) -> int:
    """Measure one workload and print its metrics; the exit code."""
    seed = seed if seed is not None else WORKLOADS[workload].default_seed
    spec = _benchmark_spec()

    session = Session(workload, seed)
    try:
        session.prepare()
        runs = measure(session, seconds, trace)
    finally:
        session.close()

    checked = runs["plain"] + runs.get("traced", [])
    attempted, failed, reasons = ledger.judge(checked)
    good_plain = [r for r in runs["plain"] if "error" not in r]
    good_traced = [r for r in runs.get("traced", []) if "error" not in r]
    print(f"perfbench {workload} seed={seed} trace={int(trace)} "
          f"runs={ {mode: len(rs) for mode, rs in runs.items()} }")
    for mode, results in runs.items():
        walls = " ".join(f"{r['wall_s']:.3f}" for r in results if "wall_s" in r)
        print(f"{mode} timed-phase walls (s): {walls}")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"ops_failed_share {_fmt(failed / attempted if attempted else 1.0)} ratio "
          f"({failed} of {attempted} operations)")

    if trace:
        wanted = spec["per_layer"]
        if good_plain and good_traced:
            values = ledger.per_layer(
                good_plain, good_traced, [r["spans"] for r in good_traced],
                [r for r in runs.get("obs-off", []) if "error" not in r])
        else:
            values = {}
        layers = good_traced[0]["layers"] if good_traced else []
        print("layer self time (sim includes the process bodies the kernel resumes):")
        for layer in ledger.layer_rows(layers):
            if f"{layer}.self_s" in values:
                print(f"  {layer:12s} {values[layer + '.self_s']:9.4f} s "
                      f"{values[layer + '.share']:7.2%}")
    else:
        wanted = spec["end_to_end"]
        values = ledger.end_to_end(good_plain)
        for name, value in sorted(good_plain[0]["counters"].items() if good_plain else ()):
            print(f"counter {name} {value:.0f}")

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        measured = name in values
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        note = "" if measured else "  (not measured on this workload)"
        print(f"{name} {_fmt(value)} {entry['unit']}{note}")
    for name in sorted(set(values) - {e["name"] for e in wanted}):
        if not name.endswith((".self_s", ".share")):
            print(f"{name} {_fmt(values[name])}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
