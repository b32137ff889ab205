"""Sweep runs/second: legacy per-job engine vs batched warm-worker engine.

A/B over the same 500-job campaign (125 configs x 4 seeds, one simulated
day each, ``--jobs 2``):

- **legacy** — the pre-executor engine kept as the test oracle
  :func:`tests.oracles.run_sweep_legacy`: one pool future per job, the
  full metrics snapshot shipped back over IPC per run, every cache
  read/write and rollup fold in the parent.
- **batched** — the chunked engine: warm workers take 64-job chunks, do
  their own cache I/O, and ship metric-stripped records plus one
  lossless partial rollup per chunk; warm-cache hits are loaded
  parent-side and never reach the pool.

What the engine rearchitecture changes is *structural* and pinned with
deterministic counter bounds in ``BENCH_sweep.json``: per-run IPC
payload falls >= 10x (7.2 MB -> 0.55 MB here) and parent-side fold
operations collapse from one per run to one per chunk (500 -> 8).  The
*wall-clock* cold arm is physics-bound on the single-CPU pinning host —
at one simulated day per run the simulator itself is >90% of the wall,
so the honest cold and warm claims are "never slower", gated with a
noise floor the same way ``test_throughput.py`` gates its E20 arm.  The
structural ratios are what turn into wall-clock wins once runs shrink
(million-run campaigns at minutes of simulated time) or workers
multiply (real multi-core hosts, shared-dir fleets) — see
``docs/performance.md`` section 5 for the scaling model.

Both cold arms must also produce byte-identical sweep JSON and rollup
bytes — the A/B doubles as a cross-engine equivalence check.  Run the
whole module; the gate test skips if any arm was deselected.
"""

import hashlib
import shutil
import time

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.fleet import (
    SweepCache,
    SweepSpec,
    expand_grid,
    run_sweep,
    sweep_to_json,
)
from tests.oracles import run_sweep_legacy

#: 125 configs x 4 seeds = 500 jobs, one simulated day each.
GRID = {"solar_w": [4, 6, 8, 10, 12],
        "wake_hour": [6, 7, 8, 9, 10],
        "comms_hour": [11, 12, 13, 14, 15]}
SEEDS = (0, 1, 2, 3)
DAYS = 1.0
JOBS = 2
#: Pinned (not adaptive) so the chunking — and with it the IPC payload
#: and fold counters — is deterministic: 500 jobs -> 8 chunks.
CHUNK_SIZE = 64
TOTAL_RUNS = 500

#: Wall gates (see module docstring): both regimes are parity gates with
#: a noise floor — the cold arm is simulator-bound on the 1-CPU pinning
#: host and the warm arms do identical per-hit work by design.
MIN_COLD_SPEEDUP = 0.9
MIN_WARM_SPEEDUP = 0.9
#: Structural gates, deterministic for the pinned spec and chunk size.
MIN_IPC_RATIO = 10.0
MIN_FOLD_RATIO = 10.0

ARMS = ("legacy", "batched")

#: ``(regime, arm) -> stats`` filled by the four arm tests below.
_RESULTS: dict = {}


def spec() -> SweepSpec:
    return SweepSpec(grid=expand_grid(GRID), seeds=list(SEEDS), days=DAYS)


def sweep_arm(arm: str, cache_root: str):
    cache = SweepCache(cache_root)
    if arm == "legacy":
        return run_sweep_legacy(spec(), jobs=JOBS, cache=cache)
    return run_sweep(spec(), jobs=JOBS, cache=cache, chunk_size=CHUNK_SIZE)


def run_arm(arm: str, cache_root: str):
    """One full sweep through ``arm``; returns ``(stats, wall_s)``."""
    start = time.perf_counter()
    result = sweep_arm(arm, cache_root)
    wall_s = time.perf_counter() - start
    assert len(result.runs) == TOTAL_RUNS
    stats = {
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "ipc_payload_bytes": result.ipc_payload_bytes,
        "parent_folds": result.parent_folds,
        "chunks_dispatched": result.chunks_dispatched,
        "sweep_sha": hashlib.sha256(
            sweep_to_json(result).encode()).hexdigest(),
        "rollup_sha": hashlib.sha256(
            result.rollup.to_json().encode()).hexdigest(),
    }
    return stats, wall_s


@pytest.fixture(scope="module")
def caches(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep-bench")
    return {arm: str(base / arm) for arm in ARMS}


def _measure(benchmark, regime: str, arm: str, cache_root: str):
    stats, wall_s = run_once(benchmark, run_arm, arm, cache_root)
    stats["wall_s"] = wall_s
    stats["runs_per_s"] = TOTAL_RUNS / wall_s
    stats["cache_root"] = cache_root
    for key in ("ipc_payload_bytes", "parent_folds", "chunks_dispatched",
                "cache_hits", "cache_misses"):
        benchmark.extra_info[key] = stats[key]
    _RESULTS[(regime, arm)] = stats
    return stats


def test_sweep_cold_legacy(benchmark, caches):
    stats = _measure(benchmark, "cold", "legacy", caches["legacy"])
    assert stats["cache_misses"] == TOTAL_RUNS
    # One parent-side fold per run: the O(runs) bottleneck under test.
    assert stats["parent_folds"] == TOTAL_RUNS


def test_sweep_cold_batched(benchmark, caches):
    stats = _measure(benchmark, "cold", "batched", caches["batched"])
    assert stats["cache_misses"] == TOTAL_RUNS
    # One partial merge per chunk, not one fold per run.
    assert stats["chunks_dispatched"] == -(-TOTAL_RUNS // CHUNK_SIZE)
    assert stats["parent_folds"] == stats["chunks_dispatched"]


def test_sweep_warm_legacy(benchmark, caches):
    stats = _measure(benchmark, "warm", "legacy", caches["legacy"])
    assert stats["cache_hits"] == TOTAL_RUNS


def test_sweep_warm_batched(benchmark, caches):
    stats = _measure(benchmark, "warm", "batched", caches["batched"])
    assert stats["cache_hits"] == TOTAL_RUNS
    # Warm hits are parent-side loads; the pool never opens.
    assert stats["chunks_dispatched"] == 0


def _speedup(regime: str) -> float:
    legacy = _RESULTS[(regime, "legacy")]
    batched = _RESULTS[(regime, "batched")]
    return batched["runs_per_s"] / legacy["runs_per_s"]


def _retry(regime: str) -> None:
    """Single-shot walls are noisy; re-measure both arms, keep the min."""
    for arm in ARMS:
        stats = _RESULTS[(regime, arm)]
        if regime == "cold":
            shutil.rmtree(stats["cache_root"], ignore_errors=True)
        _, wall_retry = run_arm(arm, stats["cache_root"])
        stats["wall_s"] = min(stats["wall_s"], wall_retry)
        stats["runs_per_s"] = TOTAL_RUNS / stats["wall_s"]


def test_sweep_scale_gates(emit):
    needed = [(r, a) for r in ("cold", "warm") for a in ARMS]
    if any(key not in _RESULTS for key in needed):
        pytest.skip("A/B arms incomplete — run the whole module")

    # Cross-engine byte-identity: both cold arms computed the same sweep.
    cold_legacy = _RESULTS[("cold", "legacy")]
    cold_batched = _RESULTS[("cold", "batched")]
    assert cold_batched["sweep_sha"] == cold_legacy["sweep_sha"]
    assert cold_batched["rollup_sha"] == cold_legacy["rollup_sha"]
    for regime in ("cold", "warm"):
        for arm in ARMS:
            assert _RESULTS[(regime, arm)]["sweep_sha"] == cold_legacy["sweep_sha"]

    if _speedup("cold") < MIN_COLD_SPEEDUP:
        _retry("cold")
    if _speedup("warm") < MIN_WARM_SPEEDUP:
        _retry("warm")

    ipc_ratio = (cold_legacy["ipc_payload_bytes"]
                 / cold_batched["ipc_payload_bytes"])
    fold_ratio = cold_legacy["parent_folds"] / cold_batched["parent_folds"]
    rows = [
        ("cold: runs/s", f"{cold_legacy['runs_per_s']:.0f}",
         f"{cold_batched['runs_per_s']:.0f}", f"{_speedup('cold'):.2f}x"),
        ("warm: runs/s", f"{_RESULTS[('warm', 'legacy')]['runs_per_s']:.0f}",
         f"{_RESULTS[('warm', 'batched')]['runs_per_s']:.0f}",
         f"{_speedup('warm'):.2f}x"),
        ("cold: IPC payload bytes", cold_legacy["ipc_payload_bytes"],
         cold_batched["ipc_payload_bytes"], f"{ipc_ratio:.1f}x"),
        ("cold: parent folds", cold_legacy["parent_folds"],
         cold_batched["parent_folds"], f"{fold_ratio:.1f}x"),
    ]
    emit(
        "Sweep scale-out — legacy (per-job futures) vs batched (chunked warm workers)",
        format_table(["Measure", "legacy", "batched", "ratio"], rows),
    )

    assert ipc_ratio >= MIN_IPC_RATIO
    assert fold_ratio >= MIN_FOLD_RATIO
    assert _speedup("cold") >= MIN_COLD_SPEEDUP
    assert _speedup("warm") >= MIN_WARM_SPEEDUP
