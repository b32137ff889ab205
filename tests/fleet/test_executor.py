"""Executor unit tests: chunks, adaptive sizing, the one chunk loop."""

from concurrent.futures import Future

import pytest

from repro.fleet import SweepCache, SweepSpec, expand_grid
from repro.fleet.executor import (
    CHUNK_MAX,
    CHUNK_MIN,
    ChunkSizer,
    iter_chunks,
    run_chunk,
    run_chunks,
)


def small_jobs(days=0.25, seeds=(0, 1)):
    spec = SweepSpec(grid=expand_grid({"solar_w": [5.0, 10.0]}),
                     seeds=list(seeds), days=days)
    return spec.jobs()


class TestRunChunk:
    def test_cold_chunk_computes_stores_and_ships_partial(self, tmp_path):
        jobs = small_jobs()
        out = run_chunk(jobs, str(tmp_path))
        assert out["misses"] == len(jobs)
        assert out["hits"] == 0
        assert len(out["records"]) == len(jobs)
        assert out["payload_bytes"] > 0
        assert out["wall_s"] > 0.0
        # Records are metric-stripped; the partial carries one fold key
        # per job instead.
        for record in out["records"]:
            assert "metrics" not in record["result"]
        assert len(out["rollup"]["keys"]) == len(jobs)
        cache = SweepCache(str(tmp_path))
        for job in jobs:
            assert cache.contains(job.digest)

    def test_warm_chunk_hits_worker_side(self, tmp_path):
        jobs = small_jobs()
        cold = run_chunk(jobs, str(tmp_path))
        warm = run_chunk(jobs, str(tmp_path))
        assert warm["hits"] == len(jobs)
        assert warm["misses"] == 0
        assert warm["records"] == cold["records"]
        assert warm["rollup"] == cold["rollup"]

    def test_no_cache_root_still_runs(self):
        jobs = small_jobs(seeds=(0,))
        out = run_chunk(jobs, None)
        assert out["misses"] == len(jobs)
        assert len(out["records"]) == len(jobs)

    def test_collect_rollup_off_ships_no_partial(self, tmp_path):
        jobs = small_jobs(seeds=(0,))
        out = run_chunk(jobs, str(tmp_path), collect_rollup=False)
        assert out["rollup"] is None
        # The cache entry still retains the snapshot for later folding.
        assert "metrics" in SweepCache(str(tmp_path)).load(jobs[0].digest)


class TestChunkSizer:
    def test_fixed_size_is_pinned(self):
        sizer = ChunkSizer(fixed=7)
        assert sizer.size() == 7
        sizer.observe(7, 100.0)
        assert sizer.size() == 7

    def test_fixed_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            ChunkSizer(fixed=0)

    def test_adaptive_starts_at_min(self):
        assert ChunkSizer().size() == CHUNK_MIN

    def test_adaptive_targets_wall_time(self):
        sizer = ChunkSizer()
        sizer.observe(1, 0.01)  # 10 ms/run -> 50 runs/chunk
        assert sizer.size() == 50

    def test_adaptive_clamps_both_ends(self):
        fast = ChunkSizer()
        fast.observe(1000, 0.000001)
        assert fast.size() == CHUNK_MAX
        slow = ChunkSizer()
        slow.observe(1, 60.0)
        assert slow.size() == CHUNK_MIN

    def test_zero_runs_observation_ignored(self):
        sizer = ChunkSizer()
        sizer.observe(0, 1.0)
        assert sizer.size() == CHUNK_MIN


class TestIterChunks:
    def test_cuts_at_size_decided_per_chunk(self):
        chunks = list(iter_chunks(range(7), ChunkSizer(fixed=3)))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [x for c in chunks for x in c] == list(range(7))

    def test_empty_stream(self):
        assert list(iter_chunks([], ChunkSizer())) == []


class FakePool:
    """Synchronous stand-in for ProcessPoolExecutor.

    Completes every chunk instantly with a stub result whose ``wall_s``
    pretends each run took ``per_run_s``, so adaptive sizing can be
    exercised without real subprocesses.
    """

    def __init__(self, max_workers, initializer=None, per_run_s=0.0):
        self.max_workers = max_workers
        self.per_run_s = per_run_s
        self.submitted_sizes = []

    def submit(self, fn, chunk, cache_root, collect_rollup):
        self.submitted_sizes.append(len(chunk))
        future = Future()
        future.set_result({
            "records": [{"job": i} for i in range(len(chunk))],
            "rollup": None,
            "hits": 0,
            "misses": len(chunk),
            "wall_s": self.per_run_s * len(chunk),
            "payload_bytes": 1,
        })
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def fixed_chunks(items, size):
    return iter_chunks(items, ChunkSizer(fixed=size))


class TestRunChunks:
    def test_window_bounds_submissions_and_job_pulls(self):
        total = 100
        window = 4  # 2 * workers
        pool = FakePool(2)
        pulled = 0

        def jobs():
            nonlocal pulled
            for i in range(total):
                pulled += 1
                yield i

        submitted_at_absorb = []

        def absorb(out):
            submitted_at_absorb.append(len(pool.submitted_sizes))

        run_chunks(fixed_chunks(jobs(), 1), workers=2, cache_root=None,
                   absorb=absorb, pool_factory=lambda **kw: pool)
        assert sum(pool.submitted_sizes) == total
        # When the (i+1)-th chunk is absorbed at most window + i chunks
        # can ever have been cut — the bounded-window property that keeps
        # memory O(window), not O(jobs).
        for i, submitted in enumerate(submitted_at_absorb):
            assert submitted <= window + i
        assert len(submitted_at_absorb) == total

    def test_adaptive_sizing_grows_from_observations(self):
        # 10 ms/run against a 0.5 s target -> chunks of ~50 once the
        # first calibration probes report back.
        pool = FakePool(2, per_run_s=0.01)
        sizer = ChunkSizer()
        run_chunks(iter_chunks(iter(range(200)), sizer), workers=2,
                   cache_root=None,
                   absorb=lambda out: sizer.observe(len(out["records"]),
                                                    out["wall_s"]),
                   pool_factory=lambda **kw: pool)
        assert pool.submitted_sizes[0] == CHUNK_MIN
        assert max(pool.submitted_sizes) == 50
        assert sum(pool.submitted_sizes) == 200

    def test_absorb_sees_every_chunk(self):
        pool = FakePool(3)
        outs = []
        run_chunks(fixed_chunks(iter(range(10)), 4), workers=3,
                   cache_root=None, absorb=outs.append,
                   pool_factory=lambda **kw: pool)
        assert sorted(len(o["records"]) for o in outs) == [2, 4, 4]

    def test_empty_pending_never_opens_chunks(self):
        pool = FakePool(2)
        run_chunks(fixed_chunks(iter(()), 1), workers=2, cache_root=None,
                   absorb=lambda out: None,
                   pool_factory=lambda **kw: pool)
        assert pool.submitted_sizes == []

    def test_one_worker_runs_in_process_in_order(self):
        def no_pool(**kw):
            raise AssertionError("workers=1 must not open a pool")

        jobs = small_jobs(seeds=(0,))
        chunks = [jobs[:1], jobs[1:]]
        outs = []
        run_chunks(iter(chunks), workers=1, cache_root=None,
                   absorb=outs.append, pool_factory=no_pool)
        assert [o["records"] for o in outs] == \
            [run_chunk(chunk, None)["records"] for chunk in chunks]
