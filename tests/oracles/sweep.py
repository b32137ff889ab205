"""The pre-executor sweep engine: the batched runner's baseline oracle.

One pool future per job, full metric snapshots over IPC, parent-side
cache I/O and per-run parent rollup folds — exactly the overheads the
shipping chunked engine (:func:`repro.fleet.runner.run_sweep`) removes.
``benchmarks/test_sweep_scale.py`` runs both engines on one campaign,
gates the A/B ratios and asserts byte-identical output.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import List, Optional

from repro.fleet.cache import SweepCache, _canonical
from repro.fleet.results import SweepResult
from repro.fleet.runner import SweepJob, SweepSpec, _absorb, run_job


def run_sweep_legacy(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
) -> SweepResult:
    """The pre-executor engine: one future per job, parent-side cache I/O.

    ``ipc_payload_bytes``/``parent_folds`` accounting mirrors the shipping
    engine so the counters compare like for like.
    """
    from repro.obs.rollup import RollupAggregate

    all_jobs = spec.jobs()
    result = SweepResult(rollup=RollupAggregate())
    pending: List[SweepJob] = []
    for job in all_jobs:
        summary = cache.load(job.digest) if cache is not None else None
        if summary is not None:
            _absorb(result, job, summary)
        else:
            pending.append(job)
    result.cache_misses = len(pending)
    result.cache_hits = len(all_jobs) - len(pending)

    if jobs <= 1 or len(pending) <= 1:
        for job in pending:
            summary = run_job(job)
            if cache is not None:
                cache.store(job.digest, summary)
            _absorb(result, job, summary)
        return result

    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {pool.submit(run_job, job): job for job in pending}
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                job = futures[future]
                summary = future.result()
                result.ipc_payload_bytes += len(_canonical(summary))
                if cache is not None:
                    cache.store(job.digest, summary)
                _absorb(result, job, summary)
    return result
