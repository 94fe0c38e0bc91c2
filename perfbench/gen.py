"""The generate workload: ``SQLBarber.generate_workload`` in one process.

``gen_actual_rows``: TPC-H (default scale) ``actual_rows`` generation, each
job 4 queries over 2 intervals of 0-10000 rows from 2 Redset specs.  Query
execution does nearly all the work.  A run draws its jobs from the
calibrated pool (``pools.py``).  Set-up (import, dataset build, one warm-up
job) happens before the timed phase; each job starts from a cold EXPLAIN
cache, as ``repro generate`` would.  Output checks run after the timer
stops.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time

import pools
import stats

NAME = "gen_actual_rows"
DATASET = "tpch"
COST_TYPE = "actual_rows"
COST_MAX = 10_000.0
QUERIES = 4
INTERVALS = 2
NUM_SPECS = 2
#: Expected seconds per pool job on the reference box; sets the job count
#: so the timed phase lasts about ``--seconds``.
NOMINAL_JOB_S = 4.2
#: A job slower than this misses the goodput limit.
LATENCY_LIMIT_S = 15.0
#: Run before the timed phase, so lazily imported modules and first-call
#: costs never land in a throughput timing.  It is also the run's memory
#: anchor: no pool job peaks higher, so the process's peak RSS is this
#: same job's on every seed.
WARMUP_SEED = 150


def job_count(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_JOB_S))


def _run_job(db, job_seed: int):
    from repro.core import BarberConfig, SQLBarber
    from repro.datasets import redset_spec_workload
    from repro.workload import CostDistribution

    specs = redset_spec_workload(num_specs=NUM_SPECS, seed=job_seed)
    distribution = CostDistribution.uniform(
        0.0, COST_MAX, QUERIES, INTERVALS, cost_type=COST_TYPE
    )
    db.explain_cache.clear()
    started = time.perf_counter()
    result = SQLBarber(db, config=BarberConfig(seed=job_seed)).generate_workload(
        specs, distribution
    )
    return result, distribution, time.perf_counter() - started


def digest(result) -> str:
    return hashlib.sha256(result.fingerprint_json().encode("utf-8")).hexdigest()


def run(seed: int, seconds: float, tracer, store) -> dict:
    """One run: returns {correct, attempted, failed, problems, metrics, layer}."""
    from repro.datasets import build_database

    db = build_database(DATASET)
    warm_result, _, _ = _run_job(db, WARMUP_SEED)
    problems = store.check(f"{NAME}/{WARMUP_SEED}", digest(warm_result))

    seeds = pools.pick(pools.load(NAME), job_count(seconds), seed)
    jobs = []
    failed = 0
    for job_seed in seeds:
        if tracer is not None:
            tracer.active = True
        try:
            result, distribution, wall = _run_job(db, job_seed)
        except Exception as error:  # a failed job is counted, not fatal
            failed += 1
            problems.append(f"job {job_seed}: {type(error).__name__}: {error}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        if result.aborted:
            failed += 1
        jobs.append((result, distribution, wall))
        problems += store.check(f"{NAME}/{job_seed}", digest(result))
        print(f"perfbench: job {job_seed}: {wall:.3f} s, "
              f"{len(result.workload)} queries", file=sys.stderr)

    if not jobs:
        raise RuntimeError("no job finished: " + "; ".join(problems))
    walls = [wall for _r, _d, wall in jobs]
    timed = sum(walls)
    latency = stats.summarize(walls)
    generated = sum(len(result.workload) for result, _d, _w in jobs)
    target = sum(distribution.total_queries for _r, distribution, _w in jobs)
    tokens = sum(result.llm_usage["total_tokens"] for result, _d, _w in jobs)
    metrics = {
        "queries_per_s": generated / timed,
        "goodput_jobs_per_s": stats.goodput(walls, LATENCY_LIMIT_S, timed),
        "target_fill": generated / target,
        "llm_tokens_per_query": tokens / generated if generated else 0.0,
        "success_ratio": 1.0 - stats.fail_ratio(len(seeds), failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layer = {
        "timed_wall_s": timed,
        "job_p50_s": latency["p50"],
        "job_p90_s": latency["p90"],
        "job_samples": latency["n"],
        "trace.queries_per_s": metrics["queries_per_s"],
    }
    return {
        "correct": not problems,
        "attempted": len(seeds),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layer": layer,
    }
