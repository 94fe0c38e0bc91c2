"""The serve workload: an open-loop load generator against ``repro serve``.

The service runs in its own process (``serve_main.py``) with two worker
threads and a journaled state dir (``--journal-fsync rotate``: fsync at
segment seals, snapshots and exit).  This process only sends requests: one
small job (one spec, 8 queries, 2 intervals) every ``1 / RATE_PER_S``
seconds, round-robin over three tenants, whether or not earlier jobs have
finished.  Each job is timed from when it was *due*, using the service's
own completion timestamp (both sides read the same monotonic clock).  The
jobs are a stratified draw from the calibrated pool (``pools.py``), so
every run sends the same mix of light and heavy jobs.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pools
import stats

#: Arrivals per second: about 60% of the ~6.5 jobs/s the service
#: completes in a burst on a 2-CPU box, so the queue stays short.
RATE_PER_S = 4.0
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
JOB_QUERIES = 8
WORKERS = 2
#: A job done later than this after it was due misses goodput: about
#: 2.5x the median latency, between the light jobs and the heavy ones.
LATENCY_LIMIT_S = 0.25
JOURNAL_FSYNC = "rotate"
SETUP_SAMPLES = 3
#: Job seeds outside the pool, run before the timed phase.
WARMUP_SEEDS = (1_000_001, 1_000_002)
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0
_READY = re.compile(r"serving on http://([\d.]+):(\d+)")


def _request(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


class Service:
    """One ``repro serve`` child process in its own scratch directory."""

    def __init__(self, directory: Path, src: Path, trace: bool):
        self.directory = directory
        directory.mkdir(parents=True)
        self.spans_path = directory / "spans.jsonl"
        self.log_path = directory / "server.log"
        command = [
            sys.executable, str(Path(__file__).with_name("serve_main.py")),
            "--trace", "1" if trace else "0",
            "--spans-out", str(self.spans_path), "--",
            "serve", "--port", "0", "--workers", str(WORKERS),
            "--max-queue-depth", "64",
            "--state-dir", str(directory / "state"),
            "--journal-fsync", JOURNAL_FSYNC,
            "--checkpoint-root", str(directory / "checkpoints"),
        ]
        env = dict(os.environ, PYTHONPATH=str(src))
        started = time.perf_counter()
        with open(self.log_path, "w") as log, \
                open(directory / "stdout.json", "w") as out:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=log, env=env, cwd=directory
            )
        self.port = self._wait_ready()
        self.start_s = time.perf_counter() - started

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _READY.search(self.log_path.read_text())
            if match:
                return int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            f"service did not start: {self.log_path.read_text()[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kilobytes / 1024

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def _job_payload(seed: int, tenant_prefix: str = "") -> dict:
    return {
        "tenant": tenant_prefix + TENANTS[seed % len(TENANTS)],
        "seed": seed,
        "specs": [{"num_joins": 1}],
        "queries": JOB_QUERIES,
        "intervals": 2,
    }


def _wait_terminal(port: int, job_ids: set[str]) -> list[dict]:
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    terminal = {"completed", "failed", "expired", "checkpointed"}
    while True:
        _status, body = _request(port, "GET", "/v1/jobs")
        jobs = body["jobs"]
        pending = [
            job for job in jobs
            if job["job_id"] in job_ids and job["state"] not in terminal
        ]
        if not pending or time.monotonic() > deadline:
            return jobs
        time.sleep(0.2)


def run(seed: int, seconds: float, trace: bool, store, scratch: Path,
        src: Path) -> dict:
    """One run: returns {correct, attempted, failed, problems, metrics, layer}."""
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    # Set-up samples: full service starts on fresh state dirs.
    setup = []
    for index in range(SETUP_SAMPLES - 1):
        service = Service(scratch / f"setup-{index}", src, trace=False)
        setup.append(service.start_s)
        service.stop()
    service = Service(scratch / "measured", src, trace=trace)
    setup.append(service.start_s)
    try:
        return _drive(service, seed, seconds, trace, store, setup)
    finally:
        service.stop()


def _drive(service: Service, seed: int, seconds: float, trace: bool, store,
           setup: list[float]) -> dict:
    port = service.port
    problems: list[str] = []
    accepted: dict[str, dict] = {}

    # Warm-up jobs (not timed): the first job in a fresh service pays
    # lazy imports and first-call costs that steady-state jobs do not.
    for job_seed in WARMUP_SEEDS:
        payload = _job_payload(job_seed, tenant_prefix="warmup-")
        status, body = _request(port, "POST", "/v1/jobs", payload)
        if status == 202:
            accepted[body["job_id"]] = payload
        else:
            problems.append(f"warm-up job refused: {status} {body}")
    _wait_terminal(port, set(accepted))

    count = max(1, round(seconds * RATE_PER_S))
    job_seeds = pools.pick(pools.load("serve_open_loop"), count, seed)
    start = time.monotonic() + 0.05
    due = stats.due_times(start, RATE_PER_S, count)
    sent, submit_s, timed_ids = [], [], []
    refused = 0
    for index, when in enumerate(due):
        delay = when - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        payload = _job_payload(job_seeds[index])
        at = time.monotonic()
        status, body = _request(port, "POST", "/v1/jobs", payload)
        submit_s.append(time.monotonic() - at)
        sent.append(at)
        if status == 202:
            accepted[body["job_id"]] = payload
            timed_ids.append(body["job_id"])
        else:
            refused += 1
            timed_ids.append(None)

    jobs = {job["job_id"]: job for job in _wait_terminal(port, set(accepted))}
    _status, service_stats = _request(port, "GET", "/v1/stats")
    peak_rss_mb = service.peak_rss_mb()
    exit_code = service.stop()
    if exit_code != 0:
        problems.append(f"service exited with {exit_code} after drain")

    # Output checks: every accepted job completed and is listed; each
    # job's fingerprint matches every earlier run of the same job.
    for job_id, payload in accepted.items():
        job = jobs.get(job_id)
        if job is None:
            problems.append(f"job {job_id} missing from GET /v1/jobs")
            continue
        if job["state"] != "completed":
            problems.append(f"job {job_id} ended {job['state']}: {job['error']}")
            continue
        key = f"serve/{payload['tenant']}/{payload['seed']}"
        problems += store.check(key, job["result"]["fingerprint"])

    finished, generated, target, run_s, wait_s = [], 0, 0, [], []
    failed = refused
    for job_id in timed_ids:
        target += JOB_QUERIES
        job = jobs.get(job_id) if job_id is not None else None
        if job is None or job["state"] != "completed":
            finished.append(None)
            failed += job_id is not None
            continue
        finished.append(job["finished_at"])
        generated += job["result"]["queries"]
        run_s.append(job["finished_at"] - job["started_at"])
        wait_s.append(job["started_at"] - job["submitted_at"])
    latencies = stats.latencies_from_due(due, finished)
    latency = stats.summarize(
        [value for value in latencies if value != float("inf")]
    )
    # The timed wall: from the first job being due to the last one done.
    window = max([at for at in finished if at is not None] + [due[-1]]) - due[0]
    tokens = sum(
        account["tokens_spent"]
        for name, account in service_stats["tenants"].items()
        if not name.startswith("warmup-")
    )
    metrics = {
        "queries_per_s": generated / window,
        "goodput_jobs_per_s": stats.goodput(latencies, LATENCY_LIMIT_S, window),
        "target_fill": generated / target,
        "llm_tokens_per_query": tokens / generated if generated else 0.0,
        "success_ratio": 1.0 - stats.fail_ratio(count, failed),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": stats.quantile(setup, 0.5),
    }
    layer = {
        # The service is traced for its whole life, so layer shares are
        # taken against the run time of every job, warm-up included.
        "timed_wall_s": sum(
            job["finished_at"] - job["started_at"]
            for job_id, job in jobs.items()
            if job_id in accepted and job["state"] == "completed"
        ),
        "job_p50_s": latency["p50"],
        "job_p90_s": latency["p90"],
        "job_samples": latency["n"],
        "serve.queue_wait_p50_s": stats.quantile(wait_s, 0.5),
        "serve.run_p50_s": stats.quantile(run_s, 0.5),
        "serve.generator_lag_p90_s": stats.quantile(
            stats.generator_lag(due, sent), 0.9
        ),
        "serve.submit_p50_s": stats.quantile(submit_s, 0.5),
        "trace.queries_per_s": metrics["queries_per_s"],
    }
    return {
        "correct": not problems,
        "attempted": count,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layer": layer,
        "spans_path": service.spans_path if trace else None,
    }
