"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload gen_actual_rows --seed 0 \
        --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``gen_actual_rows`` -- TPC-H ``actual_rows`` generation (``gen.py``);
* ``serve_open_loop`` -- open-loop HTTP load on ``repro serve``
  (``serve_load.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run is made with the layer wrappers of ``spans.py``
installed and the line carries the per-layer metrics instead.
The metric names and units come from ``BENCHMARK.json``.  Spans and the
fingerprints of every job seen so far are kept under ``.perfbench/`` at the
checkout root; a job whose fingerprint differs from an earlier run of the
same job fails the output check (delete ``.perfbench/`` after changing
what the program generates).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 3
WORKLOADS = ("gen_actual_rows", "serve_open_loop")
# Layers reported with calls / busy / self / share of the timed wall.
DETAILED_LAYERS = (
    "bo.fit", "bo.predict", "bo.ask", "sqldb.explain", "sqldb.execute",
    "llm.complete", "resilience.checkpoint.save", "serve.journal.append",
    "datasets.build",
)
STAGES = ("core.templates", "core.profile", "core.refine", "core.search")
BO_LAYERS = ("bo.fit", "bo.predict", "bo.ask")
SERVE_WORKER_THREADS = {"worker-0", "worker-1"}


class FingerprintStore:
    """Job key -> output digest, kept across runs in one checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> list[str]:
        previous = self.known.setdefault(key, digest)
        if previous != digest:
            return [f"{key}: fingerprint {digest[:12]} differs from an "
                    f"earlier run's {previous[:12]}"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_suffix(".partial")
        partial.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(partial, self.path)


def setup_samples(db: str) -> list[dict]:
    """Import + dataset build, each in a fresh interpreter."""
    command = [sys.executable, str(HERE / "setup_probe.py"), "--db", db]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            command, env=env, capture_output=True, text=True, check=True,
            timeout=120,
        ).stdout
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


def layer_metrics(spans, counters, base_s: float, threads=None) -> dict:
    """Per-layer metrics from the spans and counters of a traced run."""
    import spans as spanlib

    table = spanlib.layer_table(spans)
    out = {}
    for name in DETAILED_LAYERS:
        row = table[name]
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.busy_s"] = row["busy_s"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.share"] = row["self_s"] / base_s
    for name in STAGES:
        out[f"{name}.busy_s"] = table[name]["busy_s"]
        out[f"{name}.self_s"] = table[name]["self_s"]
    out["bo.self_share"] = sum(table[n]["self_s"] for n in BO_LAYERS) / base_s

    def ratio(numerator: str, denominator: str) -> float:
        base = counters.get(denominator, 0)
        return counters.get(numerator, 0) / base if base else 0.0

    out["fastpath.explain_cache.hit_ratio"] = ratio(
        "explain_cache.hits", "explain_cache.lookups"
    )
    out["llm.tokens"] = counters.get("llm.tokens", 0)
    out["core.refine.accept_ratio"] = ratio("refine.accepted", "refine.calls")
    out["core.search.evals_per_query"] = ratio(
        "search.evaluations", "search.queries"
    )
    out["core.templates.alignment_ratio"] = ratio(
        "templates.aligned", "templates.traces"
    )
    out["core.search.wasserstein"] = ratio("search.wasserstein", "search.runs")
    covered = spanlib.covered_seconds(spans, threads)
    out["unattributed_s"] = base_s - covered
    out["attributed_ratio"] = covered / base_s
    out["trace.spans"] = len(spans)
    out["trace.overhead_est_s"] = len(spans) * spanlib.span_cost_s()
    return out


def run_gen(args, store) -> dict:
    import gen

    samples = setup_samples(gen.DATASET)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    outcome = gen.run(args.seed, args.seconds, tracer, store)
    outcome["metrics"]["setup_s"] = statistics.median(
        s["import_s"] + s["build_s"] for s in samples
    )
    layer = outcome["layer"]
    layer["startup.import_s"] = statistics.median(s["import_s"] for s in samples)
    layer["datasets.build_s"] = statistics.median(s["build_s"] for s in samples)
    layer.update(_serve_layer_placeholders())
    if tracer is not None:
        tracer.uninstall()
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        layer.update(layer_metrics(
            tracer.spans, tracer.counters, layer["timed_wall_s"]
        ))
    return outcome


def _serve_layer_placeholders() -> dict:
    """Serve-only per-layer metrics read 0 on the generate workloads."""
    return {
        "serve.queue_wait_p50_s": 0.0,
        "serve.run_p50_s": 0.0,
        "serve.generator_lag_p90_s": 0.0,
        "serve.submit_p50_s": 0.0,
    }


def run_serve(args, store) -> dict:
    import serve_load
    import spans as spanlib

    scratch = STATE / "serve" / str(os.getpid())
    try:
        outcome = serve_load.run(
            args.seed, args.seconds, bool(args.trace), store, scratch, SRC
        )
        if args.trace:
            spans, counters = spanlib.load(outcome["spans_path"])
            spans_dir = STATE / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            (spans_dir / f"{args.workload}-seed{args.seed}.jsonl").write_text(
                Path(outcome["spans_path"]).read_text()
            )
    finally:
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    layer = outcome["layer"]
    if args.trace:
        layer.update(layer_metrics(
            spans, counters, layer["timed_wall_s"], SERVE_WORKER_THREADS
        ))
        layer["startup.import_s"] = counters.get("startup.import_s", 0.0)
        build = layer["datasets.build.calls"]
        layer["datasets.build_s"] = (
            layer["datasets.build.busy_s"] / build if build else 0.0
        )
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the service child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    store = FingerprintStore(STATE / "fingerprints.json")
    if args.workload == "gen_actual_rows":
        outcome = run_gen(args, store)
    else:
        outcome = run_serve(args, store)
    store.save()
    for problem in outcome["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    measured = outcome["layer"] if args.trace else outcome["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
