"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload gen_actual_rows --seeds 0-9 \
        [--seconds 25] [--trace 0] [--out runs.jsonl]

For every metric: the median of the runs and the distance between the
first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles -- the figure
each end-to-end metric's ``bound`` in ``BENCHMARK.json`` must exceed.
Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent, timeout=900,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["run_s"] = time.monotonic() - started
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"({result['run_s']:.1f} s)", file=sys.stderr)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(result) + "\n")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        spread = stats.spread(values) if len(values) > 1 and median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:40s} median {median:14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
