"""The calibrated job pools of ``pools.json`` and stratified draws from them.

Each workload's pool lists job seeds with their ``work``: the median wall
seconds of one job on the reference box (the ``criterion`` in the file says
how the pool was chosen).  A run draws its jobs by stratified sampling on
the run seed: the pool is sorted by work and cut into as many strata as
the run has jobs, one job is drawn from each stratum, and the draw is
shuffled.  Every run then holds one job of each size class, so different
seeds give different inputs but about the same total work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOLS = Path(__file__).with_name("pools.json")


def load(workload: str) -> list[dict]:
    return json.loads(POOLS.read_text())[workload]["jobs"]


def pick(pool: list[dict], count: int, seed: int) -> list[int]:
    """One job seed from each of *count* strata of *pool*, shuffled."""
    if not 1 <= count <= len(pool):
        raise ValueError(f"cannot draw {count} jobs from a pool of {len(pool)}")
    ranked = sorted(pool, key=lambda job: (job["work"], job["seed"]))
    rng = random.Random(seed)
    picked = []
    for stratum in range(count):
        low = stratum * len(ranked) // count
        high = (stratum + 1) * len(ranked) // count
        picked.append(ranked[rng.randrange(low, high)]["seed"])
    rng.shuffle(picked)
    return picked
