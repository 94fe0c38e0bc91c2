"""The benchmark's own arithmetic: quantiles, open-loop latency, ratios.

Pure functions over plain lists, so ``test_arith.py`` can pin each one
down without running the system.
"""

from __future__ import annotations

import math
import statistics


def quantile(values, q: float) -> float:
    """The *q*-quantile of *values* by linear interpolation between order
    statistics (numpy's default "linear" method)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level {q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def summarize(values) -> dict:
    """Median and p90 of *values* with the sample count behind them.  A
    p90 has ten samples beyond it only from 100 samples up."""
    return {
        "n": len(values),
        "p50": quantile(values, 0.5),
        "p90": quantile(values, 0.9),
    }


def due_times(start: float, rate_per_s: float, count: int) -> list[float]:
    """Open-loop schedule: request *i* is due at ``start + i / rate``."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    return [start + index / rate_per_s for index in range(count)]


def latencies_from_due(due, finished) -> list[float]:
    """Per-request latency timed from when it was *due*, not when it was
    sent, so a stalled generator's delay counts against later requests.
    ``None`` in *finished* (never completed) yields ``math.inf``."""
    if len(due) != len(finished):
        raise ValueError("due and finished differ in length")
    return [
        math.inf if done is None else done - when
        for when, done in zip(due, finished)
    ]


def generator_lag(due, sent) -> list[float]:
    """How late the load generator sent each request (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(at - when, 0.0) for when, at in zip(due, sent)]


def fail_ratio(attempted: int, failed: int, refused: int = 0) -> float:
    """Failed plus refused operations over attempted ones.  A refusal
    (admission said no) is a failure from the user's side."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    bad = failed + refused
    if bad > attempted:
        raise ValueError("more failures than attempts")
    return bad / attempted


def goodput(latencies, limit_s: float, window_s: float) -> float:
    """Requests done within *limit_s* per second of *window_s*.  Failed or
    refused requests carry ``math.inf`` latency and never count."""
    if window_s <= 0:
        raise ValueError("window must be positive")
    good = sum(1 for latency in latencies if latency <= limit_s)
    return good / window_s


def spread(values) -> float:
    """Inter-quartile distance over the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    first, median, third = statistics.quantiles(values, n=4)
    if median == 0:
        raise ValueError("spread of a sample with zero median")
    return (third - first) / abs(median)
