"""Tests for the benchmark's own arithmetic (no system under test runs).

    python3 -m pytest perfbench -q
"""

import math
import statistics

import pytest

import pools
import spans
import stats
from run import FingerprintStore


class TestQuantiles:
    def test_median_and_p90_interpolate(self):
        values = list(range(1, 11))  # 1..10
        assert stats.quantile(values, 0.5) == pytest.approx(5.5)
        assert stats.quantile(values, 0.9) == pytest.approx(9.1)

    def test_order_does_not_matter(self):
        assert stats.quantile([3, 1, 2], 0.5) == 2

    def test_single_sample(self):
        assert stats.quantile([4.2], 0.9) == 4.2

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            stats.quantile([], 0.5)

    def test_summary_states_the_sample_count(self):
        summary = stats.summarize([float(v) for v in range(100)])
        assert summary == {
            "n": 100,
            "p50": pytest.approx(49.5),
            "p90": pytest.approx(89.1),
        }


class TestOpenLoop:
    def test_due_times_are_evenly_spaced(self):
        assert stats.due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]

    def test_latency_counts_from_due_not_sent(self):
        due = [0.0, 1.0, 2.0]
        # The generator stalled: request 1 went out at 1.5, request 2 at
        # 2.5; each finished 0.1 s after it was sent.
        finished = [0.1, 1.6, 2.6]
        assert stats.latencies_from_due(due, finished) == pytest.approx(
            [0.1, 0.6, 0.6]
        )

    def test_unfinished_request_has_infinite_latency(self):
        assert stats.latencies_from_due([0.0], [None]) == [math.inf]

    def test_generator_lag_is_never_negative(self):
        assert stats.generator_lag([0.0, 1.0], [0.2, 0.9]) == pytest.approx(
            [0.2, 0.0]
        )

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            stats.generator_lag([0.0], [])


class TestFailuresAndGoodput:
    def test_refusals_count_as_failures(self):
        assert stats.fail_ratio(attempted=10, failed=1, refused=2) == 0.3

    def test_no_failures(self):
        assert stats.fail_ratio(attempted=5, failed=0) == 0.0

    def test_more_failures_than_attempts_is_an_error(self):
        with pytest.raises(ValueError):
            stats.fail_ratio(attempted=2, failed=2, refused=1)

    def test_goodput_counts_only_jobs_within_the_limit(self):
        latencies = [0.2, 0.9, 1.0, 1.1, math.inf]
        assert stats.goodput(latencies, limit_s=1.0, window_s=2.0) == 1.5

    def test_refused_request_never_counts_toward_goodput(self):
        latencies = stats.latencies_from_due([0.0, 1.0], [0.5, None])
        assert stats.goodput(latencies, limit_s=10.0, window_s=1.0) == 1.0


class TestSpread:
    def test_matches_statistics_quartiles(self):
        values = [9.0, 10.0, 10.5, 11.0, 12.0]
        first, median, third = statistics.quantiles(values, n=4)
        assert stats.spread(values) == pytest.approx((third - first) / median)


class TestStratifiedJobs:
    POOL = [{"seed": s, "work": float(s)} for s in range(12)]

    def test_one_job_per_stratum(self):
        picked = pools.pick(self.POOL, 4, seed=7)
        assert sorted(s // 3 for s in picked) == [0, 1, 2, 3]

    def test_same_seed_same_jobs(self):
        assert pools.pick(self.POOL, 4, 3) == pools.pick(self.POOL, 4, 3)

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            pools.pick(self.POOL[:2], 3, 0)


class TestLayerTable:
    def test_self_time_excludes_children_and_busy_counts_outermost(self):
        recorded = [
            ["core.search", 0.0, 10.0, -1, "main"],
            ["bo.ask", 1.0, 5.0, 0, "main"],
            ["bo.fit", 2.0, 4.0, 1, "main"],
            ["llm.complete", 6.0, 8.0, 0, "main"],
            ["llm.complete", 6.5, 7.5, 3, "main"],
        ]
        table = spans.layer_table(recorded)
        assert table["core.search"]["self_s"] == pytest.approx(4.0)
        assert table["bo.ask"]["self_s"] == pytest.approx(2.0)
        assert table["bo.fit"]["self_s"] == pytest.approx(2.0)
        assert table["llm.complete"]["calls"] == 2
        assert table["llm.complete"]["busy_s"] == pytest.approx(2.0)
        assert table["llm.complete"]["self_s"] == pytest.approx(2.0)
        assert spans.covered_seconds(recorded) == pytest.approx(10.0)

    def test_coverage_filters_threads(self):
        recorded = [
            ["core.search", 0.0, 3.0, -1, "worker-0"],
            ["serve.journal.append", 0.0, 1.0, -1, "MainThread"],
        ]
        assert spans.covered_seconds(recorded, {"worker-0"}) == 3.0

    def test_wrapper_records_parent_and_restores(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = spans.Tracer()
        for name in ("outer", "inner"):
            tracer.wrap(Layer, name, f"t.{name}")
        tracer.active = True
        assert Layer().outer() == 2
        tracer.uninstall()
        assert [s[0] for s in tracer.spans] == ["t.outer", "t.inner"]
        assert tracer.spans[1][3] == 0
        assert Layer().outer() == 2 and len(tracer.spans) == 2


class TestFingerprintStore:
    def test_first_sighting_records_and_repeat_must_match(self, tmp_path):
        store = FingerprintStore(tmp_path / "f.json")
        assert store.check("job/1", "aa") == []
        assert store.check("job/1", "aa") == []
        assert store.check("job/1", "bb") != []
        store.save()
        assert FingerprintStore(tmp_path / "f.json").check("job/1", "bb") != []
