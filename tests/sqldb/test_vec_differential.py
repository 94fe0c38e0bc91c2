"""Array-at-a-time vs row-at-a-time differential battery.

The executor evaluates its equi-joins, TEXT factorization and TEXT
comparisons as whole-array numpy operations.  ``row_reference`` keeps the
row-at-a-time Python versions they replaced; every statement in the fuzz
regression corpus plus a 500-statement grammar sweep runs both ways, and
any divergence fails.  The comparison is strict: identical rows *in
order*, identical column names, SQL types and numpy dtypes, identical NULL
masks (``Table.rows`` yields ``None`` for NULL), identical errors (type
and message), and identical per-operator ``rows_out`` from the operator
profiler.  ``tests/golden`` pins the same statements' results to fixed
digests; this battery also covers statements the pins never saw.  In the
test names, "row" is the row-at-a-time references and "vec" the array
kernels.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.fuzz import SELECT_SHAPES, FuzzGrammar, build_fuzz_database
from repro.sqldb.errors import ExecutionError, SqlError
from repro.sqldb.executor import _text_codes
from repro.sqldb.expr_eval import Vec, _compare, _text_to_days
from repro.sqldb.plan_nodes import AggregateNode, HashJoinNode
from repro.sqldb.types import SqlType

from .row_reference import reference_compare, reference_text_codes, row_at_a_time

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz" / "corpus"
GRAMMAR_SWEEP = 500


@pytest.fixture(scope="module")
def db():
    return build_fuzz_database(0)


@pytest.fixture(scope="module")
def sweep(db):
    # Read-only shapes: a DML statement would mutate the shared fixture
    # database mid-sweep.  The write path has its own differential net
    # (test_dml_differential).
    return FuzzGrammar(db.catalog, seed=23).statements(
        GRAMMAR_SWEEP, shapes=SELECT_SHAPES
    )


def corpus_sqls() -> list[str]:
    sqls = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        entry = json.loads(path.read_text())
        sqls.append(entry["sql"])
        if entry.get("tightened_sql"):
            sqls.append(entry["tightened_sql"])
    return sqls


def run_one(db, sql):
    """Execute *sql*; the outcome is comparable data."""
    try:
        table = db.execute(sql).table
    except SqlError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", fingerprint(table))


def fingerprint(table):
    """Everything the battery pins: names, types, dtypes, ordered rows.

    Floats go through ``repr`` so the comparison is bit-level (NaN equals
    NaN, ``-0.0`` differs from ``0.0``) instead of IEEE ``==``.
    """
    return (
        tuple(table.column_names),
        tuple(c.sql_type for c in table.columns),
        tuple(str(c.data.dtype) for c in table.columns),
        tuple(
            tuple(repr(v) if isinstance(v, float) else v for v in row)
            for row in table.rows()
        ),
    )


def assert_equivalent(db, sql, calls=None):
    with row_at_a_time(calls):
        row = run_one(db, sql)
    vec = run_one(db, sql)
    assert row == vec, sql


class TestCorpusReplay:
    def test_corpus_has_entries(self):
        assert corpus_sqls(), "fuzz regression corpus is empty"

    @pytest.mark.parametrize(
        "sql", corpus_sqls(), ids=[f"corpus_{i}" for i in range(len(corpus_sqls()))]
    )
    def test_corpus_statement_row_vs_vec(self, db, sql):
        assert_equivalent(db, sql)


class TestGrammarSweep:
    def test_sweep_size(self, sweep):
        assert len(sweep) >= 500

    def test_sweep_row_vs_vec(self, db, sweep):
        divergences = []
        for gen in sweep:
            try:
                assert_equivalent(db, gen.sql)
            except AssertionError:
                divergences.append(gen.sql)
        assert not divergences, (
            f"{len(divergences)} divergences, first: {divergences[0]!r}"
        )

    def test_sweep_actually_exercises_the_vec_path(self, db, sweep):
        # The gate matters only if the sweep actually reaches every kernel
        # the references replace, and often.
        calls: dict[str, int] = {}
        for gen in sweep[:200]:
            with row_at_a_time(calls):
                run_one(db, gen.sql)
        assert calls.get("join", 0) >= 20, calls
        assert calls.get("text_codes", 0) >= 20, calls
        assert calls.get("compare", 0) >= 50, calls

    def test_sweep_covers_joins_and_aggregates(self, db, sweep):
        def has(node, kind):
            if isinstance(node, kind):
                return True
            return any(has(c, kind) for c in node.children())

        plans = [db.plan(gen.sql) for gen in sweep[:120]]
        assert any(has(plan.root, HashJoinNode) for plan in plans)
        assert any(has(plan.root, AggregateNode) for plan in plans)


class TestTelemetryRowcounts:
    """Per-operator rows_out (the telemetry-visible rowcounts) match."""

    CASES = [
        "SELECT t0.user_id, t0.age FROM users AS t0 WHERE t0.age > 40",
        "SELECT t0.city, count(*) AS n FROM users AS t0 GROUP BY t0.city",
        "SELECT t0.name, t1.amount FROM users AS t0 "
        "JOIN orders AS t1 ON t0.user_id = t1.user_id "
        "WHERE t1.amount > 100.0 ORDER BY t1.amount DESC LIMIT 25",
        "SELECT DISTINCT t0.status FROM orders AS t0",
    ]

    def rows_tree(self, profile):
        return (
            profile.node_type,
            profile.rows_out,
            tuple(self.rows_tree(c) for c in profile.children),
        )

    @pytest.mark.parametrize("sql", CASES)
    def test_profiled_rowcounts_match(self, db, sql):
        with row_at_a_time():
            _, row_profile = db.execute_profiled(sql)
        _, vec_profile = db.execute_profiled(sql)
        assert self.rows_tree(vec_profile) == self.rows_tree(row_profile), sql


class TestTextKernels:
    """The TEXT kernels against their references on random strings."""

    POOL = np.array(["", "a", "B", "b", "ab", "é", "1", "10", "9", "None"], dtype=object)

    def random_text(self, rng, n):
        data = np.asarray(rng.choice(self.POOL, size=n), dtype=object)
        mask = rng.random(n) < 0.2 if rng.random() < 0.5 else None
        if mask is not None:
            data[mask] = None  # how storage holds a NULL TEXT value
        return Vec(data, mask, SqlType.TEXT)

    @pytest.mark.parametrize("seed", range(20))
    def test_text_codes_equal_np_unique_codes(self, seed):
        rng = np.random.default_rng(seed)
        values = self.random_text(rng, int(rng.integers(0, 50))).data
        assert _text_codes(values).tolist() == reference_text_codes(values).tolist()

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_compare_equals_per_element_reference(self, op):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(0, 30))
            left, right = self.random_text(rng, n), self.random_text(rng, n)
            got, want = _compare(left, right, op), reference_compare(left, right, op)
            assert got.data.tolist() == want.data.tolist()
            assert (got.mask is None) == (want.mask is None)

    def test_text_to_days_parses_every_row(self):
        values = np.array(["1970-01-02", "1970-01-01", "1970-01-02"], dtype=object)
        days = _text_to_days(values)
        assert days.tolist() == [1, 0, 1]
        assert days.dtype == np.int64

    def test_text_to_days_reports_the_first_bad_row(self):
        values = np.array(["1970-01-01", "bad-b", "1970-01-01", "bad-a"], dtype=object)
        with pytest.raises(ExecutionError, match="invalid date literal: 'bad-b'"):
            _text_to_days(values)

    def test_bad_date_literal_through_execute(self, db):
        with pytest.raises(ExecutionError, match="invalid date literal: 'not-a-date'"):
            db.execute(
                "SELECT t0.order_id FROM orders AS t0 WHERE t0.order_date = 'not-a-date'"
            )
