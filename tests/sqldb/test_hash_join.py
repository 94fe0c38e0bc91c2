"""The sort-based hash-join matcher against the dict-of-lists reference.

``join_key_codes`` + ``match_join_codes`` must return exactly the pairs,
in exactly the order, that the row-at-a-time build/probe loop of
``row_reference`` returns: left row ascending, then right row ascending.
The random key generators below cover duplicates and heavy skew, NULL
masks, NaN, ``-0.0``/``0.0``, TEXT, multi-column keys, TEXT against
numeric keys, and empty sides.  Outer joins with a residual and the
governor's pre-admission are checked end to end through
``Database.execute``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.governor import GovernorLimits, QueryGovernor, clock_for, use_governor
from repro.sqldb import Database, RowBudgetExceeded, SqlType, Table
from repro.sqldb.executor import join_key_codes, match_join_codes
from repro.sqldb.expr_eval import Vec

from .row_reference import reference_join_keys, reference_match, row_at_a_time

CASES = 300


def numeric_vec(rng, n: int, sql_type: SqlType) -> Vec:
    """Few distinct values (duplicates), sometimes one dominant (skew)."""
    distinct = int(rng.integers(1, 6))
    if sql_type is SqlType.DOUBLE:
        pool = np.array([0.0, -0.0, 1.5, np.nan, -2.0, 3.0, 1e300])
        data = rng.choice(pool[: max(distinct, 2)], size=n)
    else:
        data = rng.integers(0, distinct, size=n).astype(np.int64)
    if rng.random() < 0.3 and n:
        data[rng.random(n) < 0.8] = data[0]  # heavy skew on one value
    return Vec(data, null_mask(rng, n), sql_type)


def text_vec(rng, n: int) -> Vec:
    pool = np.array(["", "a", "b", "ab", "1", "0", "1.0", "é"], dtype=object)
    data = rng.choice(pool[: int(rng.integers(1, len(pool) + 1))], size=n)
    return Vec(np.asarray(data, dtype=object), null_mask(rng, n), SqlType.TEXT)


def null_mask(rng, n: int):
    if rng.random() < 0.5:
        return None
    return rng.random(n) < rng.choice([0.1, 0.5, 1.0])


def random_vec(rng, n: int, kind: str) -> Vec:
    if kind == "text":
        return text_vec(rng, n)
    sql_type = {"int": SqlType.INTEGER, "double": SqlType.DOUBLE}[kind]
    return numeric_vec(rng, n, sql_type)


def random_sides(rng):
    width = int(rng.integers(1, 4))
    n_left = int(rng.choice([0, 1, 2, 7, 40]))
    n_right = int(rng.choice([0, 1, 3, 9, 60]))
    left, right = [], []
    for _ in range(width):
        left_kind = str(rng.choice(["int", "double", "text"]))
        # Mostly compatible key pairs; sometimes TEXT against a number, or
        # INTEGER against DOUBLE (which compare as float64).
        right_kind = left_kind
        if rng.random() < 0.25:
            right_kind = str(rng.choice(["int", "double", "text"]))
        left.append(random_vec(rng, n_left, left_kind))
        right.append(random_vec(rng, n_right, right_kind))
    return left, right


def pairs(left_idx, right_idx):
    return list(zip(left_idx.tolist(), right_idx.tolist()))


def assert_matches_reference(left, right):
    expected = reference_match(*reference_join_keys(left, right))
    got = match_join_codes(*join_key_codes(left, right))
    assert got[0].dtype == got[1].dtype == np.int64
    assert pairs(*got) == pairs(*expected)


@pytest.mark.parametrize("seed", range(CASES))
def test_matcher_equals_reference_on_random_keys(seed):
    left, right = random_sides(np.random.default_rng(seed))
    assert_matches_reference(left, right)


class TestKeyEquality:
    def vec(self, values, sql_type, mask=None):
        dtype = object if sql_type is SqlType.TEXT else None
        return Vec(np.array(values, dtype=dtype), mask, sql_type)

    def match(self, left, right):
        return pairs(*match_join_codes(*join_key_codes([left], [right])))

    def test_negative_zero_equals_zero(self):
        left = self.vec([-0.0, 0.0], SqlType.DOUBLE)
        right = self.vec([0.0], SqlType.DOUBLE)
        assert self.match(left, right) == [(0, 0), (1, 0)]

    def test_nan_never_matches(self):
        nan = self.vec([np.nan, 1.0], SqlType.DOUBLE)
        assert self.match(nan, nan) == [(1, 1)]

    def test_null_never_matches(self):
        masked = self.vec([1, 1], SqlType.INTEGER, np.array([True, False]))
        assert self.match(masked, masked) == [(1, 1)]

    def test_text_never_equals_a_number(self):
        text = self.vec(["1", "1.0"], SqlType.TEXT)
        number = self.vec([1.0], SqlType.DOUBLE)
        assert self.match(text, number) == []
        assert self.match(number, text) == []

    def test_integer_equals_double(self):
        ints = self.vec([1, 2], SqlType.INTEGER)
        doubles = self.vec([2.0, 1.0], SqlType.DOUBLE)
        assert self.match(ints, doubles) == [(0, 1), (1, 0)]

    def test_multi_column_key_needs_every_column_equal(self):
        left = [self.vec([1, 1, 2], SqlType.INTEGER),
                self.vec(["a", "b", "a"], SqlType.TEXT)]
        right = [self.vec([1, 2, 1], SqlType.INTEGER),
                 self.vec(["b", "a", "b"], SqlType.TEXT)]
        got = pairs(*match_join_codes(*join_key_codes(left, right)))
        assert got == [(1, 0), (1, 2), (2, 1)]

    def test_empty_sides(self):
        empty = self.vec([], SqlType.INTEGER)
        some = self.vec([1, 2], SqlType.INTEGER)
        assert self.match(empty, some) == []
        assert self.match(some, empty) == []
        assert self.match(empty, empty) == []


@pytest.fixture(scope="module")
def join_db():
    db = Database("joins")
    db.create_table(Table.from_dict(
        "l",
        {"k": [1, 1, 2, None, 3, 4], "t": ["x", "y", "x", "x", "z", "x"],
         "v": [10, 20, 30, 40, 50, 60]},
        {"k": SqlType.INTEGER, "t": SqlType.TEXT, "v": SqlType.INTEGER},
    ))
    db.create_table(Table.from_dict(
        "r",
        {"k": [1, 1, 2, None, 5, 3], "t": ["x", "x", "y", "x", "x", "z"],
         "w": [1, 2, 3, 4, 5, 6]},
        {"k": SqlType.INTEGER, "t": SqlType.TEXT, "w": SqlType.INTEGER},
    ))
    return db


def join_rows(db, join_type, on):
    sql = (
        f"SELECT l.v, r.w FROM l {join_type} JOIN r ON {on} "
        "ORDER BY l.v, r.w"
    )
    return list(db.execute(sql).table.rows())


class TestJoinTypesThroughExecute:
    """Outer joins with a residual, run both ways through the engine."""

    ON = "l.k = r.k AND l.t = r.t AND l.v + r.w > 12"

    @pytest.mark.parametrize("join_type", ["INNER", "LEFT", "RIGHT", "FULL"])
    def test_join_type_matches_reference(self, join_db, join_type):
        with row_at_a_time():
            expected = join_rows(join_db, join_type, self.ON)
        assert join_rows(join_db, join_type, self.ON) == expected

    def test_expected_rows(self, join_db):
        # l(1,x,10) pairs with r(1,x,1) and r(1,x,2) only if 10+w > 12: no;
        # l(1,y,20) has no TEXT match; l(3,z,50) matches r(3,z,6).
        assert join_rows(join_db, "INNER", self.ON) == [(50, 6)]
        full = join_rows(join_db, "FULL", self.ON)
        assert (50, 6) in full
        assert sum(1 for v, _ in full if v is None) == 5  # unmatched r rows
        assert sum(1 for _, w in full if w is None) == 5  # unmatched l rows


class TestPreAdmission:
    def skewed_db(self, n):
        db = Database("skew")
        for name in ("a", "b"):
            db.create_table(Table.from_dict(
                name, {"k": [7] * n, "x": list(range(n))},
                {"k": SqlType.INTEGER, "x": SqlType.INTEGER},
            ))
        return db

    def test_skewed_join_refused_before_its_output_exists(self, monkeypatch):
        db = self.skewed_db(400)  # one key: 160,000 output pairs
        expanded = []
        original = np.repeat

        def watching_repeat(*args, **kwargs):
            expanded.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "repeat", watching_repeat)
        gov = QueryGovernor(
            GovernorLimits(row_budget=10_000), clock=clock_for("simulated")
        )
        with use_governor(gov):
            with pytest.raises(RowBudgetExceeded, match="would materialize 160000"):
                db.execute("SELECT a.x, b.x FROM a JOIN b ON a.k = b.k")
        assert expanded == []  # refused before any pair was expanded
        assert gov.rows_processed == 800  # only the two scans were charged

    def test_join_within_budget_runs(self):
        db = self.skewed_db(30)
        gov = QueryGovernor(
            GovernorLimits(row_budget=10_000), clock=clock_for("simulated")
        )
        with use_governor(gov):
            result = db.execute("SELECT a.x, b.x FROM a JOIN b ON a.k = b.k")
        assert result.row_count == 900
