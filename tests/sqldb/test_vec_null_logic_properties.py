"""Kleene 3VL laws for the array-at-a-time expression evaluator.

Companion to ``test_null_logic_properties.py``: the same machine-checkable
laws (partition, double negation, De Morgan, predicate-tightening
monotonicity) over a second seeded predicate stream, plus Kleene's truth
tables asserted directly against the evaluator's whole-array 3VL kernels
(``_logical_and`` / ``_logical_or`` / ``_negate_bool`` / ``truthy`` in
:mod:`repro.sqldb.expr_eval`).  The row-at-a-time references of
``row_reference`` must give the same counts on every law input.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.fuzz import FuzzGrammar
from repro.sqldb.expr_eval import (
    Vec,
    _logical_and as logical_and,
    _logical_or as logical_or,
    _negate_bool as negate_bool,
    truthy,
)
from repro.sqldb.sql_render import render_expression
from repro.sqldb.types import SqlType

from .row_reference import row_at_a_time

N_USERS = 200  # conftest demo db; city is NULL every 17th row

# Three-valued operand encoding for the kernel-level truth tables:
# (value, is_null) — TRUE, FALSE, UNKNOWN.
T, F, U = (True, False), (False, False), (False, True)


def tv(cell: tuple) -> str:
    value, null = cell
    return "U" if null else ("T" if value else "F")


def bool_column(cells: list[tuple]) -> Vec:
    mask = np.array([null for _, null in cells], dtype=bool)
    return Vec(
        np.array([value for value, _ in cells], dtype=bool),
        mask if mask.any() else None,
        SqlType.BOOLEAN,
    )


def read_back(column: Vec) -> list[str]:
    mask = column.mask if column.mask is not None else [False] * len(column)
    return [tv((bool(v), bool(m))) for v, m in zip(column.data, mask)]


class TestKernelTruthTables:
    """The batch kernels implement exactly Kleene's strong 3VL tables."""

    OPERANDS = [T, F, U]

    def test_and_table(self):
        expected = {
            ("T", "T"): "T", ("T", "F"): "F", ("T", "U"): "U",
            ("F", "T"): "F", ("F", "F"): "F", ("F", "U"): "F",
            ("U", "T"): "U", ("U", "F"): "F", ("U", "U"): "U",
        }
        cells = [(a, b) for a in self.OPERANDS for b in self.OPERANDS]
        got = read_back(
            logical_and(
                bool_column([a for a, _ in cells]),
                bool_column([b for _, b in cells]),
            )
        )
        assert got == [expected[(tv(a), tv(b))] for a, b in cells]

    def test_or_table(self):
        expected = {
            ("T", "T"): "T", ("T", "F"): "T", ("T", "U"): "T",
            ("F", "T"): "T", ("F", "F"): "F", ("F", "U"): "U",
            ("U", "T"): "T", ("U", "F"): "U", ("U", "U"): "U",
        }
        cells = [(a, b) for a in self.OPERANDS for b in self.OPERANDS]
        got = read_back(
            logical_or(
                bool_column([a for a, _ in cells]),
                bool_column([b for _, b in cells]),
            )
        )
        assert got == [expected[(tv(a), tv(b))] for a, b in cells]

    def test_not_table(self):
        got = read_back(negate_bool(bool_column([T, F, U])))
        assert got == ["F", "T", "U"]

    def test_truthy_drops_false_and_unknown(self):
        assert truthy(bool_column([T, F, U, T])).tolist() == [
            True, False, False, True,
        ]

    def test_de_morgan_at_the_kernel_level(self):
        cells = [(a, b) for a in self.OPERANDS for b in self.OPERANDS]
        a = bool_column([x for x, _ in cells])
        b = bool_column([y for _, y in cells])
        lhs = negate_bool(logical_and(a, b))
        rhs = logical_or(negate_bool(a), negate_bool(b))
        assert read_back(lhs) == read_back(rhs)
        lhs = negate_bool(logical_or(a, b))
        rhs = logical_and(negate_bool(a), negate_bool(b))
        assert read_back(lhs) == read_back(rhs)

    def test_masks_collapse_to_none_when_no_unknowns(self):
        # An all-valid result drops its mask entirely, so result tables
        # carry a null mask only when some value is NULL.
        out = logical_and(bool_column([T, F]), bool_column([F, T]))
        assert out.mask is None


def _count(db, predicate_sql: str) -> int:
    sql = f"SELECT count(*) AS n FROM users AS t0 WHERE {predicate_sql}"
    table = db.execute(sql).table
    return int(table.columns[0].data[0])


def _predicates(db, count: int = 20) -> list[str]:
    grammar = FuzzGrammar(db.catalog, seed=31)
    scope = grammar.columns_of("users", "t0")
    out = []
    for i in range(count):
        rng = random.Random(f"vec3vl:{i}")
        expr = grammar.predicate(scope, rng, allow_subqueries=False)
        out.append(render_expression(expr))
    return out


class TestVectorizedStatementLaws:
    """The SQL-level laws, executed end to end through the executor."""

    def test_partition_law(self, db):
        for pred in _predicates(db):
            true_n = _count(db, f"({pred})")
            false_n = _count(db, f"NOT ({pred})")
            unknown_n = _count(db, f"({pred}) IS NULL")
            assert true_n + false_n + unknown_n == N_USERS, pred

    def test_double_negation(self, db):
        for pred in _predicates(db, count=12):
            assert _count(db, f"({pred})") == _count(
                db, f"NOT (NOT ({pred}))"
            ), pred

    def test_de_morgan(self, db):
        preds = _predicates(db, count=12)
        for p, q in zip(preds[::2], preds[1::2]):
            assert _count(db, f"NOT (({p}) AND ({q}))") == _count(
                db, f"(NOT ({p})) OR (NOT ({q}))"
            ), (p, q)

    def test_predicate_tightening_is_monotone(self, db):
        # ANDing any conjunct can only shrink the row set — the law the
        # profiling loop's cost model leans on.
        for p, q in zip(_predicates(db, 8), _predicates(db, 16)[8:]):
            assert _count(db, f"({p}) AND ({q})") <= _count(
                db, f"({p})"
            ), (p, q)

    def test_row_and_vec_agree_on_every_law_input(self, db):
        for pred in _predicates(db):
            for spelled in (f"({pred})", f"NOT ({pred})", f"({pred}) IS NULL"):
                with row_at_a_time():
                    row = _count(db, spelled)
                assert _count(db, spelled) == row, spelled

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("(t0.city = NULL) AND (t0.user_id >= 0)", 0),
            ("(t0.city = NULL) OR (t0.user_id >= 0)", N_USERS),
            ("NOT (t0.city = NULL)", 0),
            ("((t0.city = NULL)) IS NULL", N_USERS),
        ],
    )
    def test_pinned_truth_table_rows(self, db, expr, expected):
        assert _count(db, expr) == expected, expr
