"""Recompute the golden pins and compare them with the committed ones.

These are the executor's strongest check: every fuzz-corpus statement and
every statement of a 500-statement grammar sweep must produce the exact
result table (or the exact error) it produced when the pins were taken,
and two end-to-end ``actual_rows`` runs must produce the same workload
fingerprint.  See ``pins.py`` for what a digest covers and how to
regenerate the files when an output change is intended.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import build_database
from repro.fuzz import build_fuzz_database

from . import pins


@pytest.fixture(scope="module")
def fuzz_db():
    return build_fuzz_database(0)


@pytest.fixture(scope="module")
def expected_executor():
    return json.loads(pins.EXECUTOR_PINS.read_text())


@pytest.mark.parametrize("section", ["corpus", "grammar"])
def test_executor_pins(fuzz_db, expected_executor, section):
    expected = expected_executor[section]
    sqls = pins.corpus_sqls() if section == "corpus" else pins.sweep_sqls(fuzz_db)
    assert len(sqls) == len(expected)
    moved = []
    for index, (sql, (sql_digest, result_digest)) in enumerate(
        zip(sqls, expected)
    ):
        assert pins._digest(sql) == sql_digest, (
            f"{section}[{index}]: the statement itself changed: {sql!r}"
        )
        if pins.statement_digest(fuzz_db, sql) != result_digest:
            moved.append((index, sql))
    assert not moved, f"{len(moved)} results moved, first: {moved[0]!r}"


def test_grammar_sweep_is_pinned_in_full(expected_executor):
    assert len(expected_executor["grammar"]) == pins.GRAMMAR_SWEEP
    assert expected_executor["corpus"], "fuzz regression corpus is empty"


def test_workload_pins():
    expected = json.loads(pins.WORKLOAD_PINS.read_text())
    db = build_database("tpch")
    assert pins.workload_pins(db) == expected
