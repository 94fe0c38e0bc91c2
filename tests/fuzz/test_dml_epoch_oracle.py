"""DmlEpochOracle: planted stale-cache bugs are caught, shrunk, recorded.

The acceptance scenario for the write-path oracle mirrors the read-path
one in ``test_shrink.py``: plant a bug an engine change could realistically
introduce, run the fuzz pipeline over a sprawling DML statement, and
require the oracle to flag it, ddmin to reduce it to a <= 3-clause
reproducer, and the corpus to record it.

Two distinct plants cover both halves of the epoch/invalidate contract:

* ``note_mutation`` commits data but forgets the epoch bump — the cheap
  regression where a new commit path skips invalidation entirely;
* the EXPLAIN cache ignores the epoch — data commits, the epoch moves,
  but cached costings survive invalidation and a post-DML probe serves
  the pre-mutation estimate.
"""

from __future__ import annotations

import json

from repro.fastpath.cache import ExplainCache
from repro.fuzz import (
    Corpus,
    FuzzRunner,
    build_fuzz_database,
    clause_count,
    default_oracles,
)
from repro.fuzz.grammar import GeneratedStatement
from repro.fuzz.oracles import SKIPPED, DmlEpochOracle
from repro.sqldb.catalog import Catalog

PLANTED_UPDATE = (
    "UPDATE users SET age = age + 1, city = 'metropolis' "
    "WHERE (users.age BETWEEN 30 AND 40 AND users.name LIKE 'user_1%') "
    "OR users.city IS NULL"
)

PLANTED_DELETE = (
    "DELETE FROM orders "
    "WHERE (orders.amount > 50.0 AND orders.status IN ('new', 'paid')) "
    "OR orders.item_id IS NULL"
)


def _plant_missing_epoch_bump(monkeypatch):
    """Commit DML without invalidating: ``note_mutation`` runs its data
    publication but the epoch stays put."""
    monkeypatch.setattr(
        Catalog, "bump_statistics_epoch", lambda self: None
    )


def _plant_epoch_blind_cache(monkeypatch):
    """The EXPLAIN cache stops honoring the epoch: entries warmed before a
    mutation survive it and keep being served afterwards."""
    original = ExplainCache.get_or_compute

    def pinned(self, key, epoch, compute):
        return original(self, key, 0, compute)

    monkeypatch.setattr(ExplainCache, "get_or_compute", pinned)


def _run_planted(db, sql, shape, tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    runner = FuzzRunner(
        db=db,
        seed=0,
        oracles=[DmlEpochOracle()],
        corpus=corpus,
        shrink=True,
    )
    gen = GeneratedStatement(index=0, sql=sql, shape=shape)
    runner.grammar.statement = lambda index: gen  # inject the case
    return runner.run(budget=1), tmp_path / "corpus"


class TestMissingEpochBump:
    def test_oracle_catches_and_shrinker_minimizes(self, monkeypatch, tmp_path):
        _plant_missing_epoch_bump(monkeypatch)
        db = build_fuzz_database(0)
        report, corpus_dir = _run_planted(db, PLANTED_UPDATE, "update", tmp_path)

        assert not report.ok
        [disagreement] = report.disagreements
        assert disagreement.oracle == "dml_epoch"
        assert "statistics_epoch did not advance" in disagreement.detail

        shrunk = disagreement.shrunk_sql
        assert shrunk is not None
        assert shrunk.startswith("UPDATE")
        assert clause_count(shrunk) <= 3
        assert len(shrunk) < len(PLANTED_UPDATE)
        # The WHERE noise is gone: any committed DML reproduces the bug.
        for gone in ("BETWEEN", "LIKE", "IS NULL"):
            assert gone not in shrunk, shrunk

        [entry_file] = sorted(corpus_dir.glob("*.json"))
        data = json.loads(entry_file.read_text())
        assert data["sql"] == shrunk
        assert data["oracle"] == "dml_epoch"
        assert data["shrunk_from"] == PLANTED_UPDATE
        assert report.corpus_added == [data["entry_id"]]

    def test_without_bug_the_same_statement_passes(self):
        db = build_fuzz_database(0)
        runner = FuzzRunner(db=db, seed=0, oracles=[DmlEpochOracle()])
        gen = GeneratedStatement(index=0, sql=PLANTED_UPDATE, shape="update")
        runner.grammar.statement = lambda index: gen
        report = runner.run(budget=1)
        assert report.ok, report.to_json()


class TestEpochBlindCache:
    def test_stale_costing_is_flagged_and_shrunk(self, monkeypatch, tmp_path):
        _plant_epoch_blind_cache(monkeypatch)
        db = build_fuzz_database(0)
        report, corpus_dir = _run_planted(db, PLANTED_DELETE, "delete", tmp_path)

        assert not report.ok
        [disagreement] = report.disagreements
        assert disagreement.oracle == "dml_epoch"
        # The epoch itself moved; the stale costing shows up either as a
        # cached-vs-cold probe mismatch or a probe-vs-rowcount mismatch.
        assert "statistics_epoch did not advance" not in disagreement.detail

        shrunk = disagreement.shrunk_sql
        assert shrunk is not None
        assert shrunk.startswith("DELETE")
        assert clause_count(shrunk) <= 3
        for gone in ("BETWEEN", "IN (", "IS NULL"):
            assert gone not in shrunk, shrunk

        [entry_file] = sorted(corpus_dir.glob("*.json"))
        data = json.loads(entry_file.read_text())
        assert data["sql"] == shrunk
        assert data["oracle"] == "dml_epoch"

    def test_without_bug_the_same_statement_passes(self):
        db = build_fuzz_database(0)
        runner = FuzzRunner(db=db, seed=0, oracles=[DmlEpochOracle()])
        gen = GeneratedStatement(index=0, sql=PLANTED_DELETE, shape="delete")
        runner.grammar.statement = lambda index: gen
        report = runner.run(budget=1)
        assert report.ok, report.to_json()


class TestOracleWiring:
    def test_dml_epoch_is_a_default_oracle(self):
        names = [oracle.name for oracle in default_oracles()]
        assert "dml_epoch" in names
        # One executor is left, so the row-vs-vec oracle is gone.
        assert names == [
            "round_trip", "explain_cache", "compiled_template", "execution",
            "dml_epoch", "parallel_profiler",
        ]

    def test_oracle_skips_selects(self):
        db = build_fuzz_database(0)
        runner = FuzzRunner(db=db, seed=0, oracles=[DmlEpochOracle()])
        gen = GeneratedStatement(
            index=0, sql="SELECT t0.user_id FROM users AS t0", shape="simple"
        )
        outcome = DmlEpochOracle().check(runner.ctx, gen)
        assert outcome is SKIPPED
