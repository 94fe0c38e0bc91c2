"""Golden behaviour pins: digests of what the executor and pipeline output.

Two files sit next to this module:

* ``executor_pins.json`` -- one digest per statement for every fuzz-corpus
  statement and for the 500-statement ``SELECT_SHAPES`` grammar sweep
  (seed 23) on ``build_fuzz_database(0)``.  A digest covers the result
  table (column names, SQL types, numpy dtypes, rows in order with floats
  as ``repr``) or, for a failing statement, the error's type and message.
* ``workload_pins.json`` -- ``WorkloadResult.fingerprint()`` digests of two
  TPC-H ``actual_rows`` runs (4 queries x 2 intervals, 2 Redset specs).

``test_golden.py`` recomputes both.  A change that moves a pin has changed
what the program outputs; regenerate only when that is the intent, and
say in CHANGES.md why the output moved:

    PYTHONPATH=src python -m tests.golden.pins
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_DIR = HERE.parent / "fuzz" / "corpus"
EXECUTOR_PINS = HERE / "executor_pins.json"
WORKLOAD_PINS = HERE / "workload_pins.json"

GRAMMAR_SEED = 23
GRAMMAR_SWEEP = 500
#: Job seeds of the pinned ``actual_rows`` runs.
WORKLOAD_SEEDS = (33, 15)


def _digest(payload) -> str:
    text = json.dumps(payload, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table_fingerprint(table) -> list:
    """Names, SQL types, dtypes and ordered rows (floats bit-exact via repr)."""
    return [
        list(table.column_names),
        [c.sql_type.value for c in table.columns],
        [str(c.data.dtype) for c in table.columns],
        [
            [repr(v) if isinstance(v, float) else v for v in row]
            for row in table.rows()
        ],
    ]


def statement_digest(db, sql: str) -> str:
    """Digest of executing *sql*: its result table or its error."""
    from repro.sqldb.errors import SqlError

    try:
        table = db.execute(sql).table
    except SqlError as exc:
        return _digest(["error", type(exc).__name__, str(exc)])
    return _digest(["ok", table_fingerprint(table)])


def corpus_sqls() -> list[str]:
    sqls = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        entry = json.loads(path.read_text())
        sqls.append(entry["sql"])
        if entry.get("tightened_sql"):
            sqls.append(entry["tightened_sql"])
    return sqls


def sweep_sqls(db) -> list[str]:
    from repro.fuzz import SELECT_SHAPES, FuzzGrammar

    statements = FuzzGrammar(db.catalog, seed=GRAMMAR_SEED).statements(
        GRAMMAR_SWEEP, shapes=SELECT_SHAPES
    )
    return [gen.sql for gen in statements]


def executor_pins(db) -> dict:
    """``{"corpus": [...], "grammar": [...]}`` of ``[sql, result]`` digests."""
    return {
        section: [
            [_digest(sql), statement_digest(db, sql)] for sql in sqls
        ]
        for section, sqls in (
            ("corpus", corpus_sqls()),
            ("grammar", sweep_sqls(db)),
        )
    }


def workload_digest(db, seed: int) -> str:
    """Fingerprint digest of one pinned TPC-H ``actual_rows`` run."""
    from repro.core import BarberConfig, SQLBarber
    from repro.datasets import redset_spec_workload
    from repro.workload import CostDistribution

    specs = redset_spec_workload(num_specs=2, seed=seed)
    distribution = CostDistribution.uniform(
        0.0, 10_000.0, 4, 2, cost_type="actual_rows"
    )
    db.explain_cache.clear()
    result = SQLBarber(db, config=BarberConfig(seed=seed)).generate_workload(
        specs, distribution
    )
    return hashlib.sha256(result.fingerprint_json().encode("utf-8")).hexdigest()


def workload_pins(db) -> dict:
    return {f"tpch_actual_rows_seed{seed}": workload_digest(db, seed)
            for seed in WORKLOAD_SEEDS}


def main() -> None:
    from repro.datasets import build_database
    from repro.fuzz import build_fuzz_database

    sections = executor_pins(build_fuzz_database(0))
    EXECUTOR_PINS.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: [\n"
            + ",\n".join(json.dumps(pair) for pair in pairs)
            + "\n]"
            for name, pairs in sections.items()
        )
        + "\n}\n"
    )
    WORKLOAD_PINS.write_text(
        json.dumps(workload_pins(build_database("tpch")), indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
