"""The governor under the array-at-a-time executor.

The executor materializes each operator's output as one batch of numpy
columns and charges the governor at those boundaries: one
``begin_operator`` before the operator runs, one ``charge_frame`` after.
Its whole-array kernels (hash-join matching, TEXT factorization and
comparison) must charge exactly what their row-at-a-time references in
``tests/sqldb/row_reference.py`` charged, and quarantine decisions must
not depend on fan-out.  Below, "row" labels a run on those references and
"vec" a run on the array kernels.
"""

from __future__ import annotations

import pytest

from repro.core import BarberConfig, SQLBarber
from repro.governor import GovernorLimits, QueryGovernor, clock_for, use_governor
from repro.llm import SimulatedLLM
from repro.obs import Telemetry
from repro.sqldb import (
    MemoryBudgetExceeded,
    QueryTimeout,
    RowBudgetExceeded,
)
from repro.sqldb.errors import QueryCancelled

from tests.sqldb.row_reference import row_at_a_time

SEED = 3

ORDERS_SCAN = "SELECT * FROM orders WHERE orders.amount > 10.0"
ORDERS_SORTED = ORDERS_SCAN + " ORDER BY orders.amount"
GROUPED = (
    "SELECT orders.status, count(*) AS n, sum(orders.amount) AS total "
    "FROM orders GROUP BY orders.status"
)
JOINED = (
    "SELECT users.name, orders.amount FROM users "
    "JOIN orders ON users.user_id = orders.user_id "
    "WHERE orders.amount > 50.0"
)


def governed(**limits):
    return QueryGovernor(GovernorLimits(**limits), clock=clock_for("simulated"))


class TestSingleBatchAccountingParity:
    """The array kernels charge exactly what the row-at-a-time ones did."""

    @pytest.mark.parametrize(
        "sql", [ORDERS_SCAN, ORDERS_SORTED, GROUPED, JOINED]
    )
    def test_stats_identical_to_row_executor(self, gov_db, sql):
        stats = {}
        for label in ("row", "vec"):
            gov = governed(row_budget=10_000_000, memory_budget_bytes=1 << 30)
            with use_governor(gov):
                if label == "row":
                    with row_at_a_time():
                        result = gov_db.execute(sql)
                else:
                    result = gov_db.execute(sql)
            stats[label] = (result.row_count, gov.stats())
        assert stats["row"] == stats["vec"], sql
        assert stats["vec"][1]["rows_processed"] > 0

    def test_rows_processed_is_deterministic_under_vec(self, gov_db):
        seen = []
        for _ in range(2):
            gov = governed(row_budget=10_000_000)
            with use_governor(gov):
                gov_db.execute(ORDERS_SORTED)
            seen.append(gov.stats())
        assert seen[0] == seen[1]


class TestBatchBoundaryBudgets:
    """Budgets trip at operator boundaries, before or after each batch."""

    def test_same_error_type_as_the_row_executor(self, gov_db):
        # The join's pre-admission refuses the same pair count, with the
        # same message, whichever matcher counted the pairs.
        outcomes = {}
        for label in ("row", "vec"):
            gov = governed(row_budget=700)
            with use_governor(gov):
                with pytest.raises(RowBudgetExceeded) as excinfo:
                    if label == "row":
                        with row_at_a_time():
                            gov_db.execute(JOINED)
                    else:
                        gov_db.execute(JOINED)
            outcomes[label] = (type(excinfo.value).__name__, str(excinfo.value))
        assert outcomes["row"] == outcomes["vec"]
        assert "would materialize" in outcomes["vec"][1]

    def test_memory_budget_trips_in_single_batch_mode(self, gov_db):
        with use_governor(governed(memory_budget_bytes=1_000)):
            with pytest.raises(MemoryBudgetExceeded):
                gov_db.execute("SELECT * FROM orders")

    def test_charged_deadline_trips_under_vec(self, gov_db):
        gov = governed(query_timeout_seconds=0.01, cost_per_row_seconds=1e-3)
        with use_governor(gov):
            with pytest.raises(QueryTimeout):
                gov_db.execute(ORDERS_SORTED)

    def test_generous_limits_change_nothing_under_vec(self, gov_db):
        bare = gov_db.execute(ORDERS_SCAN)
        gov = governed(
            query_timeout_seconds=300.0,
            row_budget=10_000_000,
            memory_budget_bytes=1 << 30,
        )
        with use_governor(gov):
            ruled = gov_db.execute(ORDERS_SCAN)
        assert ruled.row_count == bare.row_count
        assert gov.rows_processed > 0


class _CancelAtBatch(QueryGovernor):
    """Flips the cooperative-cancel flag after *after* charged batches."""

    def __init__(self, limits, after, **kwargs):
        super().__init__(limits, **kwargs)
        self.charged_batches = 0
        self._after = after

    def charge_frame(self, node_name, rows, est_bytes):
        super().charge_frame(node_name, rows, est_bytes)
        self.charged_batches += 1
        if self.charged_batches == self._after:
            self.cancel("test: batch boundary reached")


class TestCooperativeCancel:
    def test_pre_cancelled_governor_refuses_the_query(self, gov_db):
        gov = governed()
        gov.cancel("benched before start")
        with use_governor(gov):
            with pytest.raises(QueryCancelled, match="benched"):
                gov_db.execute("SELECT * FROM orders")

    def test_cancel_lands_at_the_next_batch_boundary(self, gov_db):
        gov = _CancelAtBatch(
            GovernorLimits(row_budget=10_000_000),
            after=3,
            clock=clock_for("simulated"),
        )
        with use_governor(gov):
            with pytest.raises(QueryCancelled):
                gov_db.execute(JOINED + " ORDER BY orders.amount")
        # Two scans and the join were charged; the cancel raised at the
        # next operator's boundary, so nothing after the join was charged.
        assert gov.charged_batches == 3


def governed_barber(gov_db, **overrides):
    base = dict(
        seed=SEED,
        row_budget=5_000,
        query_timeout_seconds=2.0,
        governor_cost_per_row_seconds=1e-4,
        governor_clock="simulated",
        quarantine_after=2,
    )
    base.update(overrides)
    return SQLBarber(
        gov_db, llm=SimulatedLLM(seed=SEED), config=BarberConfig(**base)
    )


def run(barber, planted_templates, rows_distribution):
    return barber.generate_workload(
        [],
        rows_distribution,
        templates=list(planted_templates),
        telemetry=Telemetry(),
    )


class TestQuarantineUnderVectorization:
    """Quarantine decisions depend on neither fan-out nor the kernels."""

    def test_serial_and_parallel_runs_bit_identical(
        self, gov_db, planted_templates, rows_distribution
    ):
        serial = run(
            governed_barber(gov_db, workers=1),
            planted_templates, rows_distribution,
        )
        fanned = run(
            governed_barber(gov_db, workers=3, parallel_backend="thread"),
            planted_templates, rows_distribution,
        )
        assert any(q.template_id == "runaway" for q in serial.quarantined)
        assert serial.fingerprint_json() == fanned.fingerprint_json()
        assert [q.to_dict() for q in serial.quarantined] == [
            q.to_dict() for q in fanned.quarantined
        ]
        assert serial.complete and fanned.complete

    def test_quarantine_decisions_match_the_row_executor(
        self, gov_db, planted_templates, rows_distribution
    ):
        vec = run(
            governed_barber(gov_db),
            planted_templates, rows_distribution,
        )
        with row_at_a_time():
            row = run(
                governed_barber(gov_db),
                planted_templates, rows_distribution,
            )
        assert [q.to_dict() for q in vec.quarantined] == [
            q.to_dict() for q in row.quarantined
        ]
        assert any(q.template_id == "runaway" for q in vec.quarantined)
        assert vec.fingerprint_json() == row.fingerprint_json()
        assert vec.complete and row.complete
