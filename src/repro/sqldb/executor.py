"""Plan execution over columnar batches.

The executor is materializing: every operator consumes and produces a whole
:class:`~repro.sqldb.storage.Table` whose columns are keyed
``binding.column`` until projection gives them their output names.  Aggregate
results ride alongside the representative-row table so HAVING, ORDER BY, and
the projection can all reference them by AST node identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Module-object import (not a name import): repro.governor.context and
# repro.sqldb import each other, and either may begin initializing first.
# Binding the module keeps the import cycle-safe in both directions; the
# attribute is resolved at call time, when both modules are fully loaded.
import repro.governor.context as _governor_context

# Same pattern for the operator profiler: the arming state is ambient
# (contextvars set by repro.obs), read once per statement in execute() and
# once per operator boundary in _run() — never inside a row loop.
import repro.obs.profile as _obs_profile

from . import ast_nodes as ast
from .errors import ConstraintError, ExecutionError
from .expr_eval import EvalContext, SubqueryValue, Vec, evaluate, truthy
from .catalog import Catalog
from .plan_nodes import (
    AggregateNode,
    AppendNode,
    DeleteNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    InsertNode,
    LimitNode,
    NestedLoopJoinNode,
    Plan,
    PlanNode,
    ProjectNode,
    ResultNode,
    SeqScanNode,
    SortNode,
    SubqueryScanNode,
    UpdateNode,
)
from .storage import Column, Table
from .types import SqlType, date_to_days, days_to_date


@dataclass
class _Frame:
    """An intermediate result: qualified columns plus aggregate side-band."""

    columns: dict[str, Column]
    row_count: int
    aggregate_values: dict[int, Vec] = field(default_factory=dict)

    def context(self, subquery_values: dict[int, SubqueryValue]) -> EvalContext:
        vectors = {name: Vec.from_column(col) for name, col in self.columns.items()}
        return EvalContext(
            vectors, self.row_count, self.aggregate_values, subquery_values
        )

    def filter(self, keep: np.ndarray) -> "_Frame":
        columns = {name: col.filter(keep) for name, col in self.columns.items()}
        aggregates = {
            key: Vec(
                vec.data[keep],
                None if vec.mask is None else vec.mask[keep],
                vec.sql_type,
            )
            for key, vec in self.aggregate_values.items()
        }
        return _Frame(columns, int(keep.sum()), aggregates)

    def take(self, indices: np.ndarray) -> "_Frame":
        columns = {name: col.take(indices) for name, col in self.columns.items()}
        aggregates = {
            key: Vec(
                vec.data[indices],
                None if vec.mask is None else vec.mask[indices],
                vec.sql_type,
            )
            for key, vec in self.aggregate_values.items()
        }
        return _Frame(columns, len(indices), aggregates)


class Executor:
    """Executes physical plans against the catalog's stored tables."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def execute(self, plan: Plan) -> Table:
        """Run *plan* and return the result with its output column names.

        When operator profiling is armed (ambient telemetry with
        ``profile=True``, or a :func:`~repro.obs.profile.capture_profile`
        block), the outermost execute() of a statement opens a
        :class:`~repro.obs.profile.ProfileRun`; nested execute() calls
        (subquery scans, UNION branches) join the in-flight run so their
        operators land under the enclosing operator's subtree.
        """
        if _obs_profile.ACTIVE_RUN.get() is None:
            target = _obs_profile.capture_target()
            if target is not None:
                run = _obs_profile.ProfileRun()
                token = _obs_profile.ACTIVE_RUN.set(run)
                try:
                    result = self._execute(plan)
                finally:
                    _obs_profile.ACTIVE_RUN.reset(token)
                target.record(run.finalize())
                return result
        return self._execute(plan)

    def _execute(self, plan: Plan) -> Table:
        subquery_values = {
            node_id: self._run_subplan(subplan.kind, subplan.plan)
            for node_id, subplan in plan.subplans.items()
        }
        frame = self._run(plan.root, subquery_values)
        columns = list(frame.columns.values())
        # Projection already renamed columns; assert the schema lines up.
        if plan.output_names and len(columns) == len(plan.output_names):
            columns = [
                Column(name, col.sql_type, col.data, col.null_mask)
                for name, col in zip(plan.output_names, columns)
            ]
        return Table("result", columns)

    def _run_subplan(self, kind: str, plan: Plan) -> SubqueryValue:
        result = self.execute(plan)
        if kind == "exists":
            return SubqueryValue(kind="exists", exists=result.row_count > 0)
        if not result.columns:
            raise ExecutionError("subquery returned no columns")
        first = result.columns[0]
        if kind == "in":
            values = first.non_null_values()
            return SubqueryValue(kind="in", values=values, had_null=first.has_nulls)
        # scalar
        if result.row_count == 0:
            return SubqueryValue(kind="scalar", scalar=None, scalar_type=first.sql_type)
        if result.row_count > 1:
            raise ExecutionError("more than one row returned by a scalar subquery")
        is_null = first.null_mask is not None and bool(first.null_mask[0])
        scalar = None if is_null else _to_python(first.data[0])
        return SubqueryValue(kind="scalar", scalar=scalar, scalar_type=first.sql_type)

    # -- dispatch ---------------------------------------------------------------

    def _run(
        self, node: PlanNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        """One operator boundary — where the governor gets its say.

        The materializing executor's analogue of a volcano ``next()`` call:
        before an operator runs, the ambient governor (if any) checks the
        deadline and injects engine faults; after it materializes, its
        output frame is charged against the row and memory budgets and (when
        profiling is armed) recorded into the statement's profile tree.
        """
        governor = _governor_context.current_governor()
        run = _obs_profile.ACTIVE_RUN.get()
        if governor is None and run is None:
            return self._dispatch(node, subquery_values)
        if run is None:
            return self._run_governed(governor, node, subquery_values)
        profile, started = run.enter(node)
        rows = 0
        try:
            if governor is None:
                frame = self._dispatch(node, subquery_values)
            else:
                frame = self._run_governed(governor, node, subquery_values)
            rows = frame.row_count
            return frame
        finally:
            run.exit(profile, started, rows)

    def _run_governed(
        self, governor, node: PlanNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        name = type(node).__name__
        governor.begin_operator(name)
        frame = self._dispatch(node, subquery_values)
        governor.charge_frame(name, frame.row_count, _frame_bytes(frame))
        return frame

    def _dispatch(
        self, node: PlanNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        if isinstance(node, (SeqScanNode, IndexScanNode)):
            return self._run_scan(node, subquery_values)
        if isinstance(node, SubqueryScanNode):
            return self._run_subquery_scan(node, subquery_values)
        if isinstance(node, HashJoinNode):
            return self._run_hash_join(node, subquery_values)
        if isinstance(node, NestedLoopJoinNode):
            return self._run_nested_loop(node, subquery_values)
        if isinstance(node, FilterNode):
            frame = self._run(node.child, subquery_values)
            return self._apply_filter(frame, node.condition, subquery_values)
        if isinstance(node, AggregateNode):
            return self._run_aggregate(node, subquery_values)
        if isinstance(node, SortNode):
            return self._run_sort(node, subquery_values)
        if isinstance(node, ProjectNode):
            return self._run_project(node, subquery_values)
        if isinstance(node, DistinctNode):
            return self._run_distinct(node, subquery_values)
        if isinstance(node, LimitNode):
            return self._run_limit(node, subquery_values)
        if isinstance(node, ResultNode):
            return self._run_result(node, subquery_values)
        if isinstance(node, AppendNode):
            return self._run_append(node)
        if isinstance(node, InsertNode):
            return self._run_insert(node, subquery_values)
        if isinstance(node, UpdateNode):
            return self._run_update(node, subquery_values)
        if isinstance(node, DeleteNode):
            return self._run_delete(node, subquery_values)
        raise ExecutionError(f"cannot execute node {type(node).__name__}")

    # -- scans --------------------------------------------------------------------

    def _run_scan(
        self,
        node: SeqScanNode | IndexScanNode,
        subquery_values: dict[int, SubqueryValue],
    ) -> _Frame:
        data = self._catalog.data(node.table_name)
        columns = {
            f"{node.binding}.{col.name}": col for col in data.columns
        }
        frame = _Frame(columns, data.row_count)
        return self._apply_filter(frame, node.filter, subquery_values)

    def _run_subquery_scan(
        self, node: SubqueryScanNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        result = self.execute(node.subplan)
        columns = {f"{node.alias}.{col.name}": col for col in result.columns}
        frame = _Frame(columns, result.row_count)
        return self._apply_filter(frame, node.filter, subquery_values)

    def _apply_filter(
        self,
        frame: _Frame,
        condition: ast.Expression | None,
        subquery_values: dict[int, SubqueryValue],
    ) -> _Frame:
        if condition is None:
            return frame
        keep = truthy(evaluate(condition, frame.context(subquery_values)))
        return frame.filter(keep)

    # -- joins ---------------------------------------------------------------------

    def _run_hash_join(
        self, node: HashJoinNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        left = self._run(node.left, subquery_values)
        right = self._run(node.right, subquery_values)
        left_context = left.context(subquery_values)
        right_context = right.context(subquery_values)
        left_codes, right_codes = join_key_codes(
            [evaluate(k, left_context) for k in node.left_keys],
            [evaluate(k, right_context) for k in node.right_keys],
        )
        governor = _governor_context.current_governor()
        admit = None
        if governor is not None:
            # The match count is exact before any pair exists, so a skewed
            # key that would explode the output quadratically is refused
            # before it is materialized, as for the nested-loop product.
            row_bytes = _row_bytes(left) + _row_bytes(right)

            def admit(pairs: int) -> None:
                governor.admit(pairs, pairs * row_bytes, "HashJoinNode")

        li, ri = match_join_codes(left_codes, right_codes, admit)
        matched_left = np.zeros(left.row_count, dtype=bool)
        matched_right = np.zeros(right.row_count, dtype=bool)
        joined = _combine_frames(left.take(li), right.take(ri))
        if node.residual is not None:
            keep = truthy(
                evaluate(node.residual, joined.context(subquery_values))
            )
            joined = joined.filter(keep)
            li, ri = li[keep], ri[keep]
        matched_left[li] = True
        matched_right[ri] = True
        if node.join_type in ("left", "full"):
            joined = _append_outer_rows(joined, left, right, ~matched_left, side="left")
        if node.join_type in ("right", "full"):
            joined = _append_outer_rows(joined, left, right, ~matched_right, side="right")
        return joined

    def _run_nested_loop(
        self, node: NestedLoopJoinNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        left = self._run(node.left, subquery_values)
        right = self._run(node.right, subquery_values)
        governor = _governor_context.current_governor()
        if governor is not None:
            # Pre-admit the cross product before np.repeat materializes it —
            # this is the operator that turns a hallucinated comma join into
            # an allocation the process may not survive.
            product = left.row_count * right.row_count
            governor.admit(
                product,
                product * (_row_bytes(left) + _row_bytes(right)),
                "NestedLoopJoinNode",
            )
        li = np.repeat(np.arange(left.row_count), right.row_count)
        ri = np.tile(np.arange(right.row_count), left.row_count)
        joined = _combine_frames(left.take(li), right.take(ri))
        if node.condition is not None:
            keep = truthy(
                evaluate(node.condition, joined.context(subquery_values))
            )
            if node.join_type == "left":
                matched = np.zeros(left.row_count, dtype=bool)
                matched[li[keep]] = True
                joined = joined.filter(keep)
                joined = _append_outer_rows(joined, left, right, ~matched, side="left")
                return joined
            joined = joined.filter(keep)
        return joined

    # -- aggregation -----------------------------------------------------------------

    def _run_aggregate(
        self, node: AggregateNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        child = self._run(node.child, subquery_values)
        context = child.context(subquery_values)
        if node.group_exprs:
            key_vecs = [evaluate(g, context) for g in node.group_exprs]
            codes, num_groups = _factorize_many(key_vecs, child.row_count)
        else:
            codes = np.zeros(child.row_count, dtype=np.int64)
            num_groups = 1  # global aggregate: one group even over zero rows
        representatives = _first_index_per_group(codes, num_groups, child.row_count)
        aggregates: dict[int, Vec] = {}
        for call in node.aggregate_calls:
            if id(call) not in aggregates:
                aggregates[id(call)] = _compute_aggregate(
                    call, codes, num_groups, context
                )
        frame = child.take(representatives)
        frame.aggregate_values = aggregates
        frame.row_count = num_groups
        if node.having is not None:
            keep = truthy(evaluate(node.having, frame.context(subquery_values)))
            frame = frame.filter(keep)
        return frame

    # -- sort / project / distinct / limit ----------------------------------------------

    def _run_sort(
        self, node: SortNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        frame = self._run(node.child, subquery_values)
        if frame.row_count <= 1 or not node.order_items:
            return frame
        governor = _governor_context.current_governor()
        context = frame.context(subquery_values)
        keys: list[np.ndarray] = []
        for order in node.order_items:
            vec = evaluate(order.expression, context)
            keys.append(_sort_key(vec, order.descending))
            if governor is not None:
                # Each key materializes a full-width float array; re-check
                # between keys rather than only after the whole sort.
                governor.check()
        # np.lexsort sorts by the last key first.
        order_idx = np.lexsort(tuple(reversed(keys)))
        return frame.take(order_idx)

    def _run_project(
        self, node: ProjectNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        frame = self._run(node.child, subquery_values)
        context = frame.context(subquery_values)
        columns: dict[str, Column] = {}
        for name, item in zip(node.output_names, node.items):
            vec = evaluate(item.expression, context)
            columns[name] = vec.to_column(name)
        return _Frame(columns, frame.row_count)

    def _run_distinct(
        self, node: DistinctNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        frame = self._run(node.child, subquery_values)
        if frame.row_count == 0:
            return frame
        vecs = [Vec.from_column(col) for col in frame.columns.values()]
        codes, num_groups = _factorize_many(vecs, frame.row_count)
        firsts = _first_index_per_group(codes, num_groups, frame.row_count)
        firsts.sort()  # keep first occurrences in their original order
        return frame.take(firsts)

    def _run_limit(
        self, node: LimitNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        frame = self._run(node.child, subquery_values)
        start = node.offset or 0
        stop = frame.row_count if node.limit is None else start + node.limit
        indices = np.arange(start, min(stop, frame.row_count), dtype=np.int64)
        return frame.take(indices)

    def _run_append(self, node: AppendNode) -> _Frame:
        """UNION [ALL]: run each branch and concatenate positionally."""
        tables = [self.execute(plan) for plan in node.plans]
        first = tables[0]
        columns: dict[str, Column] = {}
        for index, proto in enumerate(first.columns):
            branch_columns = [t.columns[index] for t in tables]
            columns[f"__u{index}.{proto.name}"] = _concat_columns(
                proto.name, branch_columns
            )
        frame = _Frame(columns, sum(t.row_count for t in tables))
        if node.deduplicate and frame.row_count:
            vecs = [Vec.from_column(c) for c in frame.columns.values()]
            codes, num_groups = _factorize_many(vecs, frame.row_count)
            firsts = _first_index_per_group(codes, num_groups, frame.row_count)
            firsts.sort()
            frame = frame.take(firsts)
        return frame

    def _run_result(
        self, node: ResultNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        context = EvalContext({}, 1, {}, subquery_values)
        columns: dict[str, Column] = {}
        for name, item in zip(node.output_names, node.items):
            vec = evaluate(item.expression, context)
            columns[name] = vec.to_column(name)
        return _Frame(columns, 1)

    # -- DML --------------------------------------------------------------------------
    #
    # The write path is statement-level-atomic: each operator materializes
    # the statement's complete effect on a *new* Table first, and only then
    # publishes it through Catalog.note_mutation (the single commit point).
    # Any error raised earlier — constraint violation, governor budget trip,
    # injected fault — leaves the stored table untouched.

    @staticmethod
    def _dml_frame(count: int) -> _Frame:
        """The one-row ``rows_affected`` result every DML statement returns."""
        column = Column(
            "rows_affected", SqlType.BIGINT, np.array([count], dtype=np.int64)
        )
        return _Frame({"rows_affected": column}, 1)

    def _run_insert(
        self, node: InsertNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        meta = self._catalog.table(node.table_name)
        data = self._catalog.data(node.table_name)
        incoming: dict[str, list] = {}
        if node.source is not None:
            result = self.execute(node.source)
            count = result.row_count
            for target_name, col in zip(node.columns, result.columns):
                target_type = meta.column(target_name).sql_type
                incoming[target_name] = [
                    _convert_write_value(
                        value, col.sql_type, target_type, meta.name, target_name
                    )
                    for value in _column_python_values(col)
                ]
        else:
            count = len(node.rows)
            incoming = {name: [] for name in node.columns}
            context = EvalContext({}, 1, {}, subquery_values)
            for row in node.rows:
                for target_name, expression in zip(node.columns, row):
                    vec = evaluate(expression, context)
                    is_null = vec.mask is not None and bool(vec.mask[0])
                    value = None if is_null else _to_python(vec.data[0])
                    incoming[target_name].append(
                        _convert_write_value(
                            value,
                            vec.sql_type,
                            meta.column(target_name).sql_type,
                            meta.name,
                            target_name,
                        )
                    )
        governor = _governor_context.current_governor()
        if governor is not None:
            governor.admit(count, count * meta.row_width, "InsertNode")
        pieces: list[Column] = []
        for column_meta in meta.columns:
            values = incoming.get(column_meta.name, [None] * count)
            _reject_nulls(meta, column_meta.name, values)
            pieces.append(
                Column.from_values(column_meta.name, column_meta.sql_type, values)
            )
        new_table = data.append_rows(Table(meta.name, pieces))
        _enforce_unique(self._catalog, meta, new_table)
        if governor is not None:
            governor.charge_rows(count)
        self._catalog.note_mutation(meta.name, new_table, appended=count)
        return self._dml_frame(count)

    def _run_update(
        self, node: UpdateNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        meta = self._catalog.table(node.table_name)
        data, frame, keep = self._mutation_scan(node.child, subquery_values)
        positions = np.flatnonzero(keep)
        count = int(len(positions))
        governor = _governor_context.current_governor()
        if governor is not None:
            governor.admit(count, count * meta.row_width, "UpdateNode")
        # Assignments are evaluated over the *matched* rows only, so an
        # expression that would error on an unmatched row (1/y with y = 0,
        # say) cannot fail a statement whose WHERE excludes that row.
        context = frame.filter(keep).context(subquery_values)
        new_table = data
        for assignment in node.assignments:
            vec = evaluate(assignment.value, context)
            column_meta = meta.column(assignment.column)
            values = []
            for i in range(count):
                is_null = vec.mask is not None and bool(vec.mask[i])
                value = None if is_null else _to_python(vec.data[i])
                values.append(
                    _convert_write_value(
                        value,
                        vec.sql_type,
                        column_meta.sql_type,
                        meta.name,
                        assignment.column,
                    )
                )
            _reject_nulls(meta, assignment.column, values)
            old = new_table.column(assignment.column)
            new_data = old.data.copy()
            new_mask = (
                old.null_mask.copy()
                if old.null_mask is not None
                else np.zeros(len(old), dtype=bool)
            )
            for position, value in zip(positions, values):
                if value is None:
                    new_mask[position] = True
                    new_data[position] = None if new_data.dtype == object else 0
                else:
                    new_data[position] = value
                    new_mask[position] = False
            new_table = new_table.with_column(
                Column(
                    old.name,
                    old.sql_type,
                    new_data,
                    new_mask if new_mask.any() else None,
                )
            )
        _enforce_unique(
            self._catalog,
            meta,
            new_table,
            changed_columns={a.column for a in node.assignments},
        )
        if governor is not None:
            governor.charge_rows(count)
        self._catalog.note_mutation(
            meta.name,
            new_table,
            changed_columns=[a.column for a in node.assignments],
        )
        return self._dml_frame(count)

    def _run_delete(
        self, node: DeleteNode, subquery_values: dict[int, SubqueryValue]
    ) -> _Frame:
        meta = self._catalog.table(node.table_name)
        data, frame, keep = self._mutation_scan(node.child, subquery_values)
        count = int(keep.sum())
        governor = _governor_context.current_governor()
        if governor is not None:
            governor.admit(count, 0, "DeleteNode")
        new_table = data.filter(~keep)
        if governor is not None:
            governor.charge_rows(count)
        self._catalog.note_mutation(meta.name, new_table)
        return self._dml_frame(count)

    def _mutation_scan(
        self,
        scan: PlanNode,
        subquery_values: dict[int, SubqueryValue],
    ) -> tuple[Table, _Frame, np.ndarray]:
        """Run an UPDATE/DELETE child scan, keeping base-table row positions.

        The regular scan operator loses positions when it filters, and the
        write path needs them to address rows in place — so the scan is
        inlined here, with the same governor boundary (fault injection,
        deadline check, frame charge) the dispatcher would have applied.
        """
        if not isinstance(scan, (SeqScanNode, IndexScanNode)):
            raise ExecutionError(
                f"unexpected DML child operator {type(scan).__name__}"
            )
        governor = _governor_context.current_governor()
        name = type(scan).__name__
        if governor is not None:
            governor.begin_operator(name)
        data = self._catalog.data(scan.table_name)
        columns = {f"{scan.binding}.{c.name}": c for c in data.columns}
        frame = _Frame(columns, data.row_count)
        if scan.filter is not None:
            keep = truthy(evaluate(scan.filter, frame.context(subquery_values)))
        else:
            keep = np.ones(data.row_count, dtype=bool)
        if governor is not None:
            governor.charge_frame(name, data.row_count, _frame_bytes(frame))
        return data, frame, keep


def _unique_constraints(
    catalog, meta, changed_columns: set[str] | None
) -> list[tuple[str, tuple[str, ...]]]:
    """The uniqueness constraints a write into *meta* must satisfy.

    The primary key is one (possibly composite) constraint; every unique
    index contributes a single-column one.  A unique index whose column is
    the sole primary-key column restates the PK (the catalog auto-creates
    those), so it is folded away.  With *changed_columns* given (UPDATE),
    constraints over untouched columns are skipped: the statement cannot
    have introduced a duplicate there.
    """
    constraints: list[tuple[str, tuple[str, ...]]] = []
    pk = tuple(meta.primary_key)
    if pk:
        constraints.append((f"{meta.name}_pkey", pk))
    for index in catalog.indexes_of(meta.name):
        if not index.unique:
            continue
        if pk == (index.column,):
            continue
        constraints.append((index.name, (index.column,)))
    if changed_columns is not None:
        constraints = [
            entry
            for entry in constraints
            if any(column in changed_columns for column in entry[1])
        ]
    return constraints


def _enforce_unique(
    catalog, meta, new_table: Table, changed_columns: set[str] | None = None
) -> None:
    """Reject *new_table* if any PK/unique-index constraint has a duplicate.

    Runs on the statement's fully-materialized result *before* it is
    published through ``note_mutation``, so a violation rolls the statement
    back completely (the stored table is never touched).  Rows with a NULL
    anywhere in the key never conflict, matching SQL unique-index
    semantics.  The error is positioned (offset 0) so ``attach_source``
    renders a ``LINE 1: ...`` caret snippet like every other engine error.
    """
    for constraint, key_columns in _unique_constraints(
        catalog, meta, changed_columns
    ):
        duplicate = _first_duplicate_key(new_table, key_columns)
        if duplicate is None:
            continue
        keys = ", ".join(key_columns)
        values = ", ".join(repr(v) for v in duplicate)
        raise ConstraintError(
            f'duplicate key value violates unique constraint "{constraint}" '
            f"(Key ({keys})=({values}) already exists)",
            position=0,
        )


def _first_duplicate_key(
    table: Table, key_columns: tuple[str, ...]
) -> tuple | None:
    """The first duplicated key tuple among non-NULL keys, or None."""
    columns = [table.column(name) for name in key_columns]
    if len(columns) == 1:
        column = columns[0]
        data = column.data
        if column.null_mask is not None:
            data = data[~column.null_mask]
        if len(data) <= 1:
            return None
        values, counts = np.unique(data, return_counts=True)
        dupes = values[counts > 1]
        if len(dupes):
            return (_to_python(dupes[0]),)
        return None
    seen: set[tuple] = set()
    for position in range(table.row_count):
        key = []
        for column in columns:
            if column.null_mask is not None and column.null_mask[position]:
                key = None
                break
            key.append(_to_python(column.data[position]))
        if key is None:
            continue
        key = tuple(key)
        if key in seen:
            return key
        seen.add(key)
    return None


def _column_python_values(column: Column) -> list:
    """A column's values as Python objects, NULL as ``None``."""
    values = []
    for i in range(len(column)):
        if column.null_mask is not None and column.null_mask[i]:
            values.append(None)
        else:
            values.append(_to_python(column.data[i]))
    return values


def _convert_write_value(
    value, source_type: SqlType, target_type: SqlType, table: str, column: str
):
    """Coerce one value into the target column's storage representation.

    Mirrors the DDL loader's coercions (ISO date text -> epoch days, numeric
    widening/narrowing); a value the column type cannot hold is a
    :class:`ConstraintError`, the runtime counterpart of the binder's static
    type check.
    """
    if value is None:
        return None
    if hasattr(value, "item"):
        value = value.item()
    try:
        if source_type is SqlType.DATE and target_type is SqlType.TEXT:
            return days_to_date(int(value)).isoformat()
        if target_type is SqlType.DATE:
            if isinstance(value, str):
                return date_to_days(value)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(value)
            return int(value)
        if target_type in (SqlType.INTEGER, SqlType.BIGINT):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(value)
            return int(value)
        if target_type is SqlType.DOUBLE:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(value)
            return float(value)
        if target_type is SqlType.BOOLEAN:
            if not isinstance(value, (bool, int)):
                raise ValueError(value)
            return bool(value)
        if not isinstance(value, str):  # TEXT
            raise ValueError(value)
        return value
    except ValueError:
        raise ConstraintError(
            f'invalid value {value!r} for column "{column}" of type '
            f"{target_type.value} in table {table!r}"
        ) from None


def _reject_nulls(meta, column_name: str, values: list) -> None:
    """NOT NULL enforcement (declared or implied by the primary key)."""
    column_meta = meta.column(column_name)
    nullable = (
        column_meta.column_type.nullable
        and column_name not in meta.primary_key
    )
    if nullable or not any(value is None for value in values):
        return
    raise ConstraintError(
        f'null value in column "{column_name}" of relation '
        f'"{meta.name}" violates not-null constraint'
    )


def _frame_bytes(frame: _Frame) -> int:
    """Estimated bytes held by a materialized frame (governor accounting)."""
    return sum(col.estimated_bytes for col in frame.columns.values())


def _row_bytes(frame: _Frame) -> int:
    """Estimated bytes per row of *frame* (1 minimum, so products stay > 0)."""
    if frame.row_count == 0:
        return 1
    return max(_frame_bytes(frame) // frame.row_count, 1)


# -- join helpers -------------------------------------------------------------------


def join_key_codes(
    left_keys: list[Vec], right_keys: list[Vec]
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize equi-join keys jointly over both sides into int64 codes.

    Two rows get the same code exactly when every key pair is equal under
    the join's equality: numeric keys compare as float64 (so ``-0.0``
    equals ``0.0`` and INTEGER 1 equals DOUBLE 1.0), TEXT keys compare as
    ``str``, and TEXT never equals a number.  A row that can match nothing
    -- a NULL or NaN in any key, or a TEXT/number key pair -- gets ``-1``.
    """
    n_left = len(left_keys[0])
    total = n_left + len(right_keys[0])
    codes = np.zeros(total, dtype=np.int64)
    dead = np.zeros(total, dtype=bool)
    for position, (left, right) in enumerate(zip(left_keys, right_keys)):
        left_text = left.sql_type is SqlType.TEXT
        if total == 0 or left_text != (right.sql_type is SqlType.TEXT):
            dead[:] = True
            break
        if left_text:
            key = _text_codes(np.concatenate([left.data, right.data]))
        else:
            # np.unique groups by ==, so -0.0 and 0.0 share a code.
            values = np.concatenate([
                left.data.astype(np.float64), right.data.astype(np.float64)
            ])
            dead |= np.isnan(values)
            _, key = np.unique(values, return_inverse=True)
        if left.mask is not None:
            dead[:n_left] |= left.mask
        if right.mask is not None:
            dead[n_left:] |= right.mask
        if position == 0:
            codes = key
        else:
            # Mixed radix over the codes so far, re-densified so the next
            # key's product stays far below the int64 range.
            _, codes = np.unique(
                codes * (int(key.max()) + 1) + key, return_inverse=True
            )
    codes = codes.astype(np.int64)
    codes[dead] = -1
    return codes[:n_left], codes[n_left:]


def match_join_codes(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    admit: Callable[[int], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(left, right)`` row pairs with equal non-negative codes.

    The right side's live rows are sorted by ``(code, row)`` and counted
    per code; each left row then takes its code's run of right rows, which
    ``np.repeat`` expands.  Pairs come out ordered by left row, then right
    row.  *admit* sees the exact pair count before any pair exists.
    """
    n_right = max(len(right_codes), 1)
    right_rows = np.flatnonzero(right_codes >= 0)
    # Packing the row into the sort key makes every key distinct, so a
    # plain (unstable, faster) sort still orders equal codes by row.
    code_order, order = np.divmod(
        np.sort(right_codes[right_rows] * n_right + right_rows), n_right
    )
    size = max(int(left_codes.max(initial=-1)), int(code_order.max(initial=-1))) + 1
    run_length = np.bincount(code_order, minlength=size)
    run_start = np.cumsum(run_length) - run_length
    left_rows = np.flatnonzero(left_codes >= 0)
    probes = left_codes[left_rows]
    starts, counts = run_start[probes], run_length[probes]
    total = int(counts.sum())
    if admit is not None:
        admit(total)
    left_idx = np.repeat(left_rows, counts)
    block_starts = np.cumsum(counts) - counts
    right_idx = order[np.arange(total) + np.repeat(starts - block_starts, counts)]
    return left_idx.astype(np.int64), right_idx.astype(np.int64)


def _combine_frames(left: _Frame, right: _Frame) -> _Frame:
    columns = dict(left.columns)
    for name, col in right.columns.items():
        if name in columns:
            raise ExecutionError(f"duplicate column binding {name!r} in join")
        columns[name] = col
    return _Frame(columns, left.row_count)


def _append_outer_rows(
    joined: _Frame,
    left: _Frame,
    right: _Frame,
    unmatched: np.ndarray,
    side: str,
) -> _Frame:
    count = int(unmatched.sum())
    if count == 0:
        return joined
    preserved = left if side == "left" else right
    null_side = right if side == "left" else left
    indices = np.flatnonzero(unmatched)
    preserved_rows = preserved.take(indices)
    columns: dict[str, Column] = {}
    for name in joined.columns:
        if name in preserved.columns:
            source = preserved_rows.columns[name]
        else:
            proto = null_side.columns[name]
            data = _null_array(proto, count)
            source = Column(proto.name, proto.sql_type, data, np.ones(count, dtype=bool))
        existing = joined.columns[name]
        merged_data = np.concatenate(
            [existing.data.astype(object), source.data.astype(object)]
        ) if existing.data.dtype == object or source.data.dtype == object else np.concatenate(
            [existing.data, source.data]
        )
        existing_mask = (
            existing.null_mask
            if existing.null_mask is not None
            else np.zeros(len(existing), dtype=bool)
        )
        source_mask = (
            source.null_mask
            if source.null_mask is not None
            else np.zeros(len(source), dtype=bool)
        )
        merged_mask = np.concatenate([existing_mask, source_mask])
        columns[name] = Column(
            existing.name,
            existing.sql_type,
            merged_data,
            merged_mask if merged_mask.any() else None,
        )
    return _Frame(columns, joined.row_count + count)


def _concat_columns(name: str, columns: list[Column]) -> Column:
    """Concatenate per-branch columns, widening to a common representation."""
    types = {c.sql_type for c in columns}
    if len(types) == 1:
        out_type = columns[0].sql_type
    elif all(t.is_numeric for t in types):
        out_type = SqlType.DOUBLE
    else:
        out_type = SqlType.TEXT
    pieces = []
    for column in columns:
        data = column.data
        if out_type is SqlType.TEXT and data.dtype != object:
            data = np.array([str(v) for v in data], dtype=object)
        elif out_type is SqlType.DOUBLE and data.dtype != np.float64:
            data = data.astype(np.float64)
        pieces.append(data)
    merged = np.concatenate(pieces) if pieces else np.zeros(0)
    masks = [
        c.null_mask
        if c.null_mask is not None
        else np.zeros(len(c), dtype=bool)
        for c in columns
    ]
    mask = np.concatenate(masks) if masks else None
    if mask is not None and not mask.any():
        mask = None
    return Column(name, out_type, merged, mask)


def _null_array(proto: Column, count: int) -> np.ndarray:
    if proto.data.dtype == object:
        return np.full(count, None, dtype=object)
    return np.zeros(count, dtype=proto.data.dtype)


# -- grouping helpers --------------------------------------------------------------


def _text_codes(values: np.ndarray) -> np.ndarray:
    """The ``np.unique(..., return_inverse=True)`` codes of ``str(v)``.

    Hashes first and sorts only the distinct strings, instead of sorting
    every value with Python comparisons as ``np.unique`` does on objects.
    """
    strings = list(map(str, values))
    rank = {text: code for code, text in enumerate(sorted(set(strings)))}
    return np.fromiter(
        map(rank.__getitem__, strings), dtype=np.int64, count=len(strings)
    )


def _factorize(vec: Vec) -> np.ndarray:
    """Dense integer codes for *vec* values; NULL gets its own code."""
    if vec.sql_type is SqlType.TEXT or vec.data.dtype == object:
        codes = _text_codes(vec.data)
    else:
        _, codes = np.unique(vec.data, return_inverse=True)
    codes = codes.astype(np.int64) + 1
    if vec.mask is not None:
        codes[vec.mask] = 0
    return codes


def _factorize_many(vecs: list[Vec], row_count: int) -> tuple[np.ndarray, int]:
    """Combine per-key codes into dense group ids; returns (codes, #groups)."""
    if row_count == 0:
        return np.zeros(0, dtype=np.int64), 0
    combined = np.zeros(row_count, dtype=np.int64)
    for vec in vecs:
        codes = _factorize(vec)
        combined = combined * (int(codes.max()) + 1) + codes
    _, dense = np.unique(combined, return_inverse=True)
    return dense.astype(np.int64), int(dense.max()) + 1


def _first_index_per_group(
    codes: np.ndarray, num_groups: int, row_count: int
) -> np.ndarray:
    if row_count == 0:
        # Global aggregate over an empty input: a single synthetic group with
        # no representative row (the take() of an empty index set).
        return np.zeros(0, dtype=np.int64)
    # codes are dense 0..G-1, so unique() returns first occurrences in order.
    _, firsts = np.unique(codes, return_index=True)
    return firsts.astype(np.int64)


def _compute_aggregate(
    call: ast.FunctionCall,
    codes: np.ndarray,
    num_groups: int,
    context: EvalContext,
) -> Vec:
    name = call.name
    row_count = len(codes)
    if name == "count" and (not call.args or isinstance(call.args[0], ast.Star)):
        counts = np.bincount(codes, minlength=num_groups) if row_count else np.zeros(
            num_groups, dtype=np.int64
        )
        return Vec(counts.astype(np.int64), None, SqlType.BIGINT)
    arg = evaluate(call.args[0], context)
    valid = ~arg.mask if arg.mask is not None else np.ones(row_count, dtype=bool)
    if call.distinct:
        pair_codes = codes * (row_count + 1) + _factorize(arg)
        _, first_of_pair = np.unique(pair_codes, return_index=True)
        keep = np.zeros(row_count, dtype=bool)
        keep[first_of_pair] = True
        valid = valid & keep
    if name == "count":
        counts = np.bincount(codes[valid], minlength=num_groups)
        return Vec(counts.astype(np.int64), None, SqlType.BIGINT)
    if arg.sql_type is SqlType.TEXT:
        # MIN/MAX over text: per-group python reduction.
        out = np.full(num_groups, None, dtype=object)
        for group in range(num_groups):
            members = (codes == group) & valid
            if members.any():
                strings = [str(v) for v in arg.data[members]]
                out[group] = min(strings) if name == "min" else max(strings)
        mask = np.array([v is None for v in out], dtype=bool)
        return Vec(out, mask if mask.any() else None, SqlType.TEXT)
    values = arg.data.astype(np.float64)
    group_counts = np.bincount(codes[valid], minlength=num_groups)
    empty = group_counts == 0
    if name in ("sum", "avg"):
        # bincount returns int64 (not the weights' dtype) when the input is
        # empty; a DOUBLE sum column must stay float64 even with no rows.
        sums = np.bincount(
            codes[valid], weights=values[valid], minlength=num_groups
        ).astype(np.float64)
        if name == "sum":
            out_type = SqlType.DOUBLE if arg.sql_type is SqlType.DOUBLE else SqlType.BIGINT
            data = sums if out_type is SqlType.DOUBLE else np.round(sums).astype(np.int64)
            return Vec(data, empty if empty.any() else None, out_type)
        means = np.divide(
            sums, np.maximum(group_counts, 1), where=~empty, out=np.zeros(num_groups)
        )
        return Vec(means, empty if empty.any() else None, SqlType.DOUBLE)
    # min / max via sort + reduceat on valid rows
    result = np.zeros(num_groups, dtype=np.float64)
    if valid.any():
        sub_codes = codes[valid]
        sub_values = values[valid]
        order = np.argsort(sub_codes, kind="stable")
        sorted_codes = sub_codes[order]
        sorted_values = sub_values[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
        )
        reducer = np.minimum if name == "min" else np.maximum
        reduced = reducer.reduceat(sorted_values, starts)
        result[sorted_codes[starts]] = reduced
    out_type = arg.sql_type if arg.sql_type.is_numeric or arg.sql_type is SqlType.DATE else SqlType.DOUBLE
    if out_type in (SqlType.INTEGER, SqlType.BIGINT, SqlType.DATE):
        result = result.astype(np.int64)
    return Vec(result, empty if empty.any() else None, out_type)


def _sort_key(vec: Vec, descending: bool) -> np.ndarray:
    """Map a Vec to float codes where lexsort ascending gives SQL order.

    PostgreSQL defaults: NULLS LAST for ASC, NULLS FIRST for DESC — both fall
    out of mapping NULL to +inf and negating for DESC.
    """
    if vec.sql_type is SqlType.TEXT or vec.data.dtype == object:
        key = _text_codes(vec.data).astype(np.float64)
    else:
        key = vec.data.astype(np.float64)
    if descending:
        key = -key
    if vec.mask is not None:
        key = key.copy()
        # ASC: nulls last (+inf); DESC: nulls first (-inf after negation).
        key[vec.mask] = -np.inf if descending else np.inf
    return key


def _to_python(value):
    return value.item() if hasattr(value, "item") else value
