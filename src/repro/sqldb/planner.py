"""Cost-based query planner.

The planner turns a bound statement into a physical :class:`Plan`:

* WHERE conjuncts are pushed down to scans when they touch one binding;
* equi-conjuncts across two bindings become hash-join conditions;
* inner-join trees are re-ordered greedily by estimated output cardinality
  (outer-join trees keep their written shape, which is always correct);
* each base scan picks the cheaper of a sequential or index scan;
* aggregation, sorting, projection, DISTINCT, and LIMIT are layered on top.

Every node carries estimated rows and a (startup, total) cost computed from
:mod:`repro.sqldb.cost` — that pair is what ``EXPLAIN`` reports and what
SQLBarber uses as its "execution plan cost" optimization target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import ast_nodes as ast
from . import cost as costs
from .binder import Binder, BoundQuery
from .catalog import Catalog
from .errors import UnsupportedSqlError
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
    SubPlan,
    SubqueryScanNode,
    UpdateNode,
)
from .selectivity import count_operators, estimate_selectivity
from .stats import join_selectivity

_UNKNOWN_GROUP_NDV = 25.0


def shallow_walk(expression: ast.Node) -> Iterator[ast.Node]:
    """Walk an expression without descending into nested SELECTs."""
    yield expression
    if isinstance(expression, ast.SelectStatement):
        return
    for child in expression.children():
        if isinstance(child, ast.SelectStatement):
            yield child  # yield the statement itself but not its innards
        else:
            yield from shallow_walk(child)


def bindings_of(expression: ast.Expression) -> frozenset[str]:
    """The FROM-clause bindings referenced by *expression* (outer query only)."""
    found = set()
    for node in shallow_walk(expression):
        if isinstance(node, ast.ColumnRef) and node.table:
            found.add(node.table)
    return frozenset(found)


def split_conjuncts(expression: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a boolean expression into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[ast.Expression]) -> ast.Expression | None:
    """Combine conjuncts back into one expression (None for empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("and", combined, conjunct)
    return combined


@dataclass
class _Source:
    """One FROM-clause input with its scan plan."""

    binding: str
    node: PlanNode
    table_name: Optional[str] = None


@dataclass
class _JoinCondition:
    """An equi-join conjunct linking exactly two bindings."""

    left_expr: ast.ColumnRef
    right_expr: ast.ColumnRef
    left_binding: str
    right_binding: str
    original: ast.Expression

    @property
    def bindings(self) -> frozenset[str]:
        return frozenset((self.left_binding, self.right_binding))


@dataclass
class _QueryContext:
    """Per-statement planning state."""

    binding_tables: dict[str, str] = field(default_factory=dict)

    def resolver(self, catalog: Catalog):
        def resolve(binding: str | None, column: str):
            if binding is None or binding not in self.binding_tables:
                return None
            table = self.binding_tables[binding]
            meta = catalog.table(table)
            if not meta.has_column(column):
                return None
            return meta.column(column).stats

        return resolve


class Planner:
    """Plans bound statements against a catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._binder = Binder(catalog)

    def plan(self, bound: BoundQuery) -> Plan:
        statement = bound.statement
        if isinstance(statement, ast.InsertStatement):
            return self._plan_insert(bound)
        if isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
            return self._plan_mutation(bound)
        if isinstance(statement, ast.CompoundSelect):
            return self._plan_compound(bound)
        subplans = self._plan_subqueries(statement)
        context = _QueryContext()
        root = self._plan_body(bound, context)
        subplan_cost = sum(s.plan.root.cost.total for s in subplans.values())
        if subplan_cost:
            root.cost = root.cost.plus(subplan_cost)
        return Plan(
            root=root,
            subplans=subplans,
            output_names=bound.output_names,
            output_types=bound.output_types,
        )

    def _plan_compound(self, bound: BoundQuery) -> Plan:
        """UNION [ALL]: plan each branch and append them."""
        statement: ast.CompoundSelect = bound.statement  # type: ignore[assignment]
        branch_plans = [self._plan_nested(s) for s in statement.selects]
        total_rows = sum(p.est_rows for p in branch_plans)
        total_cost = sum(p.total_cost for p in branch_plans)
        startup = max((p.startup_cost for p in branch_plans), default=0.0)
        est_rows = total_rows
        if statement.deduplicates:
            # Duplicate elimination shrinks the output; without cross-branch
            # statistics use a flat reduction factor.
            est_rows = max(total_rows * 0.75, 1.0)
            total_cost += total_rows * costs.HASH_ENTRY_COST
        root = AppendNode(
            est_rows=est_rows,
            cost=costs.Cost(startup, total_cost),
            plans=branch_plans,
            deduplicate=statement.deduplicates,
        )
        return Plan(
            root=root,
            subplans={},
            output_names=bound.output_names,
            output_types=bound.output_types,
        )

    # -- DML -------------------------------------------------------------------

    def _plan_insert(self, bound: BoundQuery) -> Plan:
        statement: ast.InsertStatement = bound.statement  # type: ignore[assignment]
        meta = self._catalog.table(statement.target.name)
        columns = (
            list(statement.columns)
            if statement.columns is not None
            else meta.column_names
        )
        index_count = len(self._catalog.indexes_of(meta.name))
        if statement.source is not None:
            source_plan = self.plan(self._binder.bind(statement.source))
            est_rows = max(source_plan.est_rows, 0.0)
            child_cost = costs.Cost(
                source_plan.startup_cost, source_plan.total_cost
            )
            root = InsertNode(
                est_rows=est_rows,
                cost=costs.dml_cost(child_cost, est_rows, index_count),
                table_name=meta.name,
                columns=columns,
                source=source_plan,
            )
        else:
            est_rows = float(len(statement.rows))
            expr_ops = sum(
                count_operators(value)
                for row in statement.rows
                for value in row
            )
            child_cost = costs.Cost(0.0, expr_ops * costs.CPU_OPERATOR_COST)
            root = InsertNode(
                est_rows=est_rows,
                cost=costs.dml_cost(child_cost, est_rows, index_count),
                table_name=meta.name,
                columns=columns,
                rows=statement.rows,
            )
        return Plan(
            root=root,
            subplans=self._plan_clause_subqueries(
                [v for row in statement.rows for v in row]
            ),
            output_names=bound.output_names,
            output_types=bound.output_types,
        )

    def _plan_mutation(self, bound: BoundQuery) -> Plan:
        """UPDATE/DELETE: a pushed-filter scan of the target feeds the write."""
        statement = bound.statement
        context = _QueryContext()
        pushed = split_conjuncts(statement.where)
        scan = self._plan_base_scan(statement.target, pushed, context)
        child = scan.node
        meta = self._catalog.table(statement.target.name)
        clauses: list[ast.Expression] = list(pushed)
        if isinstance(statement, ast.UpdateStatement):
            clauses.extend(a.value for a in statement.assignments)
            assigned = {a.column for a in statement.assignments}
            index_count = sum(
                1
                for index in self._catalog.indexes_of(meta.name)
                if index.column in assigned
            )
            expr_ops = sum(
                count_operators(a.value) for a in statement.assignments
            )
            cost = costs.dml_cost(
                child.cost.plus(child.est_rows * expr_ops * costs.CPU_OPERATOR_COST),
                child.est_rows,
                index_count,
            )
            root: PlanNode = UpdateNode(
                est_rows=child.est_rows,
                cost=cost,
                child=child,
                table_name=meta.name,
                assignments=statement.assignments,
            )
        else:
            index_count = len(self._catalog.indexes_of(meta.name))
            root = DeleteNode(
                est_rows=child.est_rows,
                cost=costs.dml_cost(child.cost, child.est_rows, index_count),
                child=child,
                table_name=meta.name,
            )
        subplans = self._plan_clause_subqueries(clauses)
        subplan_cost = sum(s.plan.root.cost.total for s in subplans.values())
        if subplan_cost:
            root.cost = root.cost.plus(subplan_cost)
        return Plan(
            root=root,
            subplans=subplans,
            output_names=bound.output_names,
            output_types=bound.output_types,
        )

    def _plan_clause_subqueries(
        self, clauses: list[ast.Expression]
    ) -> dict[int, SubPlan]:
        """Subquery expressions reachable from DML clauses (WHERE, SET, VALUES)."""
        subplans: dict[int, SubPlan] = {}
        for clause in clauses:
            for node in shallow_walk(clause):
                if isinstance(node, ast.InSubquery):
                    subplans[id(node)] = SubPlan(
                        "in", self._plan_nested(node.subquery)
                    )
                elif isinstance(node, ast.Exists):
                    subplans[id(node)] = SubPlan(
                        "exists", self._plan_nested(node.subquery)
                    )
                elif isinstance(node, ast.ScalarSubquery):
                    subplans[id(node)] = SubPlan(
                        "scalar", self._plan_nested(node.subquery)
                    )
        return subplans

    # -- subquery expressions ---------------------------------------------------

    def _plan_subqueries(self, statement: ast.SelectStatement) -> dict[int, SubPlan]:
        subplans: dict[int, SubPlan] = {}
        clauses: list[ast.Expression] = []
        for item in statement.select_items:
            clauses.append(item.expression)
        if statement.where is not None:
            clauses.append(statement.where)
        if statement.having is not None:
            clauses.append(statement.having)
        clauses.extend(statement.group_by)
        clauses.extend(o.expression for o in statement.order_by)
        if statement.from_clause is not None:
            clauses.extend(
                j.condition
                for j in statement.from_clause.walk()
                if isinstance(j, ast.Join) and j.condition is not None
            )
        for clause in clauses:
            for node in shallow_walk(clause):
                if isinstance(node, ast.InSubquery):
                    subplans[id(node)] = SubPlan("in", self._plan_nested(node.subquery))
                elif isinstance(node, ast.Exists):
                    subplans[id(node)] = SubPlan(
                        "exists", self._plan_nested(node.subquery)
                    )
                elif isinstance(node, ast.ScalarSubquery):
                    subplans[id(node)] = SubPlan(
                        "scalar", self._plan_nested(node.subquery)
                    )
        return subplans

    def _plan_nested(self, statement: ast.SelectStatement) -> Plan:
        return self.plan(self._binder.bind(statement))

    # -- main body ---------------------------------------------------------------

    def _plan_body(self, bound: BoundQuery, context: _QueryContext) -> PlanNode:
        statement = bound.statement
        if statement.from_clause is None:
            node: PlanNode = ResultNode(
                est_rows=1.0,
                cost=costs.Cost(0.0, costs.CPU_TUPLE_COST),
                items=statement.select_items,
                output_names=bound.output_names,
            )
            return self._finalize(node, bound, context, aggregated=False)

        where_conjuncts = split_conjuncts(statement.where)
        if _has_outer_join(statement.from_clause):
            node = self._plan_join_tree_literal(statement.from_clause, context)
            if where_conjuncts:
                node = self._add_filter(node, conjoin(where_conjuncts), context)
        else:
            node = self._plan_flattened_joins(
                statement.from_clause, where_conjuncts, context
            )
        aggregated = self._needs_aggregation(statement)
        if aggregated:
            node = self._add_aggregate(node, statement, context)
        return self._finalize(node, bound, context, aggregated)

    def _needs_aggregation(self, statement: ast.SelectStatement) -> bool:
        if statement.group_by:
            return True
        clause_exprs = [i.expression for i in statement.select_items]
        if statement.having is not None:
            clause_exprs.append(statement.having)
        clause_exprs.extend(o.expression for o in statement.order_by)
        for expression in clause_exprs:
            for node in shallow_walk(expression):
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    return True
        return False

    # -- scans ---------------------------------------------------------------------

    def _plan_scan(
        self,
        source: ast.TableExpression,
        pushed: list[ast.Expression],
        context: _QueryContext,
    ) -> _Source:
        if isinstance(source, ast.TableRef):
            return self._plan_base_scan(source, pushed, context)
        if isinstance(source, ast.DerivedTable):
            subplan = self._plan_nested(source.subquery)
            node: PlanNode = SubqueryScanNode(
                est_rows=subplan.est_rows,
                cost=costs.Cost(
                    subplan.startup_cost,
                    subplan.total_cost
                    + subplan.est_rows * costs.CPU_TUPLE_COST,
                ),
                subplan=subplan,
                alias=source.alias,
                filter=conjoin(pushed),
            )
            if pushed:
                selectivity = estimate_selectivity(
                    conjoin(pushed), context.resolver(self._catalog)
                )
                node.est_rows = max(subplan.est_rows * selectivity, 0.0)
            return _Source(binding=source.alias, node=node, table_name=None)
        raise UnsupportedSqlError(
            f"unsupported FROM item: {type(source).__name__}"
        )

    def _plan_base_scan(
        self,
        ref: ast.TableRef,
        pushed: list[ast.Expression],
        context: _QueryContext,
    ) -> _Source:
        meta = self._catalog.table(ref.name)
        binding = ref.binding_name
        context.binding_tables[binding] = ref.name
        resolve = context.resolver(self._catalog)
        filter_expr = conjoin(pushed)
        selectivity = estimate_selectivity(filter_expr, resolve)
        est_rows = max(meta.row_count * selectivity, 0.0)
        qual_ops = count_operators(filter_expr) if filter_expr is not None else 0
        seq_cost = costs.seq_scan_cost(meta.page_count, meta.row_count, qual_ops)
        best: PlanNode = SeqScanNode(
            est_rows=est_rows,
            cost=seq_cost,
            table_name=ref.name,
            binding=binding,
            filter=filter_expr,
        )
        index_choice = self._maybe_index_scan(
            ref, meta, binding, pushed, est_rows, qual_ops, context
        )
        if index_choice is not None and index_choice.cost.total < best.cost.total:
            best = index_choice
        return _Source(binding=binding, node=best, table_name=ref.name)

    def _maybe_index_scan(
        self,
        ref: ast.TableRef,
        meta,
        binding: str,
        pushed: list[ast.Expression],
        est_rows: float,
        qual_ops: int,
        context: _QueryContext,
    ) -> IndexScanNode | None:
        resolve = context.resolver(self._catalog)
        best: IndexScanNode | None = None
        for conjunct in pushed:
            column = _indexable_column(conjunct, binding)
            if column is None:
                continue
            index = self._catalog.index_on(ref.name, column)
            if index is None:
                continue
            index_sel = estimate_selectivity(conjunct, resolve)
            cost = costs.index_scan_cost(
                meta.page_count, meta.row_count, index_sel, qual_ops
            )
            node = IndexScanNode(
                est_rows=est_rows,
                cost=cost,
                table_name=ref.name,
                binding=binding,
                index_name=index.name,
                index_column=column,
                filter=conjoin(pushed),
            )
            if best is None or node.cost.total < best.cost.total:
                best = node
        return best

    # -- flattened inner-join planning ----------------------------------------------

    def _plan_flattened_joins(
        self,
        from_clause: ast.TableExpression,
        where_conjuncts: list[ast.Expression],
        context: _QueryContext,
    ) -> PlanNode:
        sources_ast: list[ast.TableExpression] = []
        on_conjuncts: list[ast.Expression] = []
        _flatten_inner_joins(from_clause, sources_ast, on_conjuncts)
        bindings = [_binding_name(s) for s in sources_ast]
        all_conjuncts = on_conjuncts + where_conjuncts

        pushed: dict[str, list[ast.Expression]] = {b: [] for b in bindings}
        join_conditions: list[_JoinCondition] = []
        residuals: list[ast.Expression] = []
        for conjunct in all_conjuncts:
            refs = bindings_of(conjunct)
            if len(refs) <= 1 and (not refs or next(iter(refs)) in pushed):
                target = next(iter(refs)) if refs else bindings[0]
                pushed[target].append(conjunct)
                continue
            condition = _as_equi_condition(conjunct)
            if condition is not None:
                join_conditions.append(condition)
            else:
                residuals.append(conjunct)

        sources = [
            self._plan_scan(s, pushed[_binding_name(s)], context)
            for s in sources_ast
        ]
        return self._order_joins(sources, join_conditions, residuals, context)

    def _order_joins(
        self,
        sources: list[_Source],
        conditions: list[_JoinCondition],
        residuals: list[ast.Expression],
        context: _QueryContext,
    ) -> PlanNode:
        if len(sources) == 1:
            node = sources[0].node
            return self._apply_ready_residuals(
                node, {sources[0].binding}, residuals, context
            )
        remaining = {s.binding: s for s in sources}
        start = min(remaining.values(), key=lambda s: s.node.est_rows)
        current = start.node
        joined = {start.binding}
        del remaining[start.binding]
        pending_conditions = list(conditions)
        pending_residuals = list(residuals)
        current = self._apply_ready_residuals(
            current, joined, pending_residuals, context
        )
        while remaining:
            choice = self._pick_next_join(
                current, joined, remaining, pending_conditions, context
            )
            binding, node, applicable = choice
            current = self._build_join(current, node, applicable, context)
            joined.add(binding)
            del remaining[binding]
            for condition in applicable:
                pending_conditions.remove(condition)
            current = self._apply_ready_residuals(
                current, joined, pending_residuals, context
            )
        return current

    def _pick_next_join(
        self,
        current: PlanNode,
        joined: set[str],
        remaining: dict[str, _Source],
        conditions: list[_JoinCondition],
        context: _QueryContext,
    ) -> tuple[str, PlanNode, list[_JoinCondition]]:
        best: tuple[float, str, PlanNode, list[_JoinCondition]] | None = None
        for binding, source in remaining.items():
            applicable = [
                c
                for c in conditions
                if c.bindings <= (joined | {binding}) and binding in c.bindings
            ]
            selectivity = self._join_conditions_selectivity(applicable, context)
            out_rows = max(current.est_rows * source.node.est_rows * selectivity, 0.0)
            connected = bool(applicable)
            # Prefer connected joins; cross joins sort after every connected one.
            rank = (0.0 if connected else 1e18) + out_rows
            if best is None or rank < best[0]:
                best = (rank, binding, source.node, applicable)
        assert best is not None
        return best[1], best[2], best[3]

    def _join_conditions_selectivity(
        self, conditions: list[_JoinCondition], context: _QueryContext
    ) -> float:
        resolve = context.resolver(self._catalog)
        selectivity = 1.0
        for condition in conditions:
            left_stats = resolve(
                condition.left_expr.table, condition.left_expr.column
            )
            right_stats = resolve(
                condition.right_expr.table, condition.right_expr.column
            )
            selectivity *= join_selectivity(left_stats, right_stats)
        return selectivity

    def _build_join(
        self,
        left: PlanNode,
        right: PlanNode,
        conditions: list[_JoinCondition],
        context: _QueryContext,
        join_type: str = "inner",
        residual: ast.Expression | None = None,
    ) -> PlanNode:
        out_selectivity = self._join_conditions_selectivity(conditions, context)
        out_rows = max(left.est_rows * right.est_rows * out_selectivity, 0.0)
        if residual is not None:
            out_rows *= estimate_selectivity(
                residual, context.resolver(self._catalog)
            )
        if join_type in ("left", "full"):
            out_rows = max(out_rows, left.est_rows)
        if join_type in ("right", "full"):
            out_rows = max(out_rows, right.est_rows)
        if conditions:
            # Orient keys: left_keys must reference the left subtree.
            left_bindings = _plan_bindings(left)
            left_keys, right_keys = [], []
            for condition in conditions:
                if condition.left_binding in left_bindings:
                    left_keys.append(condition.left_expr)
                    right_keys.append(condition.right_expr)
                else:
                    left_keys.append(condition.right_expr)
                    right_keys.append(condition.left_expr)
            cost = costs.hash_join_cost(
                left.cost, right.cost, left.est_rows, right.est_rows, out_rows
            )
            return HashJoinNode(
                est_rows=out_rows,
                cost=cost,
                left=left,
                right=right,
                left_keys=left_keys,
                right_keys=right_keys,
                join_type=join_type,
                residual=residual,
            )
        condition = residual
        if join_type == "cross" or (join_type == "inner" and condition is None):
            out_rows = max(left.est_rows * right.est_rows, 0.0)
        cost = costs.nested_loop_cost(
            left.cost, right.cost, left.est_rows, right.est_rows, out_rows
        )
        return NestedLoopJoinNode(
            est_rows=out_rows,
            cost=cost,
            left=left,
            right=right,
            condition=condition,
            join_type=join_type,
        )

    def _apply_ready_residuals(
        self,
        node: PlanNode,
        joined: set[str],
        residuals: list[ast.Expression],
        context: _QueryContext,
    ) -> PlanNode:
        ready = [r for r in residuals if bindings_of(r) <= joined]
        for conjunct in ready:
            residuals.remove(conjunct)
        if not ready:
            return node
        return self._add_filter(node, conjoin(ready), context)

    def _add_filter(
        self, child: PlanNode, condition: ast.Expression | None, context: _QueryContext
    ) -> PlanNode:
        if condition is None:
            return child
        selectivity = estimate_selectivity(condition, context.resolver(self._catalog))
        est_rows = max(child.est_rows * selectivity, 0.0)
        ops = count_operators(condition)
        cost = costs.Cost(
            child.cost.startup,
            child.cost.total + child.est_rows * ops * costs.CPU_OPERATOR_COST,
        )
        return FilterNode(est_rows=est_rows, cost=cost, child=child, condition=condition)

    # -- literal (outer-join-preserving) join planning -----------------------------

    def _plan_join_tree_literal(
        self, node: ast.TableExpression, context: _QueryContext
    ) -> PlanNode:
        if isinstance(node, (ast.TableRef, ast.DerivedTable)):
            return self._plan_scan(node, [], context).node
        assert isinstance(node, ast.Join)
        left = self._plan_join_tree_literal(node.left, context)
        right = self._plan_join_tree_literal(node.right, context)
        conjuncts = split_conjuncts(node.condition)
        equi = [c for c in map(_as_equi_condition, conjuncts) if c is not None]
        other = [
            c for c in conjuncts if _as_equi_condition(c) is None
        ]
        join_type = node.join_type
        if join_type == "right":
            left, right = right, left
            join_type = "left"
        return self._build_join(
            left,
            right,
            equi,
            context,
            join_type=join_type,
            residual=conjoin(other),
        )

    # -- aggregation and finalization ------------------------------------------------

    def _add_aggregate(
        self,
        child: PlanNode,
        statement: ast.SelectStatement,
        context: _QueryContext,
    ) -> PlanNode:
        aggregate_calls = _collect_aggregates(statement)
        groups = self._estimate_groups(statement.group_by, child, context)
        cost = costs.aggregate_cost(
            child.cost, child.est_rows, groups, len(aggregate_calls)
        )
        est_rows = groups
        if statement.having is not None:
            est_rows *= estimate_selectivity(
                statement.having, context.resolver(self._catalog)
            )
            cost = cost.plus(groups * costs.CPU_OPERATOR_COST)
        return AggregateNode(
            est_rows=max(est_rows, 0.0),
            cost=cost,
            child=child,
            group_exprs=statement.group_by,
            aggregate_calls=aggregate_calls,
            having=statement.having,
        )

    def _estimate_groups(
        self,
        group_exprs: list[ast.Expression],
        child: PlanNode,
        context: _QueryContext,
    ) -> float:
        if not group_exprs:
            return 1.0
        resolve = context.resolver(self._catalog)
        ndv_product = 1.0
        for expression in group_exprs:
            if isinstance(expression, ast.ColumnRef):
                stats = resolve(expression.table, expression.column)
                ndv = stats.distinct_count if stats else _UNKNOWN_GROUP_NDV
            else:
                ndv = _UNKNOWN_GROUP_NDV
            ndv_product *= max(ndv, 1.0)
        return float(min(ndv_product, max(child.est_rows, 1.0)))

    def _finalize(
        self,
        node: PlanNode,
        bound: BoundQuery,
        context: _QueryContext,
        aggregated: bool,
    ) -> PlanNode:
        statement = bound.statement
        if statement.order_by and not isinstance(node, ResultNode):
            order_items = _resolve_order_aliases(statement)
            node = SortNode(
                est_rows=node.est_rows,
                cost=costs.sort_cost(node.cost, node.est_rows),
                child=node,
                order_items=order_items,
            )
        if not isinstance(node, ResultNode):
            expr_ops = sum(
                count_operators(i.expression) for i in statement.select_items
            )
            node = ProjectNode(
                est_rows=node.est_rows,
                cost=costs.project_cost(node.cost, node.est_rows, expr_ops),
                child=node,
                items=statement.select_items,
                output_names=bound.output_names,
                output_types=bound.output_types,
            )
        if statement.distinct:
            distinct_rows = self._estimate_distinct(bound, node, context)
            node = DistinctNode(
                est_rows=distinct_rows,
                cost=costs.aggregate_cost(node.cost, node.est_rows, distinct_rows, 0),
                child=node,
            )
        if statement.limit is not None or statement.offset is not None:
            limit = statement.limit if statement.limit is not None else node.est_rows
            offset = statement.offset or 0
            fetched = min(float(limit) + offset, max(node.est_rows, 0.0))
            node = LimitNode(
                est_rows=max(min(float(limit), node.est_rows - offset), 0.0),
                cost=costs.limit_cost(node.cost, node.est_rows, fetched),
                child=node,
                limit=statement.limit,
                offset=statement.offset,
            )
        return node

    def _estimate_distinct(
        self, bound: BoundQuery, node: PlanNode, context: _QueryContext
    ) -> float:
        resolve = context.resolver(self._catalog)
        ndv_product = 1.0
        for item in bound.statement.select_items:
            expression = item.expression
            if isinstance(expression, ast.ColumnRef):
                stats = resolve(expression.table, expression.column)
                ndv = stats.distinct_count if stats else _UNKNOWN_GROUP_NDV
            else:
                ndv = _UNKNOWN_GROUP_NDV
            ndv_product *= max(ndv, 1.0)
        return float(min(ndv_product, max(node.est_rows, 1.0)))


# -- helpers -----------------------------------------------------------------------


def _has_outer_join(node: ast.TableExpression) -> bool:
    for item in node.walk():
        if isinstance(item, ast.Join) and item.join_type in ("left", "right", "full"):
            return True
    return False


def _flatten_inner_joins(
    node: ast.TableExpression,
    sources: list[ast.TableExpression],
    conjuncts: list[ast.Expression],
) -> None:
    if isinstance(node, ast.Join):
        _flatten_inner_joins(node.left, sources, conjuncts)
        _flatten_inner_joins(node.right, sources, conjuncts)
        if node.condition is not None:
            conjuncts.extend(split_conjuncts(node.condition))
    else:
        sources.append(node)


def _binding_name(source: ast.TableExpression) -> str:
    if isinstance(source, ast.TableRef):
        return source.binding_name
    if isinstance(source, ast.DerivedTable):
        return source.alias
    raise UnsupportedSqlError(f"unsupported FROM item: {type(source).__name__}")


def _indexable_column(conjunct: ast.Expression, binding: str) -> str | None:
    """The column an index could serve for this conjunct, if any.

    Recognizes ``col <op> constant``, ``constant <op> col``, ``col BETWEEN``
    and ``col IN (...)`` shapes over the given binding.
    """
    from .selectivity import constant_value

    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in (
        "=", "<", "<=", ">", ">=",
    ):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and left.table == binding:
            if constant_value(right) is not None:
                return left.column
        if isinstance(right, ast.ColumnRef) and right.table == binding:
            if constant_value(left) is not None:
                return right.column
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        if (
            isinstance(conjunct.operand, ast.ColumnRef)
            and conjunct.operand.table == binding
        ):
            return conjunct.operand.column
    if isinstance(conjunct, ast.InList) and not conjunct.negated:
        if (
            isinstance(conjunct.operand, ast.ColumnRef)
            and conjunct.operand.table == binding
        ):
            return conjunct.operand.column
    return None


def _as_equi_condition(conjunct: ast.Expression) -> _JoinCondition | None:
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    if left.table is None or right.table is None or left.table == right.table:
        return None
    return _JoinCondition(
        left_expr=left,
        right_expr=right,
        left_binding=left.table,
        right_binding=right.table,
        original=conjunct,
    )


def _plan_bindings(node: PlanNode) -> set[str]:
    found: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (SeqScanNode, IndexScanNode)):
            found.add(current.binding)
        elif isinstance(current, SubqueryScanNode):
            found.add(current.alias)
            continue  # do not descend into the subplan
        stack.extend(current.children())
    return found


def _collect_aggregates(statement: ast.SelectStatement) -> list[ast.FunctionCall]:
    calls: list[ast.FunctionCall] = []
    clauses: list[ast.Expression] = [i.expression for i in statement.select_items]
    if statement.having is not None:
        clauses.append(statement.having)
    clauses.extend(o.expression for o in statement.order_by)
    for clause in clauses:
        for node in shallow_walk(clause):
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                calls.append(node)
    return calls


def _resolve_order_aliases(statement: ast.SelectStatement) -> list[ast.OrderItem]:
    """Replace ORDER BY references to select aliases with the aliased
    expression, so sort keys can always be evaluated pre-projection."""
    aliases: dict[str, ast.Expression] = {}
    for item in statement.select_items:
        if item.alias:
            aliases[item.alias] = item.expression
    resolved = []
    for order in statement.order_by:
        expression = order.expression
        if (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.column in aliases
        ):
            expression = aliases[expression.column]
        elif isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            # ORDER BY <position>
            index = expression.value - 1
            if 0 <= index < len(statement.select_items):
                expression = statement.select_items[index].expression
        resolved.append(ast.OrderItem(expression, order.descending))
    return resolved
