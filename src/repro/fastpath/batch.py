"""Batched re-costing: replay the planner's decisions per binding.

:class:`CompiledTemplate` already hoists lexing, parsing, and binding out of
the per-binding loop, but each ``explain`` still deep-copies the whole bound
AST and runs the full planner — conjunct partitioning, subquery discovery,
operator counting, and statistics resolution are recomputed for every
binding even though only the literals change.

:class:`PlanReplayer` hoists the planner itself.  Built once per (template,
statistics epoch), it pre-partitions the WHERE/ON conjuncts exactly the way
:class:`~repro.sqldb.planner.Planner` would, pre-computes the selectivity
and operator-count contributions of every placeholder-free conjunct, and
records the static skeleton (sources, join conditions, residuals, aggregate
shape, ORDER BY/DISTINCT/LIMIT finalization).  Placeholder-bearing
conjuncts are *compiled*: their ``_estimate`` recursion is specialized at
build time into a closure over the per-binding literal constants, with
every placeholder-free subtree folded to a float up front.  Re-costing a
binding then only folds each placeholder's literal once and replays the
planner's greedy join-order search and cost arithmetic with scalar floats —
no AST substitution, no deep copies, no tree walks at all.

Correctness contract (the same one :mod:`repro.fastpath.compiled` carries,
enforced by ``tests/fastpath`` and the ``compiled_template`` fuzz oracle):
the replayed :class:`ExplainResult` is byte-identical to the cold
parse → bind → plan pipeline, including ``plan_text``.  Every float
operation is performed in the planner's order — conjunct selectivities fold
left-deep exactly as ``_estimate`` recurses over ``conjoin``'s AND tree,
join-condition selectivities multiply in list order, and the greedy search
uses the same strict-``<`` tie-breaks — so equality is exact, not
approximate.  Templates the replayer cannot model (subqueries, derived
tables, outer joins, placeholders outside WHERE/ON/HAVING) are detected at
build time and stay on the substitute-and-plan path.
"""

from __future__ import annotations

from typing import Mapping

from repro.sqldb import ast_nodes as ast
from repro.sqldb import cost as costs
from repro.sqldb.binder import BoundQuery
from repro.sqldb.explain import ExplainResult, explain_plan
from repro.sqldb.plan_nodes import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    NestedLoopJoinNode,
    Plan,
    PlanNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)
from repro.sqldb.planner import (
    _UNKNOWN_GROUP_NDV,
    _as_equi_condition,
    _binding_name,
    _collect_aggregates,
    _flatten_inner_joins,
    _has_outer_join,
    _indexable_column,
    _resolve_order_aliases,
    bindings_of,
    conjoin,
    shallow_walk,
    split_conjuncts,
)
from repro.sqldb.selectivity import (
    BOOL_EXPR_SELECTIVITY,
    EXISTS_SELECTIVITY,
    IN_SUBQUERY_SELECTIVITY,
    _column_stats,
    _estimate,
    constant_value,
    count_operators,
)
from repro.sqldb.stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    join_selectivity,
    like_selectivity,
)

from .compiled import literal_expression

_OPERATOR_NODES = (
    ast.BinaryOp,
    ast.UnaryOp,
    ast.Between,
    ast.Like,
    ast.IsNull,
    ast.FunctionCall,
    ast.CaseWhen,
)

_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)


def _raw_op_count(expression: ast.Expression) -> int:
    """``count_operators`` without the final ``max(count, 1)``: the additive
    contribution of one conjunct to a conjoined filter's operator count."""
    count = 0
    for node in expression.walk():
        if isinstance(node, _OPERATOR_NODES):
            count += 1
        elif isinstance(node, ast.InList):
            count += max(len(node.items), 1)
    return count


def _placeholder_names(expression: ast.Expression) -> tuple[str, ...]:
    return tuple(
        node.name
        for node in expression.walk()
        if isinstance(node, ast.Placeholder)
    )


# -- compiled selectivity -----------------------------------------------------
#
# A "binding context" maps each placeholder name to ``(const, extra_ops)``:
# the value ``constant_value`` folds its rendered literal to, and the extra
# operator-count contribution of that literal's AST (1 for negative numbers,
# which render as ``UnaryOp('-', Literal)``; 0 otherwise).  The compilers
# below specialize ``constant_value`` / ``_estimate`` over the *bound* AST so
# that, per binding, evaluating a conjunct touches no AST at all — the same
# stats-method calls and float operations fire in the same order as they
# would on the substituted tree, so results are bit-identical.

_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _const_fn(static: bool, payload):
    """Normalize a compiled fold to a ``fn(ctx)`` callable."""
    if static:
        return lambda ctx: payload
    return payload


def _compile_const(expr: ast.Expression):
    """Compile ``constant_value(substitute(expr))`` for per-binding reuse.

    Returns ``(static, payload)``: when *static*, the fold is binding-
    independent and *payload* is the folded value; otherwise *payload* is an
    ``fn(ctx)`` computing it from the binding context.  Mirrors
    :func:`repro.sqldb.selectivity.constant_value` case for case — a
    placeholder's context constant equals ``constant_value`` of its rendered
    literal, and the fold is compositional, so the result matches folding
    the substituted AST exactly.
    """
    if isinstance(expr, ast.Placeholder):
        name = expr.name
        return False, lambda ctx: ctx[name][0]
    if isinstance(expr, ast.Literal):
        return True, constant_value(expr)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        static, payload = _compile_const(expr.operand)

        def negate(value):
            if _is_number(value):
                return -value
            return None

        if static:
            return True, negate(payload)
        return False, lambda ctx: negate(payload(ctx))
    if isinstance(expr, ast.Cast):
        return _compile_const(expr.operand)
    if isinstance(expr, ast.BinaryOp) and expr.op in "+-*/":
        left_static, left = _compile_const(expr.left)
        right_static, right = _compile_const(expr.right)
        op = _ARITHMETIC[expr.op]

        def fold(a, b):
            if _is_number(a) and _is_number(b):
                try:
                    return op(a, b)
                except Exception:
                    return None
            return None

        if left_static and right_static:
            return True, fold(left, right)
        left_fn = _const_fn(left_static, left)
        right_fn = _const_fn(right_static, right)
        return False, lambda ctx: fold(left_fn(ctx), right_fn(ctx))
    return True, None


def _comparison_sel(op, left_stats, right_stats, left_const, right_const):
    """``selectivity._estimate_comparison`` after stats/const extraction."""
    if left_stats is None and right_stats is not None and left_const is not None:
        op = _FLIPPED_OPS.get(op, op)
        left_stats, right_const = right_stats, left_const
    if left_stats is not None and right_const is not None:
        if op == "=":
            return left_stats.eq_selectivity(right_const)
        if op == "<>":
            return 1.0 - left_stats.eq_selectivity(right_const)
        return left_stats.range_selectivity(op, right_const)
    if left_stats is not None and right_stats is not None:
        if op == "=":
            largest = max(
                left_stats.distinct_count, right_stats.distinct_count, 1.0
            )
            return 1.0 / largest
        return DEFAULT_RANGE_SELECTIVITY
    if op == "=":
        return DEFAULT_EQ_SELECTIVITY
    if op == "<>":
        return 1.0 - DEFAULT_EQ_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def _compile_estimate(expr: ast.Expression, resolve):
    """Compile ``_estimate(substitute(expr), resolve)`` for per-binding reuse.

    Same ``(static, payload)`` contract as :func:`_compile_const`.  Column
    statistics are resolved at build time (substitution never creates a
    ``ColumnRef``, so they cannot change per binding); only constant folds
    of placeholder-bearing subtrees stay dynamic.
    """
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "and":
            left_static, left = _compile_estimate(expr.left, resolve)
            right_static, right = _compile_estimate(expr.right, resolve)
            if left_static and right_static:
                return True, left * right
            left_fn = _const_fn(left_static, left)
            right_fn = _const_fn(right_static, right)
            return False, lambda ctx: left_fn(ctx) * right_fn(ctx)
        if expr.op == "or":
            left_static, left = _compile_estimate(expr.left, resolve)
            right_static, right = _compile_estimate(expr.right, resolve)
            if left_static and right_static:
                return True, left + right - left * right
            left_fn = _const_fn(left_static, left)
            right_fn = _const_fn(right_static, right)

            def or_sel(ctx):
                a = left_fn(ctx)
                b = right_fn(ctx)
                return a + b - a * b

            return False, or_sel
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            op = expr.op
            left_stats = _column_stats(expr.left, resolve)
            right_stats = _column_stats(expr.right, resolve)
            left_static, left = _compile_const(expr.left)
            right_static, right = _compile_const(expr.right)
            if left_static and right_static:
                return True, _comparison_sel(
                    op, left_stats, right_stats, left, right
                )
            left_fn = _const_fn(left_static, left)
            right_fn = _const_fn(right_static, right)
            return False, lambda ctx: _comparison_sel(
                op, left_stats, right_stats, left_fn(ctx), right_fn(ctx)
            )
        return True, BOOL_EXPR_SELECTIVITY
    if isinstance(expr, ast.UnaryOp) and expr.op == "not":
        static, payload = _compile_estimate(expr.operand, resolve)
        if static:
            return True, 1.0 - payload
        return False, lambda ctx: 1.0 - payload(ctx)
    if isinstance(expr, ast.IsNull):
        stats = _column_stats(expr.operand, resolve)
        fraction = stats.null_fraction if stats else DEFAULT_EQ_SELECTIVITY
        return True, 1.0 - fraction if expr.negated else fraction
    if isinstance(expr, ast.Between):
        stats = _column_stats(expr.operand, resolve)
        low_static, low = _compile_const(expr.low)
        high_static, high = _compile_const(expr.high)
        negated = expr.negated

        def between_sel(low_const, high_const):
            if stats is not None and low_const is not None and high_const is not None:
                sel = stats.between_selectivity(low_const, high_const)
            else:
                sel = DEFAULT_RANGE_SELECTIVITY * 0.5
            return 1.0 - sel if negated else sel

        if low_static and high_static:
            return True, between_sel(low, high)
        low_fn = _const_fn(low_static, low)
        high_fn = _const_fn(high_static, high)
        return False, lambda ctx: between_sel(low_fn(ctx), high_fn(ctx))
    if isinstance(expr, ast.InList):
        stats = _column_stats(expr.operand, resolve)
        compiled = [_compile_const(item) for item in expr.items]
        negated = expr.negated

        def in_sel(consts):
            total = 0.0
            for value in consts:
                if stats is not None and value is not None:
                    total += stats.eq_selectivity(value)
                else:
                    total += DEFAULT_EQ_SELECTIVITY
            sel = min(total, 1.0)
            return 1.0 - sel if negated else sel

        if all(static for static, _ in compiled):
            return True, in_sel([payload for _, payload in compiled])
        item_fns = [_const_fn(static, payload) for static, payload in compiled]
        return False, lambda ctx: in_sel([fn(ctx) for fn in item_fns])
    if isinstance(expr, ast.InSubquery):
        sel = IN_SUBQUERY_SELECTIVITY
        return True, 1.0 - sel if expr.negated else sel
    if isinstance(expr, ast.Exists):
        sel = EXISTS_SELECTIVITY
        return True, 1.0 - sel if expr.negated else sel
    if isinstance(expr, ast.Like):
        pattern_static, pattern = _compile_const(expr.pattern)
        negated = expr.negated

        def like_sel(pattern_const):
            if isinstance(pattern_const, str):
                sel = like_selectivity(pattern_const)
            else:
                sel = like_selectivity("%abc%")
            return 1.0 - sel if negated else sel

        if pattern_static:
            return True, like_sel(pattern)
        pattern_fn = _const_fn(pattern_static, pattern)
        return False, lambda ctx: like_sel(pattern_fn(ctx))
    if isinstance(expr, ast.Literal):
        if expr.value is True:
            return True, 1.0
        if expr.value in (False, None):
            return True, 0.0
        return True, BOOL_EXPR_SELECTIVITY
    return True, BOOL_EXPR_SELECTIVITY


class _Conjunct:
    """One WHERE/ON/HAVING conjunct, compiled for per-binding re-costing.

    Selectivity is a build-time float for placeholder-free conjuncts and a
    compiled closure over the binding context otherwise.  The operator count
    is a static base (placeholders count zero operators) plus one extra
    ``UnaryOp`` per placeholder whose literal renders negative.
    """

    __slots__ = ("expr", "names", "_sel", "_sel_fn", "_ops")

    def __init__(self, expr: ast.Expression, resolve):
        self.expr = expr
        self.names = _placeholder_names(expr)
        if self.names:
            static, payload = _compile_estimate(expr, resolve)
            self._sel = payload if static else None
            self._sel_fn = None if static else payload
        else:
            self._sel = _estimate(expr, resolve)
            self._sel_fn = None
        self._ops = _raw_op_count(expr)

    def estimate(self, ctx) -> float:
        if self._sel_fn is None:
            return self._sel
        return self._sel_fn(ctx)

    def ops(self, ctx) -> int:
        if not self.names:
            return self._ops
        return self._ops + sum(ctx[name][1] for name in self.names)


class _ScanSpec:
    """The static part of one base-table scan."""

    __slots__ = (
        "binding",
        "table_name",
        "row_count",
        "page_count",
        "pushed",
        "bound_filter",
        "index_candidates",
        "static_node",
    )


class _ConditionSpec:
    """One equi-join condition with its precomputed selectivity factor."""

    __slots__ = ("bindings", "left_binding", "left_expr", "right_expr", "factor")


class _ResidualSpec:
    """A non-equi conjunct applied once its bindings are all joined."""

    __slots__ = ("conjunct", "bindings")


class PlanReplayer:
    """Per-binding planner replay for one compiled, bound template."""

    def __init__(self, database, bound: BoundQuery, render_types):
        self._db = database
        self._render_types = dict(render_types)
        self._planner = database._planner
        statement = bound.statement
        self._statement = statement
        self._output_names = bound.output_names
        self._output_types = bound.output_types
        catalog = database.catalog

        # Flatten the FROM clause and partition conjuncts exactly as
        # Planner._plan_flattened_joins does.
        sources_ast: list[ast.TableExpression] = []
        on_conjuncts: list[ast.Expression] = []
        _flatten_inner_joins(statement.from_clause, sources_ast, on_conjuncts)
        bindings = [_binding_name(s) for s in sources_ast]
        all_conjuncts = on_conjuncts + split_conjuncts(statement.where)

        # Placeholder names in statement walk order (ON before WHERE before
        # HAVING), so a missing binding raises the same KeyError the
        # substitute-and-plan path would hit first.
        dynamic_names: list[str] = []
        seen_names: set[str] = set()
        dynamic_sources = list(all_conjuncts)
        if statement.having is not None:
            dynamic_sources.append(statement.having)
        for clause in dynamic_sources:
            for name in _placeholder_names(clause):
                if name not in seen_names:
                    seen_names.add(name)
                    dynamic_names.append(name)
        self._dynamic_names = dynamic_names

        binding_tables = {
            s.binding_name: s.name
            for s in sources_ast
            if isinstance(s, ast.TableRef)
        }

        def resolve(binding, column):
            if binding is None or binding not in binding_tables:
                return None
            meta = catalog.table(binding_tables[binding])
            if not meta.has_column(column):
                return None
            return meta.column(column).stats

        self._resolve = resolve

        pushed: dict[str, list[_Conjunct]] = {b: [] for b in bindings}
        self._conditions: list[_ConditionSpec] = []
        self._residuals: list[_ResidualSpec] = []
        for conjunct in all_conjuncts:
            refs = bindings_of(conjunct)
            if len(refs) <= 1 and (not refs or next(iter(refs)) in pushed):
                target = next(iter(refs)) if refs else bindings[0]
                pushed[target].append(_Conjunct(conjunct, resolve))
                continue
            condition = _as_equi_condition(conjunct)
            if condition is not None:
                spec = _ConditionSpec()
                spec.bindings = condition.bindings
                spec.left_binding = condition.left_binding
                spec.left_expr = condition.left_expr
                spec.right_expr = condition.right_expr
                spec.factor = join_selectivity(
                    resolve(condition.left_expr.table, condition.left_expr.column),
                    resolve(condition.right_expr.table, condition.right_expr.column),
                )
                self._conditions.append(spec)
            else:
                spec = _ResidualSpec()
                spec.conjunct = _Conjunct(conjunct, resolve)
                spec.bindings = bindings_of(conjunct)
                self._residuals.append(spec)

        self._scans: list[_ScanSpec] = []
        for source in sources_ast:
            assert isinstance(source, ast.TableRef)
            spec = _ScanSpec()
            spec.binding = source.binding_name
            spec.table_name = source.name
            meta = catalog.table(source.name)
            spec.row_count = meta.row_count
            spec.page_count = meta.page_count
            spec.pushed = pushed[spec.binding]
            spec.bound_filter = conjoin([c.expr for c in spec.pushed]) if spec.pushed else None
            # Per pushed conjunct: the index an equality/range/IN shape over
            # this binding could use.  The indexed column is a property of
            # the conjunct's shape, so it is static even for placeholder-
            # bearing conjuncts; whether the literal folds to a constant
            # (NULL does not) is re-checked per binding via a compiled fold.
            spec.index_candidates = []
            for conjunct in spec.pushed:
                column = _indexable_column(conjunct.expr, spec.binding)
                recheck_fn = None
                if column is None and conjunct.names:
                    column, recheck_fn = _probe_index_shape(
                        conjunct.expr, spec.binding
                    )
                if column is None:
                    spec.index_candidates.append(None)
                    continue
                index = catalog.index_on(source.name, column)
                if index is None:
                    spec.index_candidates.append(None)
                    continue
                # (index, column, per-binding constant-fold check or None)
                spec.index_candidates.append((index, column, recheck_fn))
            if not any(c.names for c in spec.pushed):
                spec.static_node = self._build_scan(spec, {})
            else:
                spec.static_node = None
            self._scans.append(spec)

        # Aggregate / finalization shape (all static).
        self._aggregated = self._planner._needs_aggregation(statement)
        if self._aggregated:
            self._aggregate_calls = _collect_aggregates(statement)
            ndv_product = 1.0
            for expression in statement.group_by:
                if isinstance(expression, ast.ColumnRef):
                    stats = resolve(expression.table, expression.column)
                    ndv = stats.distinct_count if stats else _UNKNOWN_GROUP_NDV
                else:
                    ndv = _UNKNOWN_GROUP_NDV
                ndv_product *= max(ndv, 1.0)
            self._group_ndv_product = ndv_product if statement.group_by else None
            self._having = (
                _Conjunct(statement.having, resolve)
                if statement.having is not None
                else None
            )
        self._order_items = (
            _resolve_order_aliases(statement) if statement.order_by else None
        )
        self._project_ops = sum(
            count_operators(i.expression) for i in statement.select_items
        )
        if statement.distinct:
            ndv_product = 1.0
            for item in statement.select_items:
                expression = item.expression
                if isinstance(expression, ast.ColumnRef):
                    stats = resolve(expression.table, expression.column)
                    ndv = stats.distinct_count if stats else _UNKNOWN_GROUP_NDV
                else:
                    ndv = _UNKNOWN_GROUP_NDV
                ndv_product *= max(ndv, 1.0)
            self._distinct_ndv_product = ndv_product
        else:
            self._distinct_ndv_product = None

    # -- eligibility ------------------------------------------------------------

    @staticmethod
    def build(database, bound: BoundQuery, render_types) -> "PlanReplayer | None":
        """A replayer for *bound*, or ``None`` when the statement's plan
        shape cannot be replayed (the caller stays on the full planner)."""
        statement = bound.statement
        if not isinstance(statement, ast.SelectStatement):
            return None
        if statement.from_clause is None:
            return None
        if _has_outer_join(statement.from_clause):
            return None
        for item in statement.from_clause.walk():
            if isinstance(item, ast.DerivedTable):
                return None
        # Subqueries anywhere make plan cost depend on nested planning.
        clauses: list[ast.Expression] = [
            i.expression for i in statement.select_items
        ]
        if statement.where is not None:
            clauses.append(statement.where)
        if statement.having is not None:
            clauses.append(statement.having)
        clauses.extend(statement.group_by)
        clauses.extend(o.expression for o in statement.order_by)
        clauses.extend(
            j.condition
            for j in statement.from_clause.walk()
            if isinstance(j, ast.Join) and j.condition is not None
        )
        for clause in clauses:
            for node in shallow_walk(clause):
                if isinstance(node, _SUBQUERY_NODES + (ast.SelectStatement,)):
                    return None
        # Placeholders may only drive WHERE/ON conjuncts and HAVING; in the
        # select list, GROUP BY, or ORDER BY they would change projection
        # costs and sort keys, which this replay treats as static.
        static_clauses = [i.expression for i in statement.select_items]
        static_clauses.extend(statement.group_by)
        static_clauses.extend(o.expression for o in statement.order_by)
        for clause in static_clauses:
            for node in clause.walk():
                if isinstance(node, ast.Placeholder):
                    return None
        try:
            return PlanReplayer(database, bound, render_types)
        except Exception:
            return None

    # -- per-binding replay -------------------------------------------------------

    def explain(
        self,
        values: Mapping[str, object],
        literals: Mapping[str, ast.Expression] | None = None,
    ) -> ExplainResult:
        return explain_plan(self.plan(values, literals))

    def plan(
        self,
        values: Mapping[str, object],
        literals: Mapping[str, ast.Expression] | None = None,
    ) -> Plan:
        # The binding context: each placeholder's literal folded once.  The
        # caller may pass pre-rendered literal ASTs (the type-guard in
        # CompiledTemplate._replan already built them); any name it missed
        # is rendered here, with substitute_placeholders' exact KeyError.
        ctx: dict[str, tuple[object, int]] = {}
        render_types = self._render_types
        for name in self._dynamic_names:
            literal = literals.get(name) if literals is not None else None
            if literal is None:
                if name not in values:
                    raise KeyError(f"no value for placeholder {{{name}}}")
                literal = literal_expression(values[name], render_types.get(name))
            ctx[name] = (
                constant_value(literal),
                1 if isinstance(literal, ast.UnaryOp) else 0,
            )
        root = self._replay_joins(ctx)
        if self._aggregated:
            root = self._replay_aggregate(root, ctx)
        root = self._replay_finalize(root)
        return Plan(
            root=root,
            subplans={},
            output_names=self._output_names,
            output_types=self._output_types,
        )

    # -- scans -------------------------------------------------------------------

    def _build_scan(self, spec: _ScanSpec, ctx) -> PlanNode:
        # Selectivity of the conjoined pushed filter: _estimate recurses the
        # left-deep AND tree, so factors fold left-to-right.
        factors = [c.estimate(ctx) for c in spec.pushed]
        if factors:
            sel = factors[0]
            for factor in factors[1:]:
                sel = sel * factor
            selectivity = float(min(max(sel, 0.0), 1.0))
        else:
            selectivity = 1.0
        est_rows = max(spec.row_count * selectivity, 0.0)
        if spec.pushed:
            raw = sum(c.ops(ctx) for c in spec.pushed)
            qual_ops = max(raw + (len(spec.pushed) - 1), 1)
        else:
            qual_ops = 0
        seq_cost = costs.seq_scan_cost(spec.page_count, spec.row_count, qual_ops)
        best: PlanNode = SeqScanNode(
            est_rows=est_rows,
            cost=seq_cost,
            table_name=spec.table_name,
            binding=spec.binding,
            filter=spec.bound_filter,
        )
        best_index: IndexScanNode | None = None
        for conjunct, candidate in zip(spec.pushed, spec.index_candidates):
            if candidate is None:
                continue
            index, column, recheck_fn = candidate
            if recheck_fn is not None and recheck_fn(ctx) is None:
                continue
            index_sel = conjunct.estimate(ctx)
            index_sel = float(min(max(index_sel, 0.0), 1.0))
            cost = costs.index_scan_cost(
                spec.page_count, spec.row_count, index_sel, qual_ops
            )
            node = IndexScanNode(
                est_rows=est_rows,
                cost=cost,
                table_name=spec.table_name,
                binding=spec.binding,
                index_name=index.name,
                index_column=column,
                filter=spec.bound_filter,
            )
            if best_index is None or node.cost.total < best_index.cost.total:
                best_index = node
        if best_index is not None and best_index.cost.total < best.cost.total:
            best = best_index
        return best

    def _scan_node(self, spec: _ScanSpec, ctx) -> PlanNode:
        if spec.static_node is not None:
            return spec.static_node
        return self._build_scan(spec, ctx)

    # -- join ordering -------------------------------------------------------------

    def _replay_joins(self, ctx) -> PlanNode:
        scans = [
            (spec.binding, self._scan_node(spec, ctx)) for spec in self._scans
        ]
        pending_residuals = list(self._residuals)
        if len(scans) == 1:
            binding, node = scans[0]
            return self._apply_ready_residuals(
                node, {binding}, pending_residuals, ctx
            )
        best = None
        for binding, node in scans:
            if best is None or node.est_rows < best[1].est_rows:
                best = (binding, node)
        current = best[1]
        joined = {best[0]}
        remaining = [(b, n) for b, n in scans if b != best[0]]
        pending_conditions = list(self._conditions)
        current = self._apply_ready_residuals(
            current, joined, pending_residuals, ctx
        )
        while remaining:
            choice = self._pick_next_join(
                current, joined, remaining, pending_conditions
            )
            binding, node, applicable = choice
            current = self._build_join(current, node, applicable, joined)
            joined.add(binding)
            remaining = [(b, n) for b, n in remaining if b != binding]
            for condition in applicable:
                pending_conditions.remove(condition)
            current = self._apply_ready_residuals(
                current, joined, pending_residuals, ctx
            )
        return current

    def _pick_next_join(self, current, joined, remaining, conditions):
        best = None
        for binding, node in remaining:
            applicable = [
                c
                for c in conditions
                if c.bindings <= (joined | {binding}) and binding in c.bindings
            ]
            selectivity = 1.0
            for condition in applicable:
                selectivity *= condition.factor
            out_rows = max(current.est_rows * node.est_rows * selectivity, 0.0)
            connected = bool(applicable)
            rank = (0.0 if connected else 1e18) + out_rows
            if best is None or rank < best[0]:
                best = (rank, binding, node, applicable)
        assert best is not None
        return best[1], best[2], best[3]

    def _build_join(self, left, right, conditions, left_bindings) -> PlanNode:
        selectivity = 1.0
        for condition in conditions:
            selectivity *= condition.factor
        out_rows = max(left.est_rows * right.est_rows * selectivity, 0.0)
        if conditions:
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
                join_type="inner",
                residual=None,
            )
        out_rows = max(left.est_rows * right.est_rows, 0.0)
        cost = costs.nested_loop_cost(
            left.cost, right.cost, left.est_rows, right.est_rows, out_rows
        )
        return NestedLoopJoinNode(
            est_rows=out_rows,
            cost=cost,
            left=left,
            right=right,
            condition=None,
            join_type="inner",
        )

    def _apply_ready_residuals(self, node, joined, residuals, ctx) -> PlanNode:
        ready = [r for r in residuals if r.bindings <= joined]
        for residual in ready:
            residuals.remove(residual)
        if not ready:
            return node
        # Planner._add_filter on conjoin(ready): selectivity folds left-deep,
        # operator count is the conjoined tree's.
        factors = [r.conjunct.estimate(ctx) for r in ready]
        sel = factors[0]
        for factor in factors[1:]:
            sel = sel * factor
        selectivity = float(min(max(sel, 0.0), 1.0))
        est_rows = max(node.est_rows * selectivity, 0.0)
        raw = sum(r.conjunct.ops(ctx) for r in ready)
        ops = max(raw + (len(ready) - 1), 1)
        cost = costs.Cost(
            node.cost.startup,
            node.cost.total + node.est_rows * ops * costs.CPU_OPERATOR_COST,
        )
        condition = conjoin([r.conjunct.expr for r in ready])
        return FilterNode(
            est_rows=est_rows, cost=cost, child=node, condition=condition
        )

    # -- aggregation and finalization ------------------------------------------------

    def _replay_aggregate(self, child: PlanNode, ctx) -> PlanNode:
        statement = self._statement
        if self._group_ndv_product is None:
            groups = 1.0
        else:
            groups = float(
                min(self._group_ndv_product, max(child.est_rows, 1.0))
            )
        cost = costs.aggregate_cost(
            child.cost, child.est_rows, groups, len(self._aggregate_calls)
        )
        est_rows = groups
        if self._having is not None:
            having_sel = self._having.estimate(ctx)
            est_rows *= float(min(max(having_sel, 0.0), 1.0))
            cost = cost.plus(groups * costs.CPU_OPERATOR_COST)
        return AggregateNode(
            est_rows=max(est_rows, 0.0),
            cost=cost,
            child=child,
            group_exprs=statement.group_by,
            aggregate_calls=self._aggregate_calls,
            having=statement.having,
        )

    def _replay_finalize(self, node: PlanNode) -> PlanNode:
        statement = self._statement
        if self._order_items is not None:
            node = SortNode(
                est_rows=node.est_rows,
                cost=costs.sort_cost(node.cost, node.est_rows),
                child=node,
                order_items=self._order_items,
            )
        node = ProjectNode(
            est_rows=node.est_rows,
            cost=costs.project_cost(node.cost, node.est_rows, self._project_ops),
            child=node,
            items=statement.select_items,
            output_names=self._output_names,
            output_types=self._output_types,
        )
        if self._distinct_ndv_product is not None:
            distinct_rows = float(
                min(self._distinct_ndv_product, max(node.est_rows, 1.0))
            )
            node = DistinctNode(
                est_rows=distinct_rows,
                cost=costs.aggregate_cost(
                    node.cost, node.est_rows, distinct_rows, 0
                ),
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


def _probe_index_shape(conjunct: ast.Expression, binding: str):
    """The ``(column, per-binding constant-fold check)`` an index could
    serve once the conjunct's placeholders are bound.

    Mirrors the BinaryOp arm of ``planner._indexable_column``: the column
    side is static, so only whether the opposite side folds to a constant
    (NULL literals do not) changes per binding.  Between/InList need no
    probe — ``_indexable_column`` accepts them without folding constants,
    so the bound AST already resolves them statically.  Substitution never
    creates a ``ColumnRef``, so at most one arm can ever match.
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in (
        "=", "<", "<=", ">", ">=",
    ):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and left.table == binding:
            static, payload = _compile_const(right)
            return left.column, _const_fn(static, payload)
        if isinstance(right, ast.ColumnRef) and right.table == binding:
            static, payload = _compile_const(left)
            return right.column, _const_fn(static, payload)
    return None, None
