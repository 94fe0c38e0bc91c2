"""Physical plan node definitions shared by the planner, executor, EXPLAIN."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ast_nodes as ast
from .cost import Cost
from .types import SqlType


@dataclass
class PlanNode:
    """Base physical node: estimated rows plus (startup, total) cost."""

    est_rows: float = 0.0
    cost: Cost = field(default_factory=lambda: Cost(0.0, 0.0))

    @property
    def node_type(self) -> str:
        return type(self).__name__.removesuffix("Node")

    def children(self) -> list["PlanNode"]:
        return []

    def describe(self) -> str:
        """Extra detail appended to the node type in EXPLAIN output."""
        return ""


@dataclass
class SeqScanNode(PlanNode):
    """Full sequential scan of a base table with an optional pushed filter."""

    table_name: str = ""
    binding: str = ""
    filter: Optional[ast.Expression] = None

    @property
    def node_type(self) -> str:
        return "Seq Scan"

    def describe(self) -> str:
        alias = f" {self.binding}" if self.binding != self.table_name else ""
        return f"on {self.table_name}{alias}"


@dataclass
class IndexScanNode(PlanNode):
    """B-tree index scan driven by one indexable conjunct."""

    table_name: str = ""
    binding: str = ""
    index_name: str = ""
    index_column: str = ""
    filter: Optional[ast.Expression] = None

    @property
    def node_type(self) -> str:
        return "Index Scan"

    def describe(self) -> str:
        alias = f" {self.binding}" if self.binding != self.table_name else ""
        return f"using {self.index_name} on {self.table_name}{alias}"


@dataclass
class SubqueryScanNode(PlanNode):
    """A derived table: run the subplan, expose columns under *alias*."""

    subplan: "Plan" = None  # type: ignore[assignment]
    alias: str = ""
    filter: Optional[ast.Expression] = None

    @property
    def node_type(self) -> str:
        return "Subquery Scan"

    def describe(self) -> str:
        return f"on {self.alias}"

    def children(self) -> list[PlanNode]:
        return [self.subplan.root]


@dataclass
class HashJoinNode(PlanNode):
    """Equi-join: hash build on the right input, probe with the left."""

    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]
    left_keys: list[ast.Expression] = field(default_factory=list)
    right_keys: list[ast.Expression] = field(default_factory=list)
    join_type: str = "inner"
    residual: Optional[ast.Expression] = None

    @property
    def node_type(self) -> str:
        return f"Hash {self.join_type.capitalize()} Join" if self.join_type != "inner" else "Hash Join"

    def describe(self) -> str:
        conds = ", ".join(
            f"{_expr_text(l)} = {_expr_text(r)}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"({conds})" if conds else ""

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


@dataclass
class NestedLoopJoinNode(PlanNode):
    """Materialized nested-loop join for non-equi and cross joins."""

    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]
    condition: Optional[ast.Expression] = None
    join_type: str = "inner"

    @property
    def node_type(self) -> str:
        return "Nested Loop"

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


@dataclass
class FilterNode(PlanNode):
    """Residual predicate applied above its child."""

    child: PlanNode = None  # type: ignore[assignment]
    condition: Optional[ast.Expression] = None

    @property
    def node_type(self) -> str:
        return "Filter"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class AggregateNode(PlanNode):
    """Grouped or global aggregation, with the HAVING filter folded in."""

    child: PlanNode = None  # type: ignore[assignment]
    group_exprs: list[ast.Expression] = field(default_factory=list)
    aggregate_calls: list[ast.FunctionCall] = field(default_factory=list)
    having: Optional[ast.Expression] = None

    @property
    def node_type(self) -> str:
        return "HashAggregate" if self.group_exprs else "Aggregate"

    def describe(self) -> str:
        if self.group_exprs:
            keys = ", ".join(_expr_text(g) for g in self.group_exprs)
            return f"group by {keys}"
        return ""

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class ProjectNode(PlanNode):
    """Select-list evaluation producing the statement's output columns."""

    child: PlanNode = None  # type: ignore[assignment]
    items: list[ast.SelectItem] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)
    output_types: list[SqlType] = field(default_factory=list)

    @property
    def node_type(self) -> str:
        return "Projection"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class DistinctNode(PlanNode):
    """Duplicate elimination over the projected output (SELECT DISTINCT)."""

    child: PlanNode = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "Unique"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class SortNode(PlanNode):
    """ORDER BY: sorts its child by the resolved order keys."""

    child: PlanNode = None  # type: ignore[assignment]
    order_items: list[ast.OrderItem] = field(default_factory=list)

    @property
    def node_type(self) -> str:
        return "Sort"

    def describe(self) -> str:
        keys = ", ".join(
            _expr_text(o.expression) + (" DESC" if o.descending else "")
            for o in self.order_items
        )
        return f"key: {keys}"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class LimitNode(PlanNode):
    """LIMIT/OFFSET: row-range selection over its child."""

    child: PlanNode = None  # type: ignore[assignment]
    limit: Optional[int] = None
    offset: Optional[int] = None

    @property
    def node_type(self) -> str:
        return "Limit"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class AppendNode(PlanNode):
    """UNION [ALL]: concatenate branch plans, optionally deduplicating."""

    plans: list["Plan"] = field(default_factory=list)
    deduplicate: bool = False

    @property
    def node_type(self) -> str:
        return "Unique over Append" if self.deduplicate else "Append"

    def children(self) -> list[PlanNode]:
        return [plan.root for plan in self.plans]


@dataclass
class ResultNode(PlanNode):
    """A FROM-less SELECT producing a single row."""

    items: list[ast.SelectItem] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)

    @property
    def node_type(self) -> str:
        return "Result"


@dataclass
class InsertNode(PlanNode):
    """INSERT: append literal rows or a source plan's output to a table.

    ``est_rows`` is the estimated number of rows written; the node's own
    output is always the single ``rows_affected`` row.
    """

    table_name: str = ""
    columns: list[str] = field(default_factory=list)
    rows: list[list[ast.Expression]] = field(default_factory=list)
    source: Optional["Plan"] = None

    @property
    def node_type(self) -> str:
        return "Insert"

    def describe(self) -> str:
        return f"on {self.table_name}"

    def children(self) -> list[PlanNode]:
        return [self.source.root] if self.source is not None else []


@dataclass
class UpdateNode(PlanNode):
    """UPDATE: rewrite assigned columns of the rows its child scan matches."""

    child: PlanNode = None  # type: ignore[assignment]
    table_name: str = ""
    assignments: list[ast.Assignment] = field(default_factory=list)

    @property
    def node_type(self) -> str:
        return "Update"

    def describe(self) -> str:
        columns = ", ".join(a.column for a in self.assignments)
        return f"on {self.table_name} set {columns}"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class DeleteNode(PlanNode):
    """DELETE: remove the rows its child scan matches."""

    child: PlanNode = None  # type: ignore[assignment]
    table_name: str = ""

    @property
    def node_type(self) -> str:
        return "Delete"

    def describe(self) -> str:
        return f"on {self.table_name}"

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class SubPlan:
    """An uncorrelated subquery expression, planned once and cached."""

    kind: str  # 'in' | 'exists' | 'scalar'
    plan: "Plan" = None  # type: ignore[assignment]


@dataclass
class Plan:
    """A complete plan for one statement."""

    root: PlanNode
    subplans: dict[int, SubPlan] = field(default_factory=dict)
    output_names: list[str] = field(default_factory=list)
    output_types: list[SqlType] = field(default_factory=list)

    @property
    def est_rows(self) -> float:
        return self.root.est_rows

    @property
    def total_cost(self) -> float:
        return self.root.cost.total

    @property
    def startup_cost(self) -> float:
        return self.root.cost.startup


def _expr_text(expression: ast.Expression) -> str:
    """A compact, lossy rendering of an expression for EXPLAIN output."""
    if isinstance(expression, ast.ColumnRef):
        return str(expression)
    if isinstance(expression, ast.Literal):
        return repr(expression.value)
    if isinstance(expression, ast.BinaryOp):
        return f"{_expr_text(expression.left)} {expression.op} {_expr_text(expression.right)}"
    if isinstance(expression, ast.FunctionCall):
        inner = ", ".join(_expr_text(a) for a in expression.args)
        return f"{expression.name}({inner})"
    if isinstance(expression, ast.Star):
        return "*"
    return type(expression).__name__.lower()
