"""Differential oracles for the fuzzer.

Each oracle asserts that two independent implementations of the same
contract agree on a generated statement:

* :class:`RoundTripOracle` — ``parse → render → parse`` is the identity on
  ASTs, and the rendered text plans to byte-identical estimates;
* :class:`ExplainCacheOracle` — cached, uncached, and post-epoch-bump
  EXPLAIN results are byte-identical;
* :class:`CompiledTemplateOracle` — templatizing the statement's WHERE
  literals and re-costing through :class:`CompiledTemplate` (the fastpath)
  matches the cold parse → bind → plan pipeline, on the original binding
  and on a perturbed one;
* :class:`ParallelProfilerOracle` — profiling templatized statements
  through :class:`ParallelProfiler` is bit-identical to the serial loop
  (batched: checked once over the accumulated templates at end of run);
* :class:`ExecutionOracle` — executor results are consistent with the
  estimator's invariants (finite non-negative costs, ``total >= startup``,
  LIMIT respected) and with predicate monotonicity (ANDing a conjunct
  never yields more rows);
* :class:`DmlEpochOracle` — committed DML bumps the statistics epoch, so
  a probe SELECT warmed into the EXPLAIN cache before the write re-costs
  after it and matches both the cold pipeline and the table's actual
  post-mutation row count.

``check`` returns None (pass), :data:`SKIPPED` (oracle not applicable to
this statement), or a string describing the disagreement.  An engine
exception escaping ``check`` is itself a finding — generated statements
are valid by construction — and is converted to a disagreement by the
runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BarberConfig
from repro.core.profiler import TemplateProfiler
from repro.fastpath.compiled import (
    CompiledTemplate,
    bound_literal_type,
    literal_expression,
)
from repro.fastpath.parallel import ParallelProfiler
from repro.sqldb import ast_nodes as ast
from repro.sqldb.database import Database
from repro.sqldb.errors import ConstraintError, SqlError
from repro.sqldb.explain import ExplainResult, explain_plan
from repro.sqldb.parser import parse_sql
from repro.sqldb.plan_nodes import PlanNode
from repro.sqldb.sql_render import render_statement
from repro.workload.placeholders import infer_placeholder_bindings
from repro.workload.template import PlaceholderInfo, SqlTemplate

from .grammar import GeneratedStatement

#: Sentinel returned by ``check`` when the oracle does not apply.
SKIPPED = "__skipped__"


@dataclass
class Disagreement:
    """One oracle failure, optionally with a shrunk reproducer attached."""

    oracle: str
    sql: str
    detail: str
    index: int = -1
    shrunk_sql: str | None = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "sql": self.sql,
            "detail": self.detail,
            "index": self.index,
            "shrunk_sql": self.shrunk_sql,
        }


@dataclass
class OracleContext:
    db: Database
    seed: int = 0


class Oracle:
    """Base class; subclasses override :meth:`check` (and optionally
    :meth:`finish` for batched end-of-run checks)."""

    name = "oracle"
    #: Check every ``stride``-th statement (1 = every statement).
    stride = 1

    def check(self, ctx: OracleContext, gen: GeneratedStatement) -> str | None:
        raise NotImplementedError

    def finish(self, ctx: OracleContext) -> list[Disagreement]:
        return []


def _diff(label: str, a: ExplainResult, b: ExplainResult) -> str | None:
    if a == b:
        return None
    return (
        f"{label}: rows {a.estimated_rows} vs {b.estimated_rows}, "
        f"cost {a.startup_cost}/{a.total_cost} vs {b.startup_cost}/{b.total_cost}"
        + ("" if a.plan_text == b.plan_text else ", plan text differs")
    )


class RoundTripOracle(Oracle):
    """``render_statement`` is a faithful inverse of the parser."""

    name = "round_trip"

    def check(self, ctx, gen):
        original = parse_sql(gen.sql)
        rendered = render_statement(original)
        reparsed = parse_sql(rendered)
        if original != reparsed:
            return f"AST changed across render round-trip: {rendered!r}"
        cold_a = explain_plan(ctx.db.plan(gen.sql))
        cold_b = explain_plan(ctx.db.plan(rendered))
        return _diff("re-rendered text plans differently", cold_a, cold_b)


class ExplainCacheOracle(Oracle):
    """Cache hits, misses, and epoch-invalidated recomputes all agree."""

    name = "explain_cache"

    def check(self, ctx, gen):
        db = ctx.db
        cold = explain_plan(db.plan(gen.sql))
        first = db.explain_estimates(gen.sql)  # miss (or prior hit)
        second = db.explain_estimates(gen.sql)  # guaranteed hit
        detail = _diff("cold vs cached", cold, first) or _diff(
            "first vs second cached", first, second
        )
        if detail:
            return detail
        db.catalog.bump_statistics_epoch()
        recomputed = db.explain_estimates(gen.sql)  # new epoch: recompute
        return _diff("cached vs post-epoch-bump", cold, recomputed)


def templatize(sql: str, db: Database) -> tuple[SqlTemplate | None, dict]:
    """Replace outer-WHERE comparison literals with placeholders.

    Returns ``(template, values)`` with inferred placeholder bindings, or
    ``(None, {})`` when the statement has no templatizable literal (no
    WHERE, or only literal shapes the template machinery cannot re-render
    canonically).
    """
    statement = parse_sql(sql)
    if not isinstance(statement, ast.SelectStatement) or statement.where is None:
        return None, {}
    values: dict[str, object] = {}

    def lift(expr: ast.Expression) -> ast.Expression | None:
        """The placeholder for *expr* if it is a liftable literal."""
        value: object
        if isinstance(expr, ast.Literal):
            value = expr.value
        elif (
            isinstance(expr, ast.UnaryOp)
            and expr.op == "-"
            and isinstance(expr.operand, ast.Literal)
        ):
            value = -expr.operand.value  # type: ignore[operator]
        else:
            return None
        if value is None or isinstance(value, bool):
            return None
        name = f"p{len(values)}"
        values[name] = value
        return ast.Placeholder(name)

    def visit(expr: ast.Expression) -> None:
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("and", "or"):
                visit(expr.left)
                visit(expr.right)
                return
            lifted = lift(expr.right)
            if lifted is not None:
                expr.right = lifted
        elif isinstance(expr, ast.UnaryOp) and expr.op == "not":
            visit(expr.operand)
        elif isinstance(expr, ast.Between):
            low = lift(expr.low)
            if low is not None:
                expr.low = low
            high = lift(expr.high)
            if high is not None:
                expr.high = high
        elif isinstance(expr, ast.Like):
            pattern = lift(expr.pattern)
            if pattern is not None:
                expr.pattern = pattern

    visit(statement.where)
    if not values:
        return None, {}
    template_sql = render_statement(statement)
    template = SqlTemplate(template_id="fuzz", sql=template_sql)
    try:
        template.placeholders = infer_placeholder_bindings(
            template.parse(), db.catalog
        )
    except Exception:
        template.placeholders = [PlaceholderInfo(name) for name in values]
    have = {p.name for p in template.placeholders}
    template.placeholders = list(template.placeholders) + [
        PlaceholderInfo(name) for name in values if name not in have
    ]
    return template, values


class CompiledTemplateOracle(Oracle):
    """Compiled-template re-costing is byte-identical to the cold path."""

    name = "compiled_template"

    def check(self, ctx, gen):
        template, values = templatize(gen.sql, ctx.db)
        if template is None:
            return SKIPPED
        render_types = {p.name: p.sql_type for p in template.placeholders}
        types = {
            name: bound_literal_type(
                literal_expression(value, render_types.get(name))
            )
            for name, value in values.items()
        }
        compiled = CompiledTemplate(ctx.db, template, types)
        for binding in (values, _perturb(values)):
            instantiated = template.instantiate(binding)
            fast = compiled.explain(binding)
            cold = explain_plan(ctx.db.plan(instantiated))
            detail = _diff(f"compiled vs cold on {instantiated!r}", fast, cold)
            if detail:
                return detail
        return None


def _perturb(values: dict) -> dict:
    """A second, deterministic binding for the same template: numeric
    values shift, text/date values keep their original (still exercises
    the re-plan because the combined binding differs)."""
    out = {}
    for name, value in values.items():
        if isinstance(value, bool):
            out[name] = value
        elif isinstance(value, int):
            out[name] = value + 1
        elif isinstance(value, float):
            out[name] = value + 0.5
        else:
            out[name] = value
    return out


class ParallelProfilerOracle(Oracle):
    """Serial and parallel profiling produce bit-identical profiles.

    Template profiling is ~100x the cost of one EXPLAIN, so this oracle
    samples (``stride``) and defers the actual comparison to
    :meth:`finish`, where the accumulated templates are profiled as one
    batch — ``ParallelProfiler`` only fans out for 2+ templates.
    """

    name = "parallel_profiler"
    stride = 25
    max_templates = 8
    samples = 4

    def __init__(self):
        self._templates: list[SqlTemplate] = []

    def check(self, ctx, gen):
        if len(self._templates) >= self.max_templates:
            return SKIPPED
        template, values = templatize(gen.sql, ctx.db)
        if template is None:
            return SKIPPED
        template.template_id = f"fuzz_{gen.index}"
        self._templates.append(template)
        return None

    def finish(self, ctx):
        if len(self._templates) < 2:
            return []
        config = BarberConfig(seed=ctx.seed, workers=1)
        profiler = TemplateProfiler(ctx.db, config)
        serial = profiler.profile_many(self._templates, self.samples)
        parallel = ParallelProfiler(profiler, workers=2, backend="thread").profile_many(
            self._templates, self.samples
        )
        out = []
        for template, s, p in zip(self._templates, serial, parallel):
            if s.observations != p.observations or s.errors != p.errors:
                out.append(
                    Disagreement(
                        oracle=self.name,
                        sql=template.sql,
                        detail=(
                            f"serial vs parallel profile differs: "
                            f"{len(s.observations)} obs {s.costs[:4]} vs "
                            f"{len(p.observations)} obs {p.costs[:4]}"
                        ),
                    )
                )
        return out


class ExecutionOracle(Oracle):
    """Actual execution is consistent with the estimator's invariants."""

    name = "execution"

    def check(self, ctx, gen):
        db = ctx.db
        plan = db.plan(gen.sql)
        estimates = explain_plan(plan)
        detail = self._estimate_sanity(estimates, plan.root)
        if detail:
            return detail
        epoch_before = db.catalog.statistics_epoch
        try:
            result = db.execute(gen.sql)
        except ConstraintError:
            # A constraint rejection (duplicate key, NOT NULL) is a valid
            # execution outcome — but it must be a *complete* rollback:
            # nothing published, so the statistics epoch cannot have moved.
            if db.catalog.statistics_epoch != epoch_before:
                return (
                    "constraint violation advanced the statistics epoch "
                    f"({epoch_before} -> {db.catalog.statistics_epoch}): "
                    "partial effects were published"
                )
            return None
        rows = result.row_count
        statement = parse_sql(gen.sql)
        if (
            isinstance(statement, ast.SelectStatement)
            and statement.limit is not None
            and rows > statement.limit
        ):
            return f"LIMIT {statement.limit} but {rows} rows returned"
        if gen.tightened_sql is not None:
            tightened_rows = db.execute(gen.tightened_sql).row_count
            if tightened_rows > rows:
                return (
                    f"predicate tightening grew the result: {rows} rows -> "
                    f"{tightened_rows} rows for {gen.tightened_sql!r}"
                )
        return None

    def _estimate_sanity(self, estimates: ExplainResult, root: PlanNode) -> str | None:
        import math

        for value in (
            estimates.estimated_rows,
            estimates.startup_cost,
            estimates.total_cost,
        ):
            if not math.isfinite(value) or value < 0:
                return f"non-finite or negative estimate: {estimates}"
        if estimates.total_cost < estimates.startup_cost:
            return (
                f"total cost {estimates.total_cost} below startup "
                f"{estimates.startup_cost}"
            )
        return self._node_sanity(root)

    def _node_sanity(self, node: PlanNode) -> str | None:
        import math

        if not math.isfinite(node.est_rows) or node.est_rows < 0:
            return f"plan node {node.node_type} estimates {node.est_rows} rows"
        if node.cost.total < node.cost.startup:
            return (
                f"plan node {node.node_type} total cost {node.cost.total} "
                f"below startup {node.cost.startup}"
            )
        for child in node.children():
            detail = self._node_sanity(child)
            if detail:
                return detail
        return None


class DmlEpochOracle(Oracle):
    """Committed DML invalidates every cached costing of its target table.

    The stale-cache trap this hunts: a SELECT probe's EXPLAIN result is
    warmed into the cache, the statement mutates the table, and a later
    ``explain`` serves the pre-mutation estimate.  The engine's contract is
    that every committed DML bumps ``statistics_epoch`` (the cache key), so
    the post-DML probe must re-cost — and because ``note_mutation``
    refreshes the catalog row count, the fresh estimate of an unfiltered
    scan equals the table's actual row count exactly.
    """

    name = "dml_epoch"

    def check(self, ctx, gen):
        db = ctx.db
        statement = parse_sql(gen.sql)
        if not ast.is_dml(statement):
            return SKIPPED
        target = statement.target.name
        probe = f"SELECT * FROM {target}"
        db.explain_estimates(probe)  # warm the cache at the current epoch
        before = db.catalog.statistics_epoch
        rows_before = db.catalog.table(target).row_count
        try:
            db.execute(gen.sql)
        except ConstraintError:
            # Rejected statement: statement-level rollback means no commit,
            # no epoch bump, no row-count change — the warm cache entry is
            # still the correct one.
            if db.catalog.statistics_epoch != before:
                return (
                    "constraint violation bumped the statistics epoch "
                    f"({before} -> {db.catalog.statistics_epoch})"
                )
            if db.catalog.table(target).row_count != rows_before:
                return (
                    f"constraint violation changed {target} row count "
                    f"({rows_before} -> {db.catalog.table(target).row_count})"
                )
            return None
        after = db.catalog.statistics_epoch
        if after <= before:
            return (
                f"statistics_epoch did not advance across committed DML "
                f"({before} -> {after})"
            )
        cached = db.explain_estimates(probe)  # epoch moved: must re-cost
        cold = explain_plan(db.plan(probe))
        detail = _diff("post-DML cached vs cold probe", cached, cold)
        if detail:
            return detail
        actual = db.catalog.table(target).row_count
        if round(cached.estimated_rows) != actual:
            return (
                f"post-DML probe estimates {cached.estimated_rows} rows but "
                f"table {target} holds {actual} — stale costing served"
            )
        return None


def default_oracles() -> list[Oracle]:
    """The standard oracle set, in execution order."""
    return [
        RoundTripOracle(),
        ExplainCacheOracle(),
        CompiledTemplateOracle(),
        ExecutionOracle(),
        DmlEpochOracle(),
        ParallelProfilerOracle(),
    ]


__all__ = [
    "SKIPPED",
    "Oracle",
    "OracleContext",
    "Disagreement",
    "RoundTripOracle",
    "ExplainCacheOracle",
    "CompiledTemplateOracle",
    "DmlEpochOracle",
    "ParallelProfilerOracle",
    "ExecutionOracle",
    "default_oracles",
    "templatize",
]
