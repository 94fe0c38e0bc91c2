"""All SQLBarber tunables in one place.

Field names and defaults follow the paper: the refinement phases use
(τ1=0.2, k1=3, m1=3) without history and (τ2=0.1, k2=5, m2=5) with history
(Section 5.2); the predicate search gives each (interval, template) pair a
budget of 5·Δ evaluations, drops template/interval combinations whose
utility ratio falls below 5%, and skips an interval after five consecutive
failed rounds (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RefinementPhase:
    """One phase of Algorithm 2."""

    coverage_threshold: float  # τ: interval is low-coverage below τ·target
    iterations: int  # k
    templates_per_interval: int  # m
    use_history: bool


@dataclass(frozen=True)
class BarberConfig:
    """Configuration for the end-to-end SQLBarber pipeline."""

    seed: int = 0

    # -- Algorithm 1: template check and rewrite ------------------------------
    max_rewrite_iterations: int = 5

    # -- Section 5.1: profiling ------------------------------------------------
    profile_fraction: float = 0.15  # of the total queries to generate
    min_profile_samples: int = 8
    max_profile_samples: int = 60
    max_categorical_choices: int = 40
    profile_sampling: str = "lhs"  # 'lhs' | 'uniform' (ablation)

    # -- Section 5.2: refinement and pruning -----------------------------------
    enable_refinement: bool = True
    # When True, refined template variants must still satisfy the user spec
    # of their seed template; cost-shifting edits that break the spec are
    # pruned.  Off by default: the paper lets refinement drift structurally
    # to reach uncovered cost ranges.
    strict_spec_refinement: bool = False
    refinement_phases: tuple[RefinementPhase, ...] = (
        RefinementPhase(0.2, 3, 3, use_history=False),
        RefinementPhase(0.1, 5, 5, use_history=True),
    )

    # -- Section 5.3: BO predicate search ----------------------------------------
    search_strategy: str = "bo"  # 'bo' | 'random' (the Naive-Search ablation)
    use_variety_factor: bool = True  # Eq. 2's v_i term (ablation)
    track_bad_combinations: bool = True  # Algorithm 3's B set (ablation)
    budget_multiplier: int = 5  # evaluations per unit of deficit (5Δ)
    max_budget_per_round: int = 120
    utility_threshold: float = 0.05
    interval_failure_limit: int = 5
    weighted_sample_size: int = 10
    min_variety: float = 0.02  # LimitedDiversity cut-off on the variety factor
    space_headroom_multiplier: float = 5.0  # require R[T] >= 5Δ
    bo_refit_every: int = 4
    bo_initial_samples: int = 6
    reuse_history: bool = True  # warm-start BO from profiling observations

    # -- repro.fastpath: caching and parallelism ---------------------------------
    # Worker count for the profile/refine fan-out; 1 = serial (the default,
    # observably identical to pre-fastpath behaviour).  Results are
    # bit-identical across worker counts thanks to per-template seeding.
    workers: int = 1
    parallel_backend: str = "thread"  # 'thread' | 'process'
    # Compile templates once and re-plan per binding instead of running the
    # full lexer/parser/binder per EXPLAIN.  The differential suite pins
    # this path byte-identical to the cold one.
    use_fastpath: bool = True

    # -- repro.resilience: budgets and checkpointing -------------------------------
    # Hard spend ceilings, checked before every LLM call.  Reaching one
    # raises BudgetExhausted, which the pipeline converts into a graceful
    # partial WorkloadResult (complete=False, abort reason recorded).
    max_tokens: int | None = None
    max_cost_dollars: float | None = None
    # How many templates the profiling stage completes between checkpoint
    # saves (when a checkpoint directory is configured).
    checkpoint_every_templates: int = 4

    # -- repro.governor: engine-side resource governance ----------------------------
    # Per-query ceilings enforced cooperatively at executor operator
    # boundaries.  All None = ungoverned (the default, zero overhead).
    query_timeout_seconds: float | None = None
    memory_budget_mb: float | None = None
    row_budget: int | None = None
    # Virtual seconds charged per processed row.  > 0 makes deadline trips a
    # pure function of the query (deterministic under the simulated clock).
    governor_cost_per_row_seconds: float = 0.0
    # 'system' = wall-clock deadlines; 'simulated' = per-query deterministic
    # timeline that only advances via charged cost (tests, chaos campaigns).
    governor_clock: str = "system"
    # Resource strikes a template survives before it is quarantined for the
    # rest of the run.
    quarantine_after: int = 3
    # Seeded engine fault model (repro.governor.EngineFaultModel) or None.
    engine_faults: object | None = None
    # Out-of-band wall-clock guard for stuck profiling workers; None = off.
    # Nondeterministic by nature — never enable in reproducibility tests.
    watchdog_timeout_seconds: float | None = None

    # -- repro.obs: observability --------------------------------------------------
    # Arm the operator-level executor profiler for the run: every executed
    # plan operator records rows/batches/self-time into the run's profile
    # tree (WorkloadResult.operator_profiles).  Execution-only — it never
    # changes what is generated, so checkpoints ignore it.
    profile: bool = False

    # -- repro.workload.mixer: mixed read/write workloads --------------------------
    # Fractions (select, insert, update, delete) of the final workload, or
    # None (the default) for an all-SELECT output.  Mixing is a
    # deterministic post-pass over the search result: the statement at
    # position i depends only on (seed, i) and the schema, so mixed
    # workloads stay byte-identical across runs and worker counts.  DML
    # replacements are drawn from the fuzz grammar and costed via EXPLAIN,
    # which never executes them.
    workload_mix: tuple[float, float, float, float] | None = None

    # -- misc ----------------------------------------------------------------------
    time_budget_seconds: float | None = None
    unbound_placeholder_range: tuple[int, int] = (1, 1000)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        """Reject nonsensical limits up front, with actionable messages.

        A zero timeout would cancel every query; a negative budget would
        quarantine every template.  Those are configuration bugs, not
        workloads, and surfacing them at construction beats diagnosing a
        fully-quarantined run.
        """

        def _positive(name: str, value, *, allow_none: bool = True) -> None:
            if value is None:
                if not allow_none:
                    raise ValueError(f"BarberConfig.{name} must be set")
                return
            if value <= 0:
                raise ValueError(
                    f"BarberConfig.{name} must be positive (got {value!r}); "
                    f"use None to disable the limit"
                )

        if self.workers < 1:
            raise ValueError(
                f"BarberConfig.workers must be >= 1 (got {self.workers})"
            )
        if self.parallel_backend not in ("thread", "process"):
            raise ValueError(
                f"BarberConfig.parallel_backend must be 'thread' or "
                f"'process' (got {self.parallel_backend!r})"
            )
        if self.governor_clock not in ("system", "simulated"):
            raise ValueError(
                f"BarberConfig.governor_clock must be 'system' or "
                f"'simulated' (got {self.governor_clock!r})"
            )
        if self.quarantine_after < 1:
            raise ValueError(
                f"BarberConfig.quarantine_after must be >= 1 "
                f"(got {self.quarantine_after})"
            )
        if self.governor_cost_per_row_seconds < 0:
            raise ValueError(
                f"BarberConfig.governor_cost_per_row_seconds must be >= 0 "
                f"(got {self.governor_cost_per_row_seconds!r})"
            )
        if self.checkpoint_every_templates < 1:
            raise ValueError(
                f"BarberConfig.checkpoint_every_templates must be >= 1 "
                f"(got {self.checkpoint_every_templates})"
            )
        if self.workload_mix is not None:
            mix = self.workload_mix
            if (
                len(mix) != 4
                or any(f < 0 for f in mix)
                or abs(sum(mix) - 1.0) > 1e-6
            ):
                raise ValueError(
                    f"BarberConfig.workload_mix must be four non-negative "
                    f"(select, insert, update, delete) fractions summing "
                    f"to 1 (got {mix!r}); use None for all-SELECT output"
                )
        _positive("query_timeout_seconds", self.query_timeout_seconds)
        _positive("memory_budget_mb", self.memory_budget_mb)
        _positive("row_budget", self.row_budget)
        _positive("watchdog_timeout_seconds", self.watchdog_timeout_seconds)
        _positive("time_budget_seconds", self.time_budget_seconds)
        _positive("max_tokens", self.max_tokens)
        _positive("max_cost_dollars", self.max_cost_dollars)

    def with_overrides(self, **kwargs) -> "BarberConfig":
        from dataclasses import replace

        return replace(self, **kwargs)
