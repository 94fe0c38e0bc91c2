"""The SQLBarber facade: the declarative end-to-end interface.

Typical use::

    from repro.core import SQLBarber
    from repro.datasets import build_tpch
    from repro.workload import CostDistribution, TemplateSpec

    barber = SQLBarber(build_tpch())
    result = barber.generate_workload(
        specs=[TemplateSpec.from_natural_language("2 joins and one aggregation")],
        distribution=CostDistribution.uniform(0, 10_000, 200, 10),
    )
    result.workload          # the generated queries
    result.tracker.wasserstein  # alignment with the target distribution
    result.telemetry         # trace tree + metrics for the run
    result.stage_seconds     # {"templates": ..., "profile": ..., ...}

Every run carries a :class:`~repro.obs.Telemetry`: four stage spans
(``stage:templates`` / ``stage:profile`` / ``stage:refine`` /
``stage:search``) under one ``generate_workload`` root, with per-stage
LLM-token and engine-call deltas attached as span attributes.  Sinks passed
to the constructor (e.g. :class:`~repro.obs.JsonlSink`) receive every span
as it closes plus a final metrics snapshot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.governor import QuarantineRecord
from repro.llm import LLMClient, SimulatedLLM
from repro.llm.errors import PIPELINE_ABORT_ERRORS
from repro.obs import Telemetry, use_telemetry
from repro.resilience import CheckpointManager, ResilientLLMClient
from repro.resilience.checkpoint import (
    canonical_json,
    profile_from_state,
    profile_to_state,
    refinement_from_state,
    restore_usage,
    run_key,
    template_from_state,
    template_to_state,
    trace_from_state,
    trace_to_state,
    usage_to_state,
)
from repro.sqldb import Database
from repro.workload import (
    CostDistribution,
    DistributionTracker,
    SqlTemplate,
    TemplateSpec,
    Workload,
)
from .config import BarberConfig
from .predicate_search import PredicateSearch, SearchResult
from .profiler import TemplateProfile, TemplateProfiler
from .refiner import RefinementResult, TemplateRefiner
from .schema_summary import schema_payload
from .template_generator import CustomizedTemplateGenerator, TemplateGenerationReport

# Pipeline stages in execution order; each gets a `stage:<name>` span.
PIPELINE_STAGES = ("templates", "profile", "refine", "search")


@dataclass
class WorkloadResult:
    """Everything produced by one end-to-end SQLBarber run."""

    workload: Workload
    tracker: DistributionTracker
    templates: list[SqlTemplate]
    profiles: list[TemplateProfile]
    generation_report: TemplateGenerationReport
    refinement: RefinementResult | None
    # None when the run aborted before the search stage.
    search: SearchResult | None
    elapsed_seconds: float
    distance_trace: list[tuple[float, float]] = field(default_factory=list)
    llm_usage: dict = field(default_factory=dict)
    # Directly-measured stage boundaries (no back-computation from traces).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # The run's Telemetry: trace tree (telemetry.tracer.roots) and metrics
    # (telemetry.metrics.snapshot()).
    telemetry: Telemetry | None = None
    # Aggregated operator-level executor profile (ExecProfileCollector
    # snapshot) when the run was armed with config.profile=True, else None.
    operator_profiles: dict | None = None
    # Graceful degradation: a stage abort (budget exhausted, retries
    # exhausted, circuit stuck open) yields this partial-but-valid result
    # instead of an exception.  Resume from `checkpoint_path` if set.
    aborted: bool = False
    abort_stage: str | None = None
    abort_reason: str | None = None
    checkpoint_path: str | None = None
    # Templates benched by the resource governor (repro.governor): who,
    # why, after how many strikes, and the bindings that tripped the limit.
    quarantined: list[QuarantineRecord] = field(default_factory=list)

    @property
    def final_distance(self) -> float:
        return self.tracker.wasserstein

    @property
    def complete(self) -> bool:
        return not self.aborted and self.tracker.complete

    def fingerprint(self) -> dict:
        """The run's semantic content, minus anything wall-clock dependent.

        Two runs with identical fingerprints produced the same workload —
        the equality the chaos campaign asserts between an uninterrupted
        run and a killed-then-resumed one.
        """
        return {
            "queries": [q.to_json() for q in self.workload.queries],
            "templates": [
                {"template_id": t.template_id, "sql": t.sql} for t in self.templates
            ],
            "profiles": [
                {"template_id": p.template.template_id, "costs": p.costs}
                for p in self.profiles
            ],
            "final_distance": self.tracker.wasserstein,
            "llm_usage": dict(self.llm_usage),
            "aborted": self.aborted,
            "abort_stage": self.abort_stage,
            "complete": self.complete,
            "quarantined": [r.to_dict() for r in self.quarantined],
        }

    def fingerprint_json(self) -> str:
        return canonical_json(self.fingerprint())

    @property
    def num_templates(self) -> int:
        return len(self.profiles)

    @property
    def setup_seconds(self) -> float:
        """Time spent before the predicate search started."""
        return sum(
            seconds
            for stage, seconds in self.stage_seconds.items()
            if stage != "search"
        )


def _substrate_totals(telemetry: Telemetry) -> dict[str, float]:
    """Current LLM/engine counter totals, for per-stage deltas."""
    metrics = telemetry.metrics
    return {
        "llm_calls": metrics.total("llm.calls"),
        "llm_tokens": (
            metrics.total("llm.tokens.prompt")
            + metrics.total("llm.tokens.completion")
        ),
        "db_calls": (
            metrics.total("sqldb.explain.calls")
            + metrics.total("sqldb.execute.calls")
        ),
        "governor_strikes": metrics.total("governor.strikes"),
        "governor_cancellations": (
            metrics.total("governor.watchdog_cancellations")
        ),
        "governor_quarantines": metrics.total("governor.quarantines"),
    }


class SQLBarber:
    """Customized + realistic SQL workload generation (the paper's system)."""

    def __init__(
        self,
        db: Database,
        llm: LLMClient | None = None,
        config: BarberConfig | None = None,
        sinks: list | None = None,
    ):
        self.db = db
        self.config = config or BarberConfig()
        self.llm = llm if llm is not None else SimulatedLLM(seed=self.config.seed)
        if (
            self.config.max_tokens is not None
            or self.config.max_cost_dollars is not None
        ) and not isinstance(self.llm, ResilientLLMClient):
            # Budgeted runs get the resilient wrapper automatically so the
            # ceilings are enforced on every call path.
            self.llm = ResilientLLMClient(
                self.llm,
                max_tokens=self.config.max_tokens,
                max_cost_dollars=self.config.max_cost_dollars,
                jitter_seed=self.config.seed + 101,
            )
        self.schema = schema_payload(db)
        # Telemetry sinks attached to every generate_workload run (a fresh
        # Telemetry is created per run; sinks are closed when it finishes,
        # so file-backed sinks serve exactly one run).
        self.sinks = list(sinks) if sinks else []

    # -- component factories (overridable in ablations) -----------------------------

    def template_generator(self) -> CustomizedTemplateGenerator:
        return CustomizedTemplateGenerator(self.db, self.llm, self.config)

    def profiler(self, cost_type: str) -> TemplateProfiler:
        return TemplateProfiler(self.db, self.config, cost_metric=cost_type)

    # -- public API ---------------------------------------------------------------------

    def generate_templates(
        self, specs: list[TemplateSpec]
    ) -> tuple[list[SqlTemplate], TemplateGenerationReport]:
        """Section 4 only: customized template generation with Algorithm 1."""
        return self.template_generator().generate_many(specs)

    @contextmanager
    def _stage(self, telemetry: Telemetry, name: str, stage_seconds: dict):
        """One `stage:<name>` span, recording duration + substrate deltas."""
        before = _substrate_totals(telemetry)
        before_peak = telemetry.metrics.max_gauge("governor.peak_bytes")
        telemetry.event("stage_started", stage=name)
        started = time.perf_counter()
        with telemetry.span(f"stage:{name}") as span:
            try:
                yield span
            finally:
                after = _substrate_totals(telemetry)
                stage_seconds[name] = time.perf_counter() - started
                telemetry.event(
                    "stage_finished", stage=name, seconds=stage_seconds[name]
                )
                deltas = {key: after[key] - before[key] for key in after}
                # Governor attributes appear only on stages with governor
                # activity, so ungoverned runs keep their pre-governor spans.
                for key in [k for k in deltas if k.startswith("governor_")]:
                    if not deltas[key]:
                        del deltas[key]
                span.set(**deltas)
                after_peak = telemetry.metrics.max_gauge(
                    "governor.peak_bytes"
                )
                if after_peak is not None and after_peak != before_peak:
                    span.set(governor_peak_bytes=int(after_peak))

    def generate_workload(
        self,
        specs: list[TemplateSpec],
        distribution: CostDistribution,
        templates: list[SqlTemplate] | None = None,
        time_budget_seconds: float | None = None,
        telemetry: Telemetry | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        on_checkpoint_save=None,
        subscribers=(),
    ) -> WorkloadResult:
        """The full pipeline: templates -> profile -> refine/prune -> BO search.

        Pre-generated *templates* can be supplied to skip Section 4 (used by
        ablations and by callers that iterate on the same template pool).
        A caller-supplied *telemetry* overrides the per-run default (fresh
        :class:`~repro.obs.Telemetry` over the constructor's sinks).

        With *checkpoint_dir* set, the run saves its state after every
        stage (and every ``config.checkpoint_every_templates`` templates
        inside profiling, every iteration inside refinement) to a
        content-hashed JSON file.  ``resume=True`` picks the run up from
        that file, bit-identically: a killed-and-resumed run fingerprints
        the same as an uninterrupted one.  *on_checkpoint_save* is a hook
        called after each durable save (the chaos harness's kill switch).
        """
        manager = None
        if checkpoint_dir is not None:
            # lock_owner turns on directory locking: two processes resuming
            # the same checkpoint directory is a config error, caught here
            # as LockHeld instead of as silently interleaved writes.
            manager = CheckpointManager(
                checkpoint_dir,
                run_key(specs, distribution, self.config, self.db.name),
                on_save=on_checkpoint_save,
                lock_owner=f"barber:{self.db.name}",
            )
        run_telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(
                sinks=self.sinks,
                profile=self.config.profile,
                subscribers=subscribers,
            )
        )
        # finish() in a finally: abort paths — chaos InjectedCrash (a
        # BaseException from the checkpoint-save hook), BudgetExhausted
        # escaping a stage — must still flush and close the sinks, so a
        # killed run's trace file ends on a complete record.
        try:
            with use_telemetry(run_telemetry):
                result = self._generate_workload(
                    specs,
                    distribution,
                    templates,
                    time_budget_seconds,
                    run_telemetry,
                    manager,
                    resume,
                )
        finally:
            run_telemetry.finish()
            # Release the checkpoint-directory lock on every exit path —
            # including chaos InjectedCrash (a BaseException).  A *real*
            # process death skips this, leaving a lockfile with a dead pid
            # that the next acquire detects and takes over.
            if manager is not None:
                manager.close()
        result.telemetry = run_telemetry
        collector = getattr(run_telemetry, "profiler", None)
        if collector is not None:
            result.operator_profiles = collector.snapshot()
        return result

    def _generate_workload(
        self,
        specs: list[TemplateSpec],
        distribution: CostDistribution,
        templates: list[SqlTemplate] | None,
        time_budget_seconds: float | None,
        telemetry: Telemetry,
        manager: CheckpointManager | None = None,
        resume: bool = False,
    ) -> WorkloadResult:
        started = time.perf_counter()
        budget = (
            time_budget_seconds
            if time_budget_seconds is not None
            else self.config.time_budget_seconds
        )
        stage_seconds: dict[str, float] = {}

        state = manager.load() if (manager is not None and resume) else None
        resume_stage = state.get("stage") if state is not None else None
        collector = getattr(telemetry, "profiler", None)
        if (
            state is not None
            and collector is not None
            and state.get("obs_profile") is not None
        ):
            # Restore the operator-profile aggregate saved with the
            # checkpoint, so a killed-and-resumed run's profile fingerprint
            # matches an uninterrupted one's.
            from repro.obs import ExecProfileCollector

            collector = ExecProfileCollector.from_state(state["obs_profile"])
            telemetry.profiler = collector
        if state is not None:
            # Rewind the LLM to the exact stream positions and spend the
            # saved run had — the resumed trajectory must coincide with an
            # uninterrupted run's, call for call.
            if state.get("llm_rng") is not None:
                self.llm.set_rng_state(state["llm_rng"])
            restore_usage(self.llm.usage, state["usage"])

        aborted = False
        abort_stage: str | None = None
        abort_reason: str | None = None
        report = TemplateGenerationReport()
        profiles: list[TemplateProfile] = []
        refinement: RefinementResult | None = None
        search_result: SearchResult | None = None
        # Quarantine records accumulate across stages and ride in every
        # checkpoint save, so a resumed run skips known-bad templates and
        # fingerprints identically to an uninterrupted one.
        quarantined: list[QuarantineRecord] = (
            [QuarantineRecord.from_dict(r) for r in state.get("quarantined", [])]
            if state is not None
            else []
        )

        def abort(stage: str, error: Exception) -> None:
            nonlocal aborted, abort_stage, abort_reason
            aborted = True
            abort_stage = stage
            abort_reason = f"{type(error).__name__}: {error}"
            if telemetry.enabled:
                telemetry.count(
                    "pipeline.aborted", stage=stage, error=type(error).__name__
                )

        def save(stage: str, **extra) -> None:
            if manager is None:
                return
            manager.save(
                {
                    "stage": stage,
                    "templates": [template_to_state(t) for t in (templates or [])],
                    "traces": [trace_to_state(t) for t in report.traces],
                    "llm_rng": self.llm.rng_state(),
                    "usage": usage_to_state(self.llm.usage),
                    "quarantined": [r.to_dict() for r in quarantined],
                    "obs_profile": (
                        collector.to_state() if collector is not None else None
                    ),
                    **extra,
                }
            )
            telemetry.event(
                "checkpoint_saved",
                stage=stage,
                templates_done=len(templates or []),
            )

        with telemetry.span(
            "generate_workload",
            db=self.db.name,
            target_queries=distribution.total_queries,
            num_intervals=distribution.num_intervals,
            cost_type=distribution.cost_type,
            num_specs=len(specs),
            resumed=state is not None,
        ) as root:
            with self._stage(telemetry, "templates", stage_seconds) as span:
                if state is not None:
                    templates = [template_from_state(t) for t in state["templates"]]
                    report = TemplateGenerationReport(
                        traces=[trace_from_state(t) for t in state["traces"]]
                    )
                    span.set(resumed=True)
                elif templates is None:
                    try:
                        templates, report = self.generate_templates(specs)
                    except PIPELINE_ABORT_ERRORS as error:
                        templates = []
                        abort("templates", error)
                span.set(
                    templates=len(templates or []),
                    alignment_accuracy=round(report.alignment_accuracy, 4),
                )
                if not aborted and state is None:
                    save("templates")

            with self._stage(telemetry, "profile", stage_seconds) as span:
                profiler = self.profiler(distribution.cost_type)
                samples = profiler.profile_samples_per_template(
                    distribution.total_queries, max(len(templates or []), 1)
                )
                if aborted:
                    span.set(skipped=True)
                elif resume_stage in ("refine", "refined"):
                    # Profiling finished in the saved run; the refine stage
                    # below restores the pool it needs.
                    span.set(resumed=True)
                elif resume_stage == "profiled":
                    profiles = [
                        profile_from_state(p, profiler)
                        for p in state["profiles"]
                    ]
                    span.set(resumed=True, usable=len(profiles))
                else:
                    raw: list[TemplateProfile] = []
                    position = 0
                    if resume_stage == "profile":
                        progress = state["profile_progress"]
                        raw = [
                            profile_from_state(p, profiler)
                            for p in progress["profiles"]
                        ]
                        position = int(progress["position"])
                    # Per-template seeding makes chunked profiling
                    # bit-identical to the one-shot call, so checkpointed
                    # runs pay nothing for the finer save granularity.
                    chunk = (
                        max(int(self.config.checkpoint_every_templates), 1)
                        if manager is not None
                        else max(len(templates), 1)
                    )
                    while position < len(templates):
                        batch = templates[position : position + chunk]
                        raw.extend(profiler.profile_many(batch, samples))
                        position += len(batch)
                        if manager is not None and position < len(templates):
                            save(
                                "profile",
                                profile_progress={
                                    "position": position,
                                    "profiles": [
                                        profile_to_state(p) for p in raw
                                    ],
                                },
                            )
                    # Quarantine records are derived from the complete raw
                    # pool — on a mid-profile resume the restored profiles
                    # carry their strike bookkeeping, so this rebuild is
                    # exact and never double-counts.
                    quarantined[:] = [
                        QuarantineRecord.from_profile(p)
                        for p in raw
                        if p.quarantined
                    ]
                    profiles = [p for p in raw if p.is_usable]
                    span.set(samples_per_template=samples, usable=len(profiles))
                    if quarantined:
                        span.set(quarantined=len(quarantined))
                    save(
                        "profiled",
                        profiles=[profile_to_state(p) for p in profiles],
                    )

            with self._stage(telemetry, "refine", stage_seconds) as span:
                if aborted:
                    span.set(skipped=True)
                elif resume_stage == "refined":
                    if state.get("refine") is not None:
                        refinement = refinement_from_state(
                            state["refine"], profiler
                        )
                        profiles = refinement.profiles
                    else:
                        profiles = [
                            profile_from_state(p, profiler)
                            for p in state["profiles"]
                        ]
                    span.set(resumed=True)
                elif self.config.enable_refinement:
                    refiner = TemplateRefiner(
                        self.llm, profiler, self.schema, self.config
                    )
                    specs_by_id = {s.spec_id: s for s in specs}
                    resume_refine = (
                        state["refine"] if resume_stage == "refine" else None
                    )
                    checkpoint_cb = None
                    if manager is not None:
                        def checkpoint_cb(refine_state: dict) -> None:
                            save("refine", refine=refine_state)
                    try:
                        refinement = refiner.refine(
                            profiles,
                            distribution,
                            samples,
                            specs_by_id=specs_by_id,
                            checkpoint=checkpoint_cb,
                            resume_state=resume_refine,
                        )
                    except PIPELINE_ABORT_ERRORS as error:
                        abort("refine", error)
                    else:
                        profiles = refinement.profiles
                        for record in refinement.quarantined:
                            # A mid-refine resume restores records that are
                            # already on the run-level list; only new ones
                            # are appended, keeping order deterministic.
                            if not any(
                                q.template_id == record.template_id
                                and q.stage == record.stage
                                for q in quarantined
                            ):
                                quarantined.append(record)
                        span.set(
                            refine_calls=refinement.refine_calls,
                            accepted=len(refinement.accepted),
                            pruned=refinement.pruned,
                        )
                        if refinement.quarantined:
                            span.set(
                                quarantined=len(refinement.quarantined)
                            )
                        save(
                            "refined",
                            profiles=[],
                            refine={
                                "profiles": [
                                    profile_to_state(p) for p in profiles
                                ],
                                "accepted": [
                                    template_to_state(t)
                                    for t in refinement.accepted
                                ],
                                "pruned": refinement.pruned,
                                "refine_calls": refinement.refine_calls,
                                "quarantined": [
                                    r.to_dict()
                                    for r in refinement.quarantined
                                ],
                            },
                        )
                else:
                    span.set(skipped=True)
                    save(
                        "refined",
                        profiles=[profile_to_state(p) for p in profiles],
                        refine=None,
                    )

            with self._stage(telemetry, "search", stage_seconds) as span:
                if aborted:
                    span.set(skipped=True)
                else:
                    search = PredicateSearch(profiler, self.config)
                    remaining = None
                    if budget is not None:
                        remaining = max(
                            budget - (time.perf_counter() - started), 1.0
                        )
                    search_result = search.run(
                        profiles, distribution, deadline=remaining
                    )
                    span.set(
                        queries=len(search_result.queries),
                        evaluations=search_result.evaluations,
                        final_distance=round(search_result.final_distance, 4),
                    )

            elapsed = time.perf_counter() - started
            root.set(
                elapsed_seconds=round(elapsed, 6),
                complete=bool(
                    search_result is not None and search_result.complete
                ),
                aborted=aborted,
            )

        cache = self.db.explain_cache.stats()
        telemetry.event(
            "cache_stats",
            hits=cache["hits"],
            misses=cache["misses"],
            evictions=cache["evictions"],
            size=cache["size"],
        )
        # Stage boundaries are measured directly: the search trace offset is
        # everything that ran before the search stage started.
        setup = sum(stage_seconds[s] for s in PIPELINE_STAGES if s != "search")
        if search_result is not None:
            trace = [(setup + t, d) for t, d in search_result.trace]
            workload = Workload(
                queries=search_result.queries, name=distribution.name
            )
            tracker = search_result.tracker
        else:
            trace = []
            workload = Workload(queries=[], name=distribution.name)
            tracker = DistributionTracker(target=distribution)
        if self.config.workload_mix is not None and workload.queries:
            # Deterministic read/write interleave: a seeded post-pass swaps
            # a fraction of the searched SELECTs for grammar-built DML,
            # costed via EXPLAIN (estimates only — nothing executes here,
            # so resumed and parallel runs fingerprint identically).
            from repro.workload.mixer import WorkloadMixer

            workload = WorkloadMixer(self.db, self.config.seed).mix(
                workload, self.config.workload_mix
            )
            if telemetry.enabled:
                telemetry.count(
                    "workload.mixed_dml",
                    value=sum(
                        1
                        for q in workload.queries
                        if (q.template_id or "").startswith("mix_")
                    ),
                )
        return WorkloadResult(
            workload=workload,
            tracker=tracker,
            templates=list(templates or []),
            profiles=profiles,
            generation_report=report,
            refinement=refinement,
            search=search_result,
            elapsed_seconds=elapsed,
            distance_trace=trace,
            llm_usage=self.llm.usage.snapshot(),
            stage_seconds=stage_seconds,
            aborted=aborted,
            abort_stage=abort_stage,
            abort_reason=abort_reason,
            checkpoint_path=str(manager.path) if manager is not None else None,
            quarantined=quarantined,
        )
