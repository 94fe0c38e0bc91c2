"""The serve layer's unit of work: a tenant's generation job.

A :class:`JobRequest` is the validated form of one ``POST /v1/jobs`` body
— tenant, priority, a spec pack, a cost distribution, and optional
deadline/budget limits.  Validation is *shallow on purpose*: it proves
the payload is well-typed and self-consistent, not that the pipeline will
like it.  A payload that validates but deterministically crashes the
pipeline (a "poisoned spec") is a runtime failure the serve core counts
toward spec quarantine — admission cannot afford to dry-run every job.

A :class:`Job` is one request's lifecycle inside the service.  States:

    QUEUED ──▶ RUNNING ──▶ COMPLETED
      │           │──────▶ FAILED        (pipeline raised; may quarantine)
      │           │──────▶ CHECKPOINTED  (drain: saved, resumable)
      │           │──────▶ QUEUED        (worker died: requeued for resume)
      └─────────▶ EXPIRED                (deadline lapsed while queued)

Every transition is explicit — a job is never silently dropped; the
chaos campaign's zero-lost-jobs invariant audits exactly this.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.workload import CostDistribution, TemplateSpec


class BadRequest(Exception):
    """A submission payload that fails shallow validation (HTTP 400)."""


class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    EXPIRED = "expired"
    CHECKPOINTED = "checkpointed"

    #: States a job can never leave (CHECKPOINTED is terminal for *this*
    #: service lifetime — the checkpoint outlives the process).
    TERMINAL = frozenset({COMPLETED, FAILED, EXPIRED, CHECKPOINTED})


#: Priorities: 0 (batch) .. 9 (interactive).  Higher runs first.
MIN_PRIORITY, MAX_PRIORITY = 0, 9


@dataclass(frozen=True)
class JobRequest:
    """One validated generation request."""

    tenant: str
    priority: int = 4
    seed: int = 0
    specs: tuple = ()  # tuple of spec payload dicts
    queries: int = 16
    intervals: int = 4
    cost_min: float = 0.0
    cost_max: float = 200.0
    cost_type: str = "plan_cost"
    deadline_seconds: float | None = None
    max_tokens: int | None = None
    max_cost_dollars: float | None = None
    query_timeout_seconds: float | None = None

    @classmethod
    def from_payload(cls, payload) -> "JobRequest":
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise BadRequest(f"unknown fields: {sorted(unknown)}")
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise BadRequest("'tenant' must be a non-empty string")
        priority = payload.get("priority", 4)
        if (
            isinstance(priority, bool)
            or not isinstance(priority, int)
            or not (MIN_PRIORITY <= priority <= MAX_PRIORITY)
        ):
            raise BadRequest(
                f"'priority' must be an integer in "
                f"[{MIN_PRIORITY}, {MAX_PRIORITY}]"
            )
        specs = payload.get("specs") or ()
        if not isinstance(specs, (list, tuple)) or not all(
            isinstance(s, dict) for s in specs
        ):
            raise BadRequest("'specs' must be a list of spec objects")
        if not specs:
            raise BadRequest("'specs' must contain at least one spec")
        for check in ("queries", "intervals", "seed"):
            value = payload.get(check, getattr(cls, check, 0))
            if check in payload and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise BadRequest(f"'{check}' must be an integer")
        if payload.get("queries", 16) < 1 or payload.get("intervals", 4) < 1:
            raise BadRequest("'queries' and 'intervals' must be >= 1")
        cost_min = _finite(payload.get("cost_min", 0.0))
        cost_max = _finite(payload.get("cost_max", 200.0))
        for name, value in (("cost_min", cost_min), ("cost_max", cost_max)):
            if value is None:
                raise BadRequest(f"'{name}' must be a finite number")
        for bound in (
            "deadline_seconds",
            "max_cost_dollars",
            "query_timeout_seconds",
        ):
            if bound not in payload or payload[bound] is None:
                continue
            number = _finite(payload[bound])
            if number is None or number <= 0:
                raise BadRequest(f"'{bound}' must be a positive number")
        max_tokens = payload.get("max_tokens")
        if max_tokens is not None and (
            isinstance(max_tokens, bool)
            or not isinstance(max_tokens, int)
            or max_tokens <= 0
        ):
            raise BadRequest("'max_tokens' must be a positive integer")
        # Deliberately NOT validated: cost_min < cost_max.  Distribution
        # construction happens in the worker; an inverted range is the
        # canonical "poisoned spec" that admission lets through and the
        # quarantine ledger catches.
        return cls(
            tenant=tenant,
            priority=priority,
            seed=int(payload.get("seed", 0)),
            specs=tuple(dict(s) for s in specs),
            queries=int(payload.get("queries", 16)),
            intervals=int(payload.get("intervals", 4)),
            cost_min=cost_min,
            cost_max=cost_max,
            cost_type=str(payload.get("cost_type", "plan_cost")),
            deadline_seconds=payload.get("deadline_seconds"),
            max_tokens=max_tokens,
            max_cost_dollars=payload.get("max_cost_dollars"),
            query_timeout_seconds=payload.get("query_timeout_seconds"),
        )

    def to_payload(self) -> dict:
        return {
            "tenant": self.tenant,
            "priority": self.priority,
            "seed": self.seed,
            "specs": [dict(s) for s in self.specs],
            "queries": self.queries,
            "intervals": self.intervals,
            "cost_min": self.cost_min,
            "cost_max": self.cost_max,
            "cost_type": self.cost_type,
            "deadline_seconds": self.deadline_seconds,
            "max_tokens": self.max_tokens,
            "max_cost_dollars": self.max_cost_dollars,
            "query_timeout_seconds": self.query_timeout_seconds,
        }

    def spec_key(self) -> str:
        """Content identity of the *work* (not the tenant/priority wrapper).

        The quarantine ledger keys on this: a spec pack that keeps
        crashing workers is quarantined for every tenant and priority.
        """
        body = {
            "specs": [dict(s) for s in self.specs],
            "seed": self.seed,
            "queries": self.queries,
            "intervals": self.intervals,
            "cost_min": self.cost_min,
            "cost_max": self.cost_max,
            "cost_type": self.cost_type,
        }
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def build_specs(self) -> list[TemplateSpec]:
        return [
            TemplateSpec.from_json(dict(payload), spec_id=f"{self.tenant}_{i}")
            for i, payload in enumerate(self.specs)
        ]

    def build_distribution(self) -> CostDistribution:
        if self.cost_min >= self.cost_max:
            raise ValueError(
                f"cost_min {self.cost_min} must be < cost_max {self.cost_max}"
            )
        return CostDistribution.uniform(
            self.cost_min,
            self.cost_max,
            self.queries,
            self.intervals,
            cost_type=self.cost_type,
        )


def _finite(value) -> float | None:
    """*value* as a float if it is a finite JSON number, else None.

    Booleans are refused although Python counts them as ints, and so are
    NaN and the infinities, which the JSON decoder accepts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


@dataclass
class Job:
    """One request's lifecycle in the service."""

    job_id: str
    request: JobRequest
    state: str = JobState.QUEUED
    submitted_at: float = 0.0  # core-clock time of admission
    started_at: float | None = None
    finished_at: float | None = None
    deadline_at: float | None = None  # absolute, core-clock
    attempts: int = 0
    worker: str | None = None
    checkpoint_dir: str | None = None
    resume: bool = False  # next execution resumes a checkpoint
    # Token ceiling frozen at first dispatch: min(request cap, tenant's
    # remaining budget *then*).  Frozen so a crash-resume executes under
    # the budget the original attempt had — a drifting ceiling would move
    # the abort point and break bit-identical resume.
    effective_max_tokens: int | None = None
    budget_frozen: bool = False
    result: dict | None = None
    error: str | None = None
    #: Heap tie-breaker from the most recent enqueue (submit or requeue)
    #: — journaled so recovery rebuilds the exact priority-FIFO order.
    heap_seq: int = 0
    events: list = field(default_factory=list)  # (state, clock-time) audit

    def transition(self, state: str, at: float, *, force: bool = False) -> None:
        """Move to *state*, recording the audit event.

        Terminal states are one-way for a live service; *force* is the
        recovery path's resurrection override — a CHECKPOINTED job is
        terminal only for the process lifetime that checkpointed it, and
        a restart legitimately moves it back to QUEUED.
        """
        if not force and self.state in JobState.TERMINAL:
            raise ValueError(
                f"job {self.job_id} is terminal ({self.state}); "
                f"cannot move to {state}"
            )
        self.state = state
        self.events.append((state, at))

    def to_state(self) -> dict:
        """The job's complete durable form (journal snapshots + replay).

        Unlike :meth:`to_dict` (the API view), this round-trips — the
        request payload, budget freeze, resume flag, and the full event
        audit all survive, so a recovered job is field-for-field the job
        that was lost.
        """
        return {
            "job_id": self.job_id,
            "payload": self.request.to_payload(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_at": self.deadline_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "checkpoint_dir": self.checkpoint_dir,
            "resume": self.resume,
            "effective_max_tokens": self.effective_max_tokens,
            "budget_frozen": self.budget_frozen,
            "result": self.result,
            "error": self.error,
            "heap_seq": self.heap_seq,
            "events": [[state, at] for state, at in self.events],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Job":
        job = cls(
            job_id=str(state["job_id"]),
            request=JobRequest.from_payload(state["payload"]),
            state=str(state["state"]),
            submitted_at=float(state["submitted_at"]),
            started_at=state.get("started_at"),
            finished_at=state.get("finished_at"),
            deadline_at=state.get("deadline_at"),
            attempts=int(state.get("attempts", 0)),
            worker=state.get("worker"),
            checkpoint_dir=state.get("checkpoint_dir"),
            resume=bool(state.get("resume", False)),
            effective_max_tokens=state.get("effective_max_tokens"),
            budget_frozen=bool(state.get("budget_frozen", False)),
            result=state.get("result"),
            error=state.get("error"),
            heap_seq=int(state.get("heap_seq", 0)),
        )
        job.events = [
            (str(name), float(at)) for name, at in state.get("events", [])
        ]
        return job

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_at": self.deadline_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "resume": self.resume,
            "result": self.result,
            "error": self.error,
        }
