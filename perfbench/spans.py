"""Layer spans recorded from outside the program.

:class:`Tracer` replaces a layer's public function with a wrapper that
records one span (name, start, end, parent, thread) per call.  The program
itself is not edited: the wrappers are installed on its classes and modules
at run time and removed afterwards.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Self time is a span's duration minus its direct children's durations; a
layer's busy time counts only its outermost spans, so a layer that calls
itself (the LLM client stack, say) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# (layer name, module, owner attribute or None for a module function,
# function name).  One row per wrapped boundary.
LAYERS = (
    ("datasets.build", "repro.fuzz.runner", None, "build_fuzz_database"),
    ("llm.complete", "repro.llm.client", "LLMClient", "complete"),
    ("core.templates", "repro.core.template_generator",
     "CustomizedTemplateGenerator", "generate_many"),
    ("core.profile", "repro.core.profiler", "TemplateProfiler", "profile_many"),
    ("core.refine", "repro.core.refiner", "TemplateRefiner", "refine"),
    ("core.search", "repro.core.predicate_search", "PredicateSearch", "run"),
    ("bo.ask", "repro.bo.optimizer", "BayesianOptimizer", "ask"),
    ("bo.fit", "repro.bo.forest", "RandomForestRegressor", "fit"),
    ("bo.predict", "repro.bo.forest", "RandomForestRegressor", "predict"),
    ("sqldb.explain", "repro.sqldb.database", "Database", "explain_estimates"),
    ("sqldb.execute", "repro.sqldb.database", "Database", "execute"),
    ("resilience.checkpoint.save", "repro.resilience.checkpoint",
     "CheckpointManager", "save"),
    ("serve.journal.append", "repro.serve.store", "JobStore", "append"),
)

#: Layer names in report order (duplicates in LAYERS collapse).
LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))


class Tracer:
    """Spans and counters for one run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def _wrapper(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1,
                    threading.current_thread().name]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            observe = _OBSERVERS.get(name)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording *name* spans."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrapper(name, original))
        self._restore.append((owner, attr, original))

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer boundary in *layers*."""
        for name, module_name, owner_name, attr in layers:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self.wrap(owner, attr, name)
        if any(name == "sqldb.explain" for name, *_ in layers):
            self._install_cache_probe()

    def _install_cache_probe(self) -> None:
        """Count EXPLAIN cache hits at the cache boundary: a lookup whose
        compute callback never ran was served from the cache."""
        from repro.fastpath.cache import ExplainCache

        original = ExplainCache.__dict__["get_or_compute"]
        tracer = self

        @functools.wraps(original)
        def probed(cache, key, epoch, compute):
            if not tracer.active:
                return original(cache, key, epoch, compute)
            computed = []

            def counted():
                computed.append(True)
                return compute()

            result = original(cache, key, epoch, counted)
            tracer.count("explain_cache.lookups")
            if not computed:
                tracer.count("explain_cache.hits")
            return result

        ExplainCache.get_or_compute = probed
        self._restore.append((ExplainCache, "get_or_compute", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line, then the counters."""
        with open(path, "w") as handle:
            for name, start, end, parent, thread in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread,
                }) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def load(path) -> tuple[list[list], dict]:
    """Read back what :meth:`Tracer.dump` wrote."""
    spans: list[list] = []
    counters: dict = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
                continue
            spans.append([record["name"], record["start"], record["end"],
                          record["parent"], record["thread"]])
    return spans, counters


# -- counters observed on a layer's return value ----------------------------------


def _observe_llm(tracer, args, response) -> None:
    tracer.count("llm.tokens", response.total_tokens)


def _observe_templates(tracer, args, result) -> None:
    _templates, report = result
    tracer.count("templates.traces", len(report.traces))
    tracer.count("templates.aligned", sum(t.final_ok for t in report.traces))


def _observe_refine(tracer, args, result) -> None:
    tracer.count("refine.calls", result.refine_calls)
    tracer.count("refine.accepted", len(result.accepted))


def _observe_search(tracer, args, result) -> None:
    tracer.count("search.runs")
    tracer.count("search.evaluations", result.evaluations)
    tracer.count("search.queries", len(result.queries))
    tracer.count("search.wasserstein", result.final_distance)


_OBSERVERS = {
    "llm.complete": _observe_llm,
    "core.templates": _observe_templates,
    "core.refine": _observe_refine,
    "core.search": _observe_search,
}


# -- analysis -----------------------------------------------------------------------


def layer_table(spans) -> dict[str, dict]:
    """Per layer: calls, busy seconds (outermost spans of that name) and
    self seconds (duration minus direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _thread in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {
        name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYER_NAMES
    }
    for index, (name, start, end, parent, _thread) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return table


def covered_seconds(spans, threads=None) -> float:
    """Wall time inside any root span (optionally only on *threads*)."""
    return sum(
        end - start
        for _name, start, end, parent, thread in spans
        if parent < 0 and (threads is None or thread in threads)
    )


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, timed on a no-op."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    traced = tracer._wrapper("noop", noop)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - started
    return max(wrapped - plain, 0.0) / calls
