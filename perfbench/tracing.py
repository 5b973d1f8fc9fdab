"""In-memory spans recorded around the calls one vewane module makes into the next.

The tracer patches public names in the modules that call them (a name bound
with ``from .x import y`` must be patched in the importing module), so no file
under ``src/`` changes.  Spans nest on one thread: each has a parent, and its
self time is its duration minus its children's durations, so the self times of
one op sum to the op's wall time.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import vewane.bench
import vewane.cli
import vewane.core
import vewane.cox
import vewane.sieve
import vewane.simulate
import vewane.smoothing
import vewane.surveillance
import vewane.tmle

# (module, attribute, span name): one span per call of the patched name
SPAN_TARGETS = [
    (vewane.bench, "run_scenario", "bench.run_scenario"),
    (vewane.bench, "simulate_cohort_views", "simulate.cohort"),
    (vewane.simulate, "sample_latents", "simulate.sample_latents"),
    (vewane.simulate, "invert_cumulative_hazard", "simulate.invert"),
    (vewane.simulate, "validate_dataset", "core.validate"),
    (vewane.core, "validate_dataset", "core.validate"),
    (vewane.cli, "read_events_csv", "core.csv_read"),
    (vewane.cli, "run", "cli.command"),
    (vewane.bench, "fit_cox_tv", "cox.fit"),
    (vewane.cli, "fit_cox_tv", "cox.fit"),
    (vewane.cox, "fit_cox_tv", "cox.fit"),
    (vewane.bench, "fit_sieve_binary", "sieve.fit"),
    (vewane.cli, "fit_sieve_binary", "sieve.fit"),
    (vewane.cli, "fit_sieve_multinomial", "sieve.fit"),
    (vewane.sieve, "fit_sieve_multinomial", "sieve.fit"),
    (vewane.bench, "fit_tmle_binary", "tmle.fit"),
    (vewane.cli, "fit_tmle_binary", "tmle.fit"),
    (vewane.cli, "fit_tmle_multinomial", "tmle.fit"),
    (vewane.tmle, "fit_tmle_binary", "tmle.fit"),
    (vewane.tmle, "fit_tmle_multinomial", "tmle.fit"),
    (vewane.tmle, "fit_design_theta", "tmle.init"),
    (vewane.tmle, "kernel_smooth", "smoothing.fit"),
    (vewane.tmle, "weighted_spline_smooth", "smoothing.fit"),
    (vewane.cli, "ve_curve", "report.curve"),
    (vewane.cli, "monotonize_curve", "report.curve"),
    (vewane.cli, "monotone_ci_mc", "report.mc"),
    (vewane.cli, "write_curve", "report.write"),
    (vewane.surveillance, "impute_strains", "surveillance.impute"),
]

EVAL_SPANS = {
    vewane.smoothing.SplineFn: "smoothing.spline_eval",
    vewane.smoothing.KernelFn: "smoothing.kernel_eval",
}

# span name -> {count name: FitResult.diagnostics key}, summed per span
FIT_COUNTS = {
    "cox.fit": {"newton_iters": "iterations", "events": "n_events"},
    "sieve.fit": {"newton_iters": "iterations"},
    "tmle.fit": {"target_iters": "iterations", "init_iters": "init_iterations", "truncated_rows": "truncated_rows_max"},
}
MEMORY_SPAN = "tmle.fit"  # tracemalloc runs only inside this span: it slows every allocation


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and the counts taken at each span's boundary."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Top-level span of one op; its self time is what no layer span covers."""
        self._op = op_id
        try:
            with self.span("op") as span:
                yield span
        finally:
            self._op = None

    @staticmethod
    def _count(span: Span, key: str, value: float) -> None:
        span.counts[key] = span.counts.get(key, 0) + value

    # -- wrappers --

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                tracing_memory = name == MEMORY_SPAN and not tracemalloc.is_tracing()
                if tracing_memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if tracing_memory:
                        span.counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if name in FIT_COUNTS:
                tracer._count(span, "fits", 1)
                for count, key in FIT_COUNTS[name].items():
                    tracer._count(span, count, result.diagnostics[key])
            return result

        return wrapper

    def _wrap_hazard(self, fn):
        tracer = self

        def cumulative_hazard(scenario, latent, cause, t):
            if tracer._stack:
                rows = np.broadcast(np.asarray(t), latent.v_raw).size
                tracer._count(tracer._stack[-1], "hazard_rows", rows)
            return fn(scenario, latent, cause, t)

        return cumulative_hazard

    def _wrap_arrays(self, fn):
        tracer = self

        def arrays(dataset):
            if dataset._arrays is not None:  # cached: the caller's span keeps the time
                return fn(dataset)
            with tracer.span("core.arrays"):
                return fn(dataset)

        return arrays

    def _wrap_eval(self, fn):
        tracer = self

        def __call__(smooth_fn, t):
            with tracer.span(EVAL_SPANS.get(type(smooth_fn), "smoothing.eval")):
                return fn(smooth_fn, t)

        return __call__

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        patches = [(mod, attr, self._wrap(getattr(mod, attr), name)) for mod, attr, name in SPAN_TARGETS]
        patches.append((vewane.simulate, "cumulative_hazard", self._wrap_hazard(vewane.simulate.cumulative_hazard)))
        patches.append((vewane.core.Dataset, "arrays", self._wrap_arrays(vewane.core.Dataset.arrays)))
        patches.append((vewane.smoothing.SmoothFn, "__call__", self._wrap_eval(vewane.smoothing.SmoothFn.__call__)))
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)

    # -- analysis --

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def summary(self) -> dict:
        """Per span name: total duration, total self time, calls, and counts
        (summed, except the allocation peak, which is the maximum)."""
        selfs = self.self_times()
        agg = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "counts": defaultdict(float)})
        for s in self.spans:
            row = agg[s.name]
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.id]
            row["calls"] += 1
            for k, v in s.counts.items():
                row["counts"][k] = max(row["counts"][k], v) if k == "peak_alloc_bytes" else row["counts"][k] + v
        return agg

    def write(self, path) -> None:
        """One JSON object per span: id, name, start, parent, op, end, counts."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
