"""Spans and counts at tmclust's layer boundaries, installed from outside.

The benchmark never edits the package.  A traced operation replaces, for its
duration only, the module attributes that tmclust's entry points resolve at
call time (``tmclust.em._scatter_one``, ``tmclust.cli.load_dataset``, ...)
with wrappers that record a span per call.  Spans are kept in memory and
turned into per-layer self times when the run ends.  A hook whose attribute
no longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field

ROOT_SPAN = "op"


def _count_fit(rec, args, kwargs, result):
    _model, report = result
    rec.counts["em.iterations"] += int(report.n_iterations)
    rec.counts["em.singular_repairs"] += len(report.singular_events)


def _count_scan(rec, args, kwargs, result):
    rec.counts["selection.cells"] += len(result.rows)
    rec.counts["selection.failed_cells"] += sum(1 for r in result.rows if r.error is not None)


def _count_study(rec, args, kwargs, result):
    rec.counts["simulate.replicates"] += len(result.records)
    rec.counts["simulate.failed_replicates"] += sum(
        1 for r in result.records if r.error is not None
    )


def _count_mode_pass(rec, args, kwargs, result):
    # one single-mode whitening pass reads and writes the whole array
    values = args[0] if args else kwargs["values"]
    rec.counts["mlnd.mode_pass.bytes_computed"] += 2 * values.nbytes


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` in a span called ``span``; ``after`` adds counts.

    A ``kernel`` hook only adds its call's duration to a timer of that name:
    it opens no span, so its time stays in the self time of the layer that
    called it (the whitening passes inside the scatter and the E-step).
    """

    module: str
    attr: str
    span: str
    after: object = None
    kernel: bool = False


# Each entry names the namespace the caller resolves the function in, so
# e.g. the EM sweep's scatter is hooked in ``tmclust.em``, where ``fit``
# looks ``_scatter_one`` up, not in ``tmclust.parsimony``.
HOOKS = (
    Hook("tmclust.cli", "main", "cli.main"),
    Hook("tmclust", "fit", "em.fit", _count_fit),
    Hook("tmclust.selection", "fit", "em.fit", _count_fit),
    Hook("tmclust.cli", "scan", "selection.scan", _count_scan),
    Hook("tmclust.simulate", "scan", "selection.scan", _count_scan),
    Hook("tmclust.cli", "run_study", "simulate.run_study", _count_study),
    Hook("tmclust.em", "init_kmeans", "em.init_kmeans"),
    Hook("tmclust.em", "e_step", "em.e_step"),
    Hook("tmclust.em", "log_density_batch", "mlnd.log_density_batch"),
    Hook("tmclust.mlnd", "_solve_mode", "mlnd.mode_pass", _count_mode_pass, kernel=True),
    Hook("tmclust.em", "_scatter_one", "parsimony.scatter"),
    Hook("tmclust.em", "regularize_and_check", "em.regularize_and_check"),
    Hook("tmclust.em", "normalize_identifiability", "em.normalize_identifiability"),
    Hook("tmclust.em", "mcd_vvi_update", "parsimony.mcd_vvi_update"),
    Hook("tmclust.em", "mcd_evi_update", "parsimony.mcd_evi_update"),
    Hook("tmclust.em", "gpcm_vvi_update", "parsimony.gpcm_vvi_update"),
    Hook("tmclust.em", "chol_lower", "mlnd.chol_lower"),
    Hook("tmclust.mlnd", "chol_lower", "mlnd.chol_lower"),
    Hook("tmclust.em", "as_batch", "mda.as_batch"),
    Hook("tmclust.selection", "as_batch", "mda.as_batch"),
    Hook("tmclust.cli", "load_dataset", "io.load_dataset"),
    Hook("tmclust.cli", "result_document", "io.result_document"),
    Hook("tmclust.cli", "write_result", "io.write_result"),
    Hook("tmclust.cli", "write_bic_table", "selection.write_bic_table"),
    Hook("tmclust.cli", "write_report_json", "simulate.write_report_json"),
    Hook("tmclust.simulate", "generate_dataset", "simulate.generate_dataset"),
    Hook("tmclust.simulate", "sample", "mlnd.sample"),
    Hook("tmclust.simulate", "adjusted_rand_index", "metrics.adjusted_rand_index"),
    Hook("tmclust.simulate", "kron_relative_error", "metrics.kron_relative_error"),
    Hook("tmclust.simulate", "_best_permutation", "simulate.best_permutation"),
)

# Spans that contain other layers; their self time is reported as
# ``<name>.other_s`` and counts as not covered by a layer span.
CONTAINER_SPANS = (ROOT_SPAN, "cli.main", "em.fit", "selection.scan", "simulate.run_study")


@dataclass
class Recorder:
    """Spans ``[name, parent, start, end]``, kernel timers and counts of one operation."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    timers: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def span(self, name: str):
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.index = self.rec.open(self.name)
        return self

    def __exit__(self, *exc):
        self.rec.close(self.index)
        return False


def _span_wrapper(fn, hook: Hook, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook.kernel:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            rec.timers[hook.span] += time.perf_counter() - start
        else:
            index = rec.open(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
        rec.counts[hook.span + ".calls"] += 1
        if hook.after is not None:
            hook.after(rec, args, kwargs, result)
        return result

    return wrapper


def _kmeans_alloc_wrapper(fn, hook: Hook, rec: Recorder):
    """Peak bytes traced by tracemalloc inside each ``init_kmeans`` call.

    numpy reports its array buffers to tracemalloc, so the peak is set by the
    (N, G, n*) distance temporaries of the Lloyd steps.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rec.counts["em.kmeans_temp_bytes_computed"] += peak

    return wrapper


class Hooks:
    """Install wrappers for a set of hooks; ``remove`` restores the originals."""

    def __init__(self, hooks, rec: Recorder, make_wrapper=_span_wrapper):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, make_wrapper(original, hook, rec))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def _counting_executor(cls, hook: Hook, rec: Recorder):
    """A ProcessPoolExecutor that counts the pickled bytes it ships to workers.

    Counts what multiprocessing pickles: each submitted call, plus the
    initializer arguments once per worker.
    """
    from multiprocessing.reduction import ForkingPickler

    class CountingExecutor(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            initargs = getattr(self, "_initargs", ())
            if initargs:
                rec.counts["selection.pool.bytes"] += (
                    len(ForkingPickler.dumps(initargs)) * self._max_workers
                )

        def submit(self, fn, /, *args, **kwargs):
            rec.counts["selection.pool.tasks"] += 1
            rec.counts["selection.pool.bytes"] += len(ForkingPickler.dumps((fn, args, kwargs)))
            return super().submit(fn, *args, **kwargs)

    return CountingExecutor


def span_hooks(rec: Recorder) -> Hooks:
    return Hooks(HOOKS, rec)


def pool_bytes_hooks(rec: Recorder) -> Hooks:
    return Hooks(
        [Hook("tmclust.selection", "ProcessPoolExecutor", "selection.pool")], rec,
        _counting_executor,
    )


def kmeans_alloc_hooks(rec: Recorder) -> Hooks:
    return Hooks(
        [Hook("tmclust.em", "init_kmeans", "em.init_kmeans")], rec, _kmeans_alloc_wrapper
    )


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus what child spans cover.

    Spans come from one thread, so a span's children lie inside it and never
    overlap each other: what they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for _name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, _parent, start, end) in enumerate(spans):
        out[name] += (end - start) - covered[index]
    return dict(out)


def coverage(spans) -> float:
    """Share of the root spans' wall time spent inside non-container spans."""
    selfs = self_times(spans)
    total = sum(end - start for _name, parent, start, end in spans if parent < 0)
    if total <= 0:
        return 0.0
    uncovered = sum(selfs.get(name, 0.0) for name in CONTAINER_SPANS)
    return max(0.0, 1.0 - uncovered / total)
