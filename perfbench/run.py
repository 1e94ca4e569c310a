"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload fit-7x4 --seed 0 --seconds 25 --trace 0

``--trace 0`` times the workload's operation in a closed loop and prints the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` alternates untraced and
traced operations and prints the per-layer metrics.  Either loop runs whole
rounds over the workload's inputs until a round ends after ``--seconds``; a
timing metric is the median over all of the run's operations.  Every
operation passes through its workload's correctness gate; a failed gate
counts in ``failed``.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _timed(fn):
    """Run one operation; return (output or None, wall s, CPU s, error or None)."""
    from perfbench.measure import cpu_seconds

    gc.collect()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        out, error = fn(), None
    except Exception as exc:  # an operation that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return out, wall, cpu_seconds() - cpu0, error


def _turns(n_inputs: int, deadline: float):
    """Input indices in whole rounds, until a round ends after ``deadline``.

    Whole rounds weigh every input equally in the run's medians.
    """
    while True:
        yield from range(n_inputs)
        if time.perf_counter() >= deadline:
            return


class Tally:
    """Gate outcomes of every operation in a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def gate(self, out, error, k: int) -> None:
        self.attempted += 1
        problems = [error] if error else self.workload.check(out, k)
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)


def run_untraced(wl, seconds: float) -> tuple[Tally, dict, dict]:
    from perfbench import measure

    tally = Tally(wl)
    walls, cpus, inputs = [], [], []
    steal0 = measure.host_steal_jiffies()
    deadline = time.perf_counter() + seconds
    for k in _turns(wl.n_inputs, deadline):
        out, wall, cpu, error = _timed(lambda: wl.op(k))
        tally.gate(out, error, k)
        walls.append(wall)
        cpus.append(cpu)
        inputs.append(k)
    steal = measure.host_steal_jiffies() - steal0
    largest_child = measure.peak_rss_mib(children=True)
    setup = measure.import_seconds(ROOT, SETUP_REPEATS)
    metrics = {
        "op_s_p50": measure.median(walls),
        "cpu_s_per_op": measure.median(cpus),
        "peak_rss_mb": measure.peak_rss_mib(),
        "setup_s": measure.median(setup),
    }
    detail = {
        "op_s": measure.timing_summary(walls),
        "cpu_s": measure.timing_summary(cpus),
        "op_s_each": walls,
        "op_input": inputs,
        "host_steal_jiffies": steal,
        "largest_child_peak_rss_mb": largest_child,
        "setup_s": setup,
    }
    return tally, metrics, detail


def _per_op_layers(rec) -> dict[str, float]:
    """``<layer>.self_s`` per layer; a container's self time is ``<name>.other_s``."""
    from perfbench.tracing import CONTAINER_SPANS, self_times

    selfs = self_times(rec.spans)
    selfs.update(rec.timers)
    return {
        f"{name}.{'other_s' if name in CONTAINER_SPANS else 'self_s'}": value
        for name, value in selfs.items()
    }


def run_traced(wl, seconds: float) -> tuple[Tally, dict, dict]:
    from perfbench import measure, tracing

    tally = Tally(wl)
    n = wl.n_inputs
    untraced, traced, covers, layers, recs = [], [], [], [], []
    counts = [[] for _ in range(n)]
    missing: set[str] = set()
    deadline = time.perf_counter() + seconds
    for k in _turns(n, deadline):
        out, wall, _cpu, error = _timed(lambda: wl.op(k))
        tally.gate(out, error, k)
        untraced.append(wall)

        rec = tracing.Recorder()
        hooks = tracing.span_hooks(rec)

        def call():
            with hooks, rec.span(tracing.ROOT_SPAN):
                return wl.op(k)

        out, wall, _cpu, error = _timed(call)
        tally.gate(out, error, k)
        missing.update(hooks.missing)
        traced.append(wall)
        layers.append(_per_op_layers(rec))
        counts[k].append(dict(rec.counts))
        covers.append(tracing.coverage(rec.spans))
        recs.append(rec.spans)

    metrics = {}
    for name in set().union(*layers):
        metrics[name] = measure.median([op.get(name, 0.0) for op in layers])
    # counts repeat exactly per input; report their mean per operation
    for name in set().union(*(ops[0] for ops in counts)):
        metrics[name] = statistics.fmean(ops[0].get(name, 0) for ops in counts)
    if getattr(wl, "data_bytes", 0) and metrics.get("io.load_dataset.self_s"):
        metrics["io.load_dataset.mb_per_s"] = wl.data_bytes / 1e6 / metrics["io.load_dataset.self_s"]
    metrics["trace.coverage"] = measure.median(covers)
    metrics["trace.overhead"] = measure.median(traced) / measure.median(untraced)

    if hasattr(wl, "pool_op"):
        # pool workers are forked and their spans never come back, so the
        # pool run records no spans, only the bytes shipped to the workers
        pool_rec = tracing.Recorder()
        with tracing.pool_bytes_hooks(pool_rec) as hooks:
            missing.update(hooks.missing)
            out, wall, _cpu, error = _timed(wl.pool_op)
        tally.gate(out, error, 0)
        # turns run 0, 1, ..., n-1, 0, ...: input 0's times are every n-th
        speedup = measure.median(untraced[::n]) / wall
        metrics["selection.pool_speedup"] = speedup
        metrics["selection.pool_efficiency"] = speedup / wl.pool_threads
        metrics["selection.pool.worker_peak_rss_mb"] = measure.peak_rss_mib(children=True)
        tasks = pool_rec.counts["selection.pool.tasks"]
        if tasks:
            metrics["selection.pool.task_bytes"] = pool_rec.counts["selection.pool.bytes"] / tasks

    alloc_rec = tracing.Recorder()
    with tracing.kmeans_alloc_hooks(alloc_rec) as hooks:
        missing.update(hooks.missing)
        out, _wall, _cpu, error = _timed(lambda: wl.op(0))
    tally.gate(out, error, 0)
    metrics.update(alloc_rec.counts)
    metrics["trace.missing_hooks"] = len(missing)

    detail = {
        "traced_op_s": measure.timing_summary(traced),
        "untraced_op_s": measure.timing_summary(untraced),
        "counts": [ops[0] for ops in counts],
        "counts_repeat": all(c == ops[0] for ops in counts for c in ops),
        "missing_hooks": sorted(missing),
        "spans": recs,
    }
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store the reference values of the default seed in perfbench/reference.json",
    )
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tmclust", "__init__.py")):
        return _fail(f"no tmclust sources under {src}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path[:0] = [src, ROOT]
    import tmclust

    if not os.path.abspath(tmclust.__file__).startswith(src + os.sep):
        return _fail(f"tmclust was imported from {tmclust.__file__}, not from {src}")

    from perfbench import measure, workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    if args.seconds <= 0:
        return _fail("--seconds must be > 0")
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
    if args.write_reference:
        if args.seed != workloads.DEFAULT_SEED:
            return _fail(f"references are stored for seed {workloads.DEFAULT_SEED} only")
        return workloads.write_reference(wl)

    started = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - started
    runner = run_traced if args.trace else run_untraced
    tally, values, detail = runner(wl, args.seconds)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    meta = measure.environment(args.seed)
    meta.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                prepare_s=prepare_s)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    spans = detail.pop("spans", None)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"meta": meta, "detail": detail, "problems": tally.problems, **result}, fh,
                  indent=1)
    if spans is not None:
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump(spans, fh)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations, fail_ratio {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print(f"  gate: {problem}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
