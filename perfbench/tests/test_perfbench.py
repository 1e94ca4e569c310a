"""Tests of the benchmark itself: span arithmetic, reporting, gates, seeds.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import itertools
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import measure, run, tracing, workloads


def test_self_times_subtract_nested_children():
    spans = [
        ["op", -1, 0.0, 10.0],
        ["em.fit", 0, 1.0, 9.0],
        ["parsimony.scatter", 1, 2.0, 5.0],
        ["mlnd.log_density_batch", 1, 6.0, 7.5],
        ["parsimony.scatter", 1, 8.0, 8.5],
    ]
    selfs = tracing.self_times(spans)
    assert selfs["op"] == pytest.approx(2.0)
    assert selfs["em.fit"] == pytest.approx(8.0 - 3.0 - 1.5 - 0.5)
    assert selfs["parsimony.scatter"] == pytest.approx(3.5)
    assert selfs["mlnd.log_density_batch"] == pytest.approx(1.5)
    assert sum(selfs.values()) == pytest.approx(10.0)
    # op and em.fit are containers: 2 + 3 of 10 seconds are not in a layer span
    assert tracing.coverage(spans) == pytest.approx(0.5)


def test_layer_metrics_name_containers_and_kernel_timers():
    rec = tracing.Recorder()
    with rec.span("op"):
        with rec.span("em.fit"):
            with rec.span("parsimony.scatter"):
                pass
    rec.timers["mlnd.mode_pass"] += 0.5
    layers = run._per_op_layers(rec)
    assert sorted(layers) == [
        "em.fit.other_s", "mlnd.mode_pass.self_s", "op.other_s", "parsimony.scatter.self_s",
    ]
    assert layers["mlnd.mode_pass.self_s"] == 0.5


def test_recorder_nests_spans_and_rejects_out_of_order_close():
    rec = tracing.Recorder()
    with rec.span("op"):
        with rec.span("em.fit"):
            pass
    assert [(s[0], s[1]) for s in rec.spans] == [("op", -1), ("em.fit", 0)]
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(19) is None
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(100) == 90
    values = list(range(1, 101))
    summary = measure.timing_summary(values)
    assert summary == {"n": 100, "p50": 50.5, "p90": 90.0}
    assert sum(v > summary["p90"] for v in values) == 10
    assert measure.timing_summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}


def test_hooks_wrap_restore_and_report_missing():
    import tmclust.em

    original = tmclust.em.init_kmeans
    rec = tracing.Recorder()
    hooks = tracing.Hooks(
        [tracing.Hook("tmclust.em", "init_kmeans", "em.init_kmeans"),
         tracing.Hook("tmclust.em", "no_such_function", "em.gone")],
        rec,
    )
    try:
        assert tmclust.em.init_kmeans is not original
        tmclust.em.init_kmeans(np.arange(24.0).reshape(4, 3, 2), 2)
    finally:
        hooks.remove()
    assert tmclust.em.init_kmeans is original
    assert hooks.missing == ["tmclust.em.no_such_function"]
    assert [s[0] for s in rec.spans] == ["em.init_kmeans"]
    assert rec.counts["em.init_kmeans.calls"] == 1


def test_compare_reference_tolerates_only_small_float_moves():
    stored = {"loglik": -1000.0, "g": 3, "labels": [0, 1]}
    close = {"loglik": -1000.0 * (1 + workloads.REFERENCE_RTOL / 2), "g": 3, "labels": [0, 1]}
    assert workloads.compare_reference(stored, close) == []
    far = dict(close, loglik=-1000.0 * (1 + 2 * workloads.REFERENCE_RTOL))
    assert workloads.compare_reference(stored, far)
    assert workloads.compare_reference(stored, dict(close, g=4))
    assert workloads.compare_reference(stored, dict(close, labels=[1, 0]))


def _fit_output(trace, labels, converged=True):
    report = SimpleNamespace(
        converged=converged,
        loglik_trace=np.asarray(trace),
        labels=np.asarray(labels),
        loglik=trace[-1],
        bic=2 * trace[-1],
        responsibilities=np.zeros((len(labels), 3)),
    )
    return None, report


def test_fit_gate_catches_perturbed_output(tmp_path):
    wl = workloads.FitWorkload(str(tmp_path), seed=5)
    wl.labels = [np.repeat([0, 1, 2], 4)]
    good = _fit_output([-30.0, -20.0, -10.0], [2] * 4 + [0] * 4 + [1] * 4)
    assert wl.check(good, 0) == []
    dropped = _fit_output([-30.0, -10.0, -20.0], [2] * 4 + [0] * 4 + [1] * 4)
    assert any("dropped" in p for p in wl.check(dropped, 0))
    mixed = _fit_output([-30.0, -20.0, -10.0], [0, 1, 2] * 4)
    assert any("ARI" in p for p in wl.check(mixed, 0))
    stalled = _fit_output([-30.0, -20.0, -10.0], [2] * 4 + [0] * 4 + [1] * 4, converged=False)
    assert wl.check(stalled, 0) == ["fit did not converge"]


def test_scan_and_study_gates_catch_perturbed_bytes(tmp_path):
    scan = workloads.ScanCsvWorkload(str(tmp_path), seed=5)
    table, best = b"G,bic\n1,-5.0\n", b'{"bic": -5.0}\n'
    other = (0, (b"G,bic\n1,-7.0\n", b'{"bic": -7.0}\n'))
    scan.references = [(0, (table, best)), other]
    scan.reference_problems = [[], []]
    assert scan.check(scan.references[0], 0) == []
    assert scan.check(other, 1) == []
    assert scan.check((0, (b"G,bic\n1,-5.1\n", best)), 0) == [
        "BIC table differs from the --threads 1 reference"
    ]
    assert scan.check((0, (table, b'{"bic": -5.1}\n')), 0) == [
        "best-model JSON differs from the --threads 1 reference"
    ]
    # each input's output is held to that input's reference
    assert len(scan.check(other, 0)) == 2
    assert scan.check((2, ()), 0) == ["scan-csv-serial exited 2"]

    study = workloads.StudyWorkload(str(tmp_path), seed=5)
    study.references = [(0, (b'{"records": []}\n',))]
    study.reference_problems = [[]]
    assert study.check(study.references[0], 0) == []
    assert study.check((0, (b'{"records": [1]}\n',)), 0)


def test_inputs_differ_within_and_between_seeds(tmp_path):
    seed3 = workloads.StudyWorkload(str(tmp_path / "a"), seed=3)
    seed4 = workloads.StudyWorkload(str(tmp_path / "b"), seed=4)
    configs = []
    for wl in (seed3, seed4):
        for k in range(wl.n_inputs):
            os.makedirs(wl.path("", k))
            wl.write_inputs(k)
            with open(wl.path("study.json", k)) as fh:
                configs.append(json.load(fh)["base_seed"])
    assert len(set(configs)) == len(configs)
    first, _ = workloads._dataset(6, (2, 2), 3, 0)
    again, _ = workloads._dataset(6, (2, 2), 3, 0)
    second, _ = workloads._dataset(6, (2, 2), 3, 1)
    assert np.array_equal(first, again) and not np.array_equal(first, second)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv)
    return rc, buf.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_held_out_seed_makes_valid_inputs_that_pass_every_gate(workload):
    rc, lines = _run(["--workload", workload, "--seed", "7", "--seconds", "0.01"])
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for name in ("op_s_p50", "cpu_s_per_op", "peak_rss_mb", "setup_s"):
        assert result["metrics"][name]["value"] > 0


def test_turns_run_whole_rounds_until_the_deadline():
    assert list(run._turns(3, deadline=0.0)) == [0, 1, 2]
    assert list(itertools.islice(run._turns(2, deadline=float("inf")), 5)) == [0, 1, 0, 1, 0]
