"""Simulation harness: generators, replicate records, aggregation, determinism."""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import dies_in_a_child, forked
from tmclust import simulate
from tmclust.cli import main
from tmclust.em import FitOptions, fit
from tmclust.errors import TmclustError
from tmclust.metrics import adjusted_rand_index
from tmclust.mlnd import MlndParams, sample
from tmclust.simulate import (
    ReplicateRecord,
    SimConfig,
    StudyReport,
    _best_permutation,
    _summarize_cell,
    default_study,
    full_study,
    generate_dataset,
    load_study,
    random_orthogonal,
    random_scale_matrix,
    run_study,
    write_report_csvs,
    write_report_json,
)

TINY = SimConfig(n_obs=24, dims=(2, 3), n_groups=3, replicates=3, base_seed=5, g_scan=(2, 3))


# --- config plumbing ---------------------------------------------------------------


def test_config_round_trips_through_json():
    doc = json.loads(json.dumps(TINY.to_dict()))
    assert SimConfig.from_dict(doc) == TINY


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_obs=61, n_groups=3)  # not divisible
    with pytest.raises(ValueError, match="positive multiple"):
        SimConfig(n_obs=0)  # divisible, but no observations
    with pytest.raises(ValueError, match="base_seed"):
        SimConfig(base_seed=-1)  # SeedSequence takes no negative entropy
    with pytest.raises(ValueError):
        SimConfig(replicates=0)
    with pytest.raises(ValueError):
        SimConfig(snr=0.0)
    with pytest.raises(ValueError):
        SimConfig(condition_cap=0.5)
    with pytest.raises(ValueError):
        SimConfig(dims=(4,))
    with pytest.raises(ValueError):
        SimConfig(g_scan=())


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("dims", "44", "dims must be a list of integers, got '44'"),
        ("dims", [4.7, 4], r"dims must be a list of integers, got \[4.7, 4\]"),
        ("dims", [True, 4], r"dims must be a list of integers, got \[True, 4\]"),
        ("g_scan", "23", "g_scan must be a list of integers, got '23'"),
        ("replicates", True, "replicates must be an integer, got True"),
        ("snr", True, "snr must be a number, got True"),
        ("snr", "1", "snr must be a number, got '1'"),
        ("condition_cap", False, "condition_cap must be a number, got False"),
        ("condition_cap", "10", "condition_cap must be a number, got '10'"),
    ],
)
def test_config_rejects_coercible_values(tmp_path, capsys, field, value, match):
    """int() would split "44" into (4, 4), truncate 4.7 and read true as 1;
    a report would keep snr true as written."""
    doc = {**TINY.to_dict(), field: value}
    with pytest.raises(ValueError, match=match):
        load_study(doc)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("n_groups", [1, 0])
def test_config_rejects_fewer_than_two_groups(tmp_path, capsys, n_groups):
    """One group has no between-group signal for the SNR, so every replicate
    of such a study failed with a degenerate mean draw."""
    with pytest.raises(ValueError, match=f"^n_groups must be >= 2, got {n_groups}$"):
        SimConfig(n_obs=20, dims=(2, 2), n_groups=n_groups, replicates=2, g_scan=(1, 2))
    path = tmp_path / "study.json"
    path.write_text(json.dumps({**TINY.to_dict(), "n_groups": n_groups}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert "n_groups" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -3, 2.5])
def test_run_study_rejects_a_bad_worker_count(workers):
    with pytest.raises(ValueError, match=f"^workers must be an integer >= 1, got {workers!r}$"):
        run_study(TINY, workers=workers)


def test_config_keeps_numbers_as_given():
    """An integer snr is not converted, so a report writes it as it was read."""
    cfg = SimConfig(snr=2, condition_cap=np.float64(10.0))
    assert type(cfg.snr) is int and json.dumps(cfg.to_dict()["snr"]) == "2"
    assert type(cfg.condition_cap) is np.float64


def test_default_and_full_grids():
    desk = default_study()
    assert len(desk) == 8
    assert {c.n_obs for c in desk} == {60, 90, 120, 180}
    assert {c.dims for c in desk} == {(4, 4, 4, 4), (5, 5, 5, 5)}
    assert all(c.replicates == 25 for c in desk)
    full = full_study()
    assert len(full) == 16
    assert {c.dims for c in full} == {(m, m, m, m) for m in (4, 5, 6, 7)}
    assert all(c.replicates == 250 for c in full)


def test_load_study_accepts_three_shapes(tmp_path):
    single = TINY.to_dict()
    assert load_study(single) == (TINY,)
    assert load_study([single, single]) == (TINY, TINY)
    doc = {
        "cells": [{"n_obs": 24, "dims": [2, 3]}, {"n_obs": 30, "dims": [2, 3]}],
        "n_groups": 3,
        "replicates": 3,
        "base_seed": 5,
        "g_scan": [2, 3],
    }
    cells = load_study(doc)
    assert cells[0] == TINY
    assert cells[1].n_obs == 30
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    assert load_study(str(path)) == cells
    assert load_study(path) == cells  # any os.PathLike
    bad = tmp_path / "bad.json"
    bad.write_text('"just a string"')
    with pytest.raises(ValueError):
        load_study(str(bad))


# --- random matrix generators ---------------------------------------------------------


def test_random_orthogonal_is_orthogonal(rng):
    for n in (1, 2, 5):
        q = random_orthogonal(n, rng)
        assert np.allclose(q @ q.T, np.eye(n), rtol=0, atol=1e-12)
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12


def test_random_orthogonal_preserves_norms(rng):
    q = random_orthogonal(4, rng)
    v = rng.normal(size=4)
    assert np.linalg.norm(q @ v) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_random_orthogonal_entries_average_to_zero(rng):
    total = sum(random_orthogonal(3, rng)[0, 0] for _ in range(2000))
    # entry variance is 1/n; five standard errors around the Haar mean of 0
    assert abs(total / 2000) < 5 * np.sqrt(1 / 3 / 2000)


def test_random_scale_matrix_spectrum(rng):
    cap = 10.0
    for n in (2, 3, 6):
        mat = random_scale_matrix(n, cap, rng)
        assert np.allclose(mat, mat.T, rtol=0, atol=0)
        eigs = np.linalg.eigvalsh(mat)
        assert np.allclose(eigs, np.geomspace(1.0, cap, n), rtol=1e-10, atol=0)
        assert eigs[-1] / eigs[0] == pytest.approx(cap, rel=1e-10)


def test_random_scale_matrix_scalar_case(rng):
    assert np.array_equal(random_scale_matrix(1, 10.0, rng), np.array([[1.0]]))


# --- dataset generation ------------------------------------------------------------


def test_generate_dataset_shapes_and_labels(rng):
    batch, truth, labels = generate_dataset(TINY, rng)
    assert batch.shape == (24, 2, 3)
    assert np.array_equal(labels, np.repeat([0, 1, 2], 8))
    assert truth.n_groups == 3
    assert np.array_equal(truth.weights, np.full(3, 1 / 3))
    for comp in truth.components:
        assert comp.scales[1][0, 0] == 1.0  # normalized truth


def test_generate_dataset_hits_requested_snr(rng):
    cfg = SimConfig(n_obs=12, dims=(3, 2), n_groups=3, snr=2.5, base_seed=1)
    _, truth, _ = generate_dataset(cfg, rng)
    means = np.stack([c.mean for c in truth.components])
    grand = means.mean(axis=0)
    signal = float(np.mean((means - grand[None]) ** 2))
    noise = float(
        np.mean(
            [np.prod([np.mean(np.diag(s)) for s in c.scales]) for c in truth.components]
        )
    )
    assert signal / noise == pytest.approx(2.5, rel=1e-12)


def test_generate_dataset_is_deterministic():
    a = generate_dataset(TINY, np.random.default_rng(7))[0]
    b = generate_dataset(TINY, np.random.default_rng(7))[0]
    assert np.array_equal(a, b)


def test_high_snr_data_is_perfectly_separable(rng):
    cfg = SimConfig(n_obs=30, dims=(2, 3), n_groups=3, snr=50.0, base_seed=2)
    for rep in range(2):
        batch, _, labels = generate_dataset(cfg, np.random.default_rng(rep))
        _, report = fit(batch, 3, options=FitOptions(seed=rep))
        assert adjusted_rand_index(report.labels, labels) == 1.0


def test_no_signal_fits_score_near_zero_ari(rng):
    """Fitting clusters to homogeneous data must not 'recover' the fake labels."""
    dims = (2, 2)
    comp = MlndParams(mean=np.zeros(dims), scales=(np.eye(2), np.eye(2)))
    fake = np.repeat([0, 1, 2], 8)
    values = []
    for rep in range(20):
        gen = np.random.default_rng(100 + rep)
        batch = np.stack([sample(comp, gen) for _ in range(24)])
        try:
            _, report = fit(batch, 3, options=FitOptions(seed=rep, max_iterations=200))
        except Exception:
            continue  # collapses count as no recovery
        values.append(adjusted_rand_index(report.labels, fake))
    assert values, "every null fit collapsed"
    assert abs(float(np.mean(values))) <= 0.1


# --- matching estimated groups to true ones -------------------------------------------


def permutation_search(true_labels, est_labels, g):
    """The first of the G! permutations, in lexicographic order, with the
    largest overlap: the exhaustive reference for ``_best_permutation``."""
    table = np.zeros((g, g), dtype=np.int64)
    for t, e in zip(true_labels, est_labels):
        if 0 <= e < g:
            table[t, e] += 1
    best, best_score = None, -1
    for perm in itertools.permutations(range(g)):
        score = int(sum(table[t, perm[t]] for t in range(g)))
        if score > best_score:
            best, best_score = perm, score
    return best


@pytest.mark.parametrize("g", range(1, 7))
def test_best_permutation_matches_exhaustive_search(g, rng):
    """Few labels per group give tied tables, where the lexicographically
    first optimum must win; labels outside 0..G-1 are not counted."""
    for n in (g, 2 * g, 10 * g):
        for _ in range(20):
            true = rng.integers(0, g, n)
            est = rng.integers(-1, g + 1, n)
            assert _best_permutation(true, est, g) == permutation_search(true, est, g)
    assert _best_permutation([], [], g) == tuple(range(g))


def test_best_permutation_twelve_groups_is_fast(rng):
    true = rng.integers(0, 12, 600)
    est = (true * 5 + 3) % 12
    start = time.perf_counter()
    perm = _best_permutation(true, est, 12)
    assert time.perf_counter() - start < 1.0
    assert perm == tuple((t * 5 + 3) % 12 for t in range(12))


# --- the study loop ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report():
    return run_study(TINY, workers=1)


def test_replicate_records_are_complete(tiny_report):
    assert len(tiny_report.records) == 3
    for rec in tiny_report.records:
        assert rec.error is None
        assert rec.selected_g in (2, 3)
        assert -0.5 <= rec.ari <= 1.0
        assert rec.singular == (rec.n_singular_events > 0)
        assert len(rec.rel_err_mean) == 3
        assert len(rec.rel_err_scale) == 3
        assert all(v >= 0 for v in rec.rel_err_mean)


def test_cell_summary_reconciles_exactly(tiny_report):
    cell = tiny_report.cells[0]
    assert cell.n_replicates == 3
    assert cell.n_failed == 0
    assert cell.ari_all["n"] == cell.ari_singular["n"] + cell.ari_non_singular["n"]
    assert cell.ari_all["sum"] == cell.ari_singular["sum"] + cell.ari_non_singular["sum"]
    assert cell.ari_all["mean"] == cell.ari_all["sum"] / cell.ari_all["n"]


def test_overall_reconciles_with_cells(tiny_report):
    overall = tiny_report.overall
    for key in ("ari_singular", "ari_non_singular"):
        assert overall[key]["n"] == sum(c.__dict__[key]["n"] for c in tiny_report.cells)
        assert overall[key]["sum"] == sum(
            c.__dict__[key]["sum"] for c in tiny_report.cells
        )
    assert overall["ari_all"]["sum"] == (
        overall["ari_singular"]["sum"] + overall["ari_non_singular"]["sum"]
    )


def test_worker_count_does_not_change_report(tmp_path, tiny_report):
    pooled = run_study(TINY, workers=2)
    p1 = tmp_path / "serial.json"
    p2 = tmp_path / "pooled.json"
    write_report_json(tiny_report, p1)
    write_report_json(pooled, p2)
    assert p1.read_bytes() == p2.read_bytes()


@forked
def test_run_study_turns_a_dead_worker_into_a_tmclust_error(monkeypatch):
    dies_in_a_child(monkeypatch, simulate, "scan")
    with pytest.raises(TmclustError, match="^a worker process died: "):
        run_study(TINY, workers=2)


def test_report_csvs_written(tmp_path, tiny_report):
    write_report_csvs(tiny_report, tmp_path / "csvs")
    replicates = (tmp_path / "csvs" / "replicates.csv").read_text().strip().splitlines()
    cells = (tmp_path / "csvs" / "cells.csv").read_text().strip().splitlines()
    assert len(replicates) == 1 + 3
    assert len(cells) == 1 + 1
    assert replicates[0].startswith("cell_index,n_obs,dims,replicate")


def test_report_csvs_pin_every_cell_format(tmp_path):
    """Exact bytes of both CSVs: a failed replicate (its error quoted), a
    singular one without error vectors, a clean one, and a cell whose
    every replicate failed, so each summary is empty."""
    cfg = SimConfig(n_obs=12, dims=(2, 3), n_groups=2, replicates=3, g_scan=(2, 3))
    records = [
        ReplicateRecord(0, 12, (2, 3), 0, error='SingularScaleError: "dim 2", group 1'),
        ReplicateRecord(0, 12, (2, 3), 1, selected_g=3, true_g_selected=False, ari=0.75,
                        singular=True, n_singular_events=4),
        ReplicateRecord(0, 12, (2, 3), 2, selected_g=2, true_g_selected=True, ari=1.0,
                        singular=False, n_singular_events=0, rel_err_mean=(0.125, 0.1),
                        rel_err_scale=(0.5, 1e-17)),
    ]
    failed = [ReplicateRecord(1, 12, (2, 3), 0, error="EmptyComponentError: x")]
    cells = [_summarize_cell(0, cfg, records), _summarize_cell(1, cfg, failed)]
    write_report_csvs(StudyReport((cfg, cfg), records + failed, cells, {}), tmp_path)
    assert (tmp_path / "replicates.csv").read_bytes() == (
        b"cell_index,n_obs,dims,replicate,error,selected_g,true_g_selected,ari,singular,"
        b"n_singular_events,rel_err_mean,rel_err_scale\r\n"
        b'0,12,2x3,0,"SingularScaleError: ""dim 2"", group 1",,,,,,,\r\n'
        b"0,12,2x3,1,,3,false,0.75,true,4,,\r\n"
        b"0,12,2x3,2,,2,true,1.0,false,0,0.125;0.1,0.5;1e-17\r\n"
        b"1,12,2x3,0,EmptyComponentError: x,,,,,,,\r\n"
    )
    assert (tmp_path / "cells.csv").read_bytes() == (
        b"cell_index,n_obs,dims,n_star,n_replicates,n_failed,share_true_g,ari_mean,ari_sd,"
        b"n_singular,ari_mean_singular,ari_mean_non_singular,rel_err_mean_by_group,"
        b"rel_err_scale_by_group\r\n"
        b"0,12,2x3,6,3,1,0.5,0.875,0.1767766952966369,1,0.75,1.0,0.125;0.1,0.5;1e-17\r\n"
        b"1,12,2x3,6,1,1,,,,0,,,,\r\n"
    )


def test_a_replicate_that_raises_is_recorded_and_the_study_still_reports(tmp_path, monkeypatch):
    """An exception inside one replicate becomes that record's ``error``; the
    other replicates, the summaries and both report files are still made."""
    import tmclust.simulate as simulate

    calls = []

    def flaky(cfg, rng):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("generator broke")
        return generate_dataset(cfg, rng)

    monkeypatch.setattr(simulate, "generate_dataset", flaky)
    cfg = SimConfig(n_obs=12, dims=(2, 3), n_groups=2, replicates=2, g_scan=(2,))
    report = run_study(cfg, workers=1)
    assert [r.error for r in report.records] == [None, "RuntimeError: generator broke"]
    failed = report.records[1]
    assert failed.selected_g is None and failed.ari is None
    assert report.cells[0].n_replicates == 2 and report.cells[0].n_failed == 1
    write_report_json(report, tmp_path / "report.json")
    write_report_csvs(report, tmp_path / "csvs")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["records"][1]["error"] == "RuntimeError: generator broke"
    rows = (tmp_path / "csvs" / "replicates.csv").read_text().splitlines()
    assert rows[2].startswith("0,12,2x3,1,RuntimeError: generator broke,")
    cells = (tmp_path / "csvs" / "cells.csv").read_text().splitlines()
    assert cells[1].startswith("0,12,2x3,6,2,1,")  # two replicates, one failed


def test_run_study_requires_cells():
    with pytest.raises(ValueError):
        run_study(())


def test_multi_cell_indexing():
    cells = (TINY, SimConfig(n_obs=12, dims=(2, 3), n_groups=3, replicates=2,
                             base_seed=5, g_scan=(2, 3)))
    report = run_study(cells, workers=1)
    assert [r.cell_index for r in report.records] == [0, 0, 0, 1, 1]
    assert len(report.cells) == 2
    assert report.cells[1].n_replicates == 2
