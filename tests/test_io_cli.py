"""File formats (manifest, long CSV, binary, result documents) and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tmclust
from tmclust.cli import main
from tmclust.em import FitOptions, fit
from tmclust.errors import DataFormatError
from tmclust.io import (
    DatasetManifest,
    load_dataset,
    read_labels_csv,
    read_manifest,
    read_result,
    result_document,
    write_bin_f64,
    write_csv_long,
    write_labels_csv,
    write_manifest,
    write_result,
)
from tmclust.mlnd import MlndParams, sample
from tmclust.parsimony import ScaleModel


@pytest.fixture
def dataset(rng):
    return rng.normal(size=(6, 2, 3))


def _write_bundle(tmp_path, batch, fmt="csv-long", name="data"):
    ext = "csv" if fmt == "csv-long" else "bin"
    data_path = tmp_path / f"{name}.{ext}"
    if fmt == "csv-long":
        write_csv_long(data_path, batch)
    else:
        write_bin_f64(data_path, batch)
    manifest = DatasetManifest(
        dims=batch.shape[1:], n_obs=batch.shape[0], data=data_path.name, format=fmt
    )
    manifest_path = tmp_path / f"{name}.json"
    write_manifest(manifest, manifest_path)
    return manifest_path, data_path


# --- dataset round trips ----------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path, dataset):
    manifest_path, _ = _write_bundle(tmp_path, dataset)
    loaded = load_dataset(manifest_path)
    assert len(loaded) == 6
    assert np.array_equal(np.stack([m.array for m in loaded]), dataset)


def test_csv_rows_may_come_in_any_order(tmp_path, dataset):
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    lines = data_path.read_text().strip().splitlines()
    header, body = lines[0], lines[1:]
    rng = np.random.default_rng(0)
    rng.shuffle(body)
    data_path.write_text("\n".join([header] + body) + "\n")
    loaded = load_dataset(manifest_path)
    assert np.array_equal(np.stack([m.array for m in loaded]), dataset)


def test_bin_and_csv_agree_bitwise(tmp_path, dataset):
    csv_manifest, _ = _write_bundle(tmp_path, dataset, "csv-long", "a")
    bin_manifest, _ = _write_bundle(tmp_path, dataset, "bin-f64", "b")
    from_csv = np.stack([m.array for m in load_dataset(csv_manifest)])
    from_bin = np.stack([m.array for m in load_dataset(bin_manifest)])
    assert np.array_equal(from_csv, from_bin)


def test_single_observation_fixture(tmp_path):
    data_path = tmp_path / "one.csv"
    data_path.write_text(
        "obs_id,i1,i2,value\n1,1,1,1.5\n1,1,2,-2.0\n1,2,1,0.25\n1,2,2,8.0\n"
    )
    write_manifest(
        DatasetManifest(dims=(2, 2), n_obs=1, data="one.csv"), tmp_path / "m.json"
    )
    (obs,) = load_dataset(tmp_path / "m.json")
    assert np.array_equal(obs.array, np.array([[1.5, -2.0], [0.25, 8.0]]))


def _corrupt(tmp_path, dataset, mutate):
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    lines = data_path.read_text().strip().splitlines()
    mutate(lines)
    data_path.write_text("\n".join(lines) + "\n")
    return manifest_path


def test_missing_cell_is_reported_with_location(tmp_path, dataset):
    manifest_path = _corrupt(tmp_path, dataset, lambda lines: lines.pop(3))
    with pytest.raises(DataFormatError, match="missing cells"):
        load_dataset(manifest_path)


def test_duplicate_cell_names_the_row(tmp_path, dataset):
    manifest_path = _corrupt(tmp_path, dataset, lambda lines: lines.append(lines[1]))
    with pytest.raises(DataFormatError, match=r"row 38: duplicate cell"):
        load_dataset(manifest_path)


def test_out_of_range_index_names_the_row(tmp_path, dataset):
    def mutate(lines):
        lines[4] = lines[4].replace(",1,", ",9,", 1)

    manifest_path = _corrupt(tmp_path, dataset, mutate)
    with pytest.raises(DataFormatError, match="row 5"):
        load_dataset(manifest_path)


def test_non_finite_value_rejected(tmp_path, dataset):
    def mutate(lines):
        obs, i1, i2, _ = lines[2].rsplit(",", 3)
        lines[2] = ",".join([obs, i1, i2, "nan"])

    manifest_path = _corrupt(tmp_path, dataset, mutate)
    with pytest.raises(DataFormatError, match="row 3.*not finite"):
        load_dataset(manifest_path)


def test_bad_header_rejected(tmp_path, dataset):
    def mutate(lines):
        lines[0] = "obs,i1,i2,value"

    manifest_path = _corrupt(tmp_path, dataset, mutate)
    with pytest.raises(DataFormatError, match="bad header"):
        load_dataset(manifest_path)


def test_wrong_field_count_rejected(tmp_path, dataset):
    manifest_path = _corrupt(tmp_path, dataset, lambda lines: lines.append("1,1,1"))
    with pytest.raises(DataFormatError, match="expected 4 fields"):
        load_dataset(manifest_path)


def test_obs_id_out_of_range_rejected(tmp_path, dataset):
    def mutate(lines):
        lines[1] = "99" + lines[1][1:]

    manifest_path = _corrupt(tmp_path, dataset, mutate)
    with pytest.raises(DataFormatError, match="obs_id 99"):
        load_dataset(manifest_path)


def test_bin_size_mismatch_rejected(tmp_path, dataset):
    manifest_path, data_path = _write_bundle(tmp_path, dataset, "bin-f64")
    raw = data_path.read_bytes()
    data_path.write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="expected 36 doubles"):
        load_dataset(manifest_path)


def test_manifest_validation(tmp_path):
    with pytest.raises(DataFormatError, match="format tag"):
        DatasetManifest(dims=(2, 2), n_obs=1, data="x.csv", format="parquet")
    with pytest.raises(DataFormatError, match="dim_names"):
        DatasetManifest(dims=(2, 2), n_obs=1, data="x.csv", dim_names=("a",))
    with pytest.raises(DataFormatError, match="missing required field"):
        DatasetManifest.from_dict({"dims": [2, 2], "n_obs": 1})
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        read_manifest(path)


def test_manifest_metadata_round_trip(tmp_path):
    manifest = DatasetManifest(
        dims=(4, 7), n_obs=3, data="d.csv", dim_names=("seconds", "channel"),
        temporal=(True, False),
    )
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


# --- result documents ----------------------------------------------------------------


def test_result_document_round_trips_exactly(tmp_path, rng):
    scales = tuple(np.eye(m) for m in (2, 3))
    batch = np.stack(
        [
            sample(MlndParams(mean=np.full((2, 3), 5.0 * (i % 2)), scales=scales), rng).array
            for i in range(20)
        ]
    )
    options = FitOptions(seed=3)
    specs = (ScaleModel.MCD_VVI, ScaleModel.MCD_EVI)
    model, report = fit(batch, 2, specs=specs, options=options)
    doc = result_document(model, report, options)
    path = tmp_path / "result.json"
    write_result(doc, path)
    model2, report2, config = read_result(path)

    assert np.array_equal(model2.weights, model.weights)
    assert model2.specs == specs
    for a, b in zip(model.components, model2.components):
        assert np.array_equal(a.mean.matrix, b.mean.matrix)
        for s1, s2 in zip(a.scales, b.scales):
            assert np.array_equal(s1, s2)
    assert np.array_equal(report2.labels, report.labels)
    assert np.array_equal(report2.responsibilities, report.responsibilities)
    assert np.array_equal(report2.loglik_trace, report.loglik_trace)
    assert report2.bic == report.bic
    assert report2.rho == report.rho
    assert config["seed"] == 3
    # factor records survive: group T/delta pairs and the shared-T block
    f1 = model.factors[1]
    f1b = model2.factors[1]
    for a, b in zip(f1, f1b):
        assert np.array_equal(a.t, b.t)
        assert a.delta == b.delta
    assert np.array_equal(model.factors[2].t, model2.factors[2].t)
    assert np.array_equal(model.factors[2].deltas, model2.factors[2].deltas)


def test_labels_csv_round_trip(tmp_path):
    labels = np.array([0, 2, 1, 1])
    z = np.array(
        [[0.9, 0.05, 0.05], [0.1, 0.2, 0.7], [0.2, 0.6, 0.2], [0.25, 0.5, 0.25]]
    )
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels, z)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "obs_id,map_label,z_1,z_2,z_3"
    assert lines[1].startswith("1,1,")  # labels are 1-based on disk
    assert np.array_equal(read_labels_csv(path), labels)


# --- the command line ------------------------------------------------------------------


@pytest.fixture
def cli_bundle(tmp_path, rng):
    """A separable 3-group dataset on disk plus its true labels CSV."""
    scales = (np.eye(2), np.eye(3))
    labels = np.repeat([0, 1, 2], 10)
    batch = np.stack(
        [
            sample(MlndParams(mean=np.full((2, 3), 5.0 * g), scales=scales), rng).array
            for g in labels
        ]
    )
    manifest_path, _ = _write_bundle(tmp_path, batch)
    truth_path = tmp_path / "truth.csv"
    write_labels_csv(truth_path, labels, np.eye(3)[labels])
    return tmp_path, manifest_path, truth_path


def test_cmd_fit_smoke(cli_bundle, capsys):
    tmp_path, manifest_path, _ = cli_bundle
    out = tmp_path / "result.json"
    code = main(
        ["fit", "--manifest", str(manifest_path), "--groups", "1", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    doc = json.loads(out.read_text())
    assert doc["n_groups"] == 1
    assert doc["scale_models"] == ["VVV", "VVV"]


def test_cmd_fit_recovers_labels(cli_bundle, capsys):
    tmp_path, manifest_path, truth_path = cli_bundle
    out = tmp_path / "result.json"
    labels_out = tmp_path / "fit_labels.csv"
    code = main(
        [
            "fit", "--manifest", str(manifest_path), "--groups", "3",
            "--scale-models", "VVV,EEE", "--seed", "7",
            "--out", str(out), "--labels-out", str(labels_out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(
        ["metrics", "--labels-a", str(labels_out), "--labels-b", str(truth_path)]
    )
    assert code == 0
    values = json.loads(capsys.readouterr().out)
    assert values["adjusted_rand_index"] == 1.0


def test_cmd_fit_non_convergence_exits_2(cli_bundle, capsys):
    tmp_path, manifest_path, _ = cli_bundle
    out = tmp_path / "result.json"
    code = main(
        [
            "fit", "--manifest", str(manifest_path), "--groups", "3",
            "--max-iter", "2", "--out", str(out),
        ]
    )
    assert code == 2
    doc = json.loads(out.read_text())  # result still written, flagged
    assert doc["converged"] is False


def test_cmd_fit_input_errors(cli_bundle, capsys, tmp_path):
    _, manifest_path, _ = cli_bundle
    out = str(tmp_path / "r.json")
    assert main(["fit", "--manifest", str(manifest_path), "--groups", "0", "--out", out]) == 1
    assert main(["fit", "--manifest", "/nope.json", "--groups", "1", "--out", out]) == 1
    assert (
        main(
            [
                "fit", "--manifest", str(manifest_path), "--groups", "1",
                "--scale-models", "VVV", "--out", out,
            ]
        )
        == 1
    )
    assert (
        main(
            [
                "fit", "--manifest", str(manifest_path), "--groups", "1",
                "--scale-models", "VVV,BAD", "--out", out,
            ]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "unknown scale-model token" in err


def test_cmd_scan_table_and_best(cli_bundle, capsys):
    tmp_path, manifest_path, truth_path = cli_bundle
    table = tmp_path / "table.csv"
    best = tmp_path / "best.json"
    code = main(
        [
            "scan", "--manifest", str(manifest_path), "--groups", "2..4",
            "--threads", "2", "--out", str(table), "--best", str(best),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["best"]["G"] == 3
    assert len(table.read_text().strip().splitlines()) == 1 + 3
    model, report, _ = read_result(best)
    assert model.n_groups == 3
    assert report.converged


def test_cmd_scan_single_cell_and_bad_grid(cli_bundle, capsys, tmp_path):
    _, manifest_path, _ = cli_bundle
    table = str(tmp_path / "t.csv")
    assert main(["scan", "--manifest", str(manifest_path), "--groups", "1",
                 "--out", table]) == 0
    assert main(["scan", "--manifest", str(manifest_path), "--groups", "2",
                 "--scale-models-grid", "VVV;VVV;VVV", "--out", table]) == 1
    bad_grid = tmp_path / "grid.json"
    bad_grid.write_text('{"not": "a grid"}')
    assert main(["scan", "--manifest", str(manifest_path), "--groups", "2",
                 "--scale-models-grid", str(bad_grid), "--out", table]) == 1


def test_cmd_scan_respects_threads_env(cli_bundle, capsys, monkeypatch, tmp_path):
    _, manifest_path, _ = cli_bundle
    monkeypatch.setenv("TMCLUST_THREADS", "2")
    table = str(tmp_path / "t.csv")
    assert main(["scan", "--manifest", str(manifest_path), "--groups", "1..2",
                 "--out", table]) == 0
    monkeypatch.setenv("TMCLUST_THREADS", "zero")
    assert main(["scan", "--manifest", str(manifest_path), "--groups", "1",
                 "--out", table]) == 1


def test_cmd_simulate_smoke(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(
        json.dumps(
            {"n_obs": 24, "dims": [2, 3], "n_groups": 3, "replicates": 1,
             "base_seed": 3, "g_scan": [2, 3]}
        )
    )
    out = tmp_path / "report.json"
    code = main(
        [
            "simulate", "--config", str(config), "--out", str(out),
            "--csv-dir", str(tmp_path / "csvs"),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["replicates"] == 1
    assert (tmp_path / "csvs" / "replicates.csv").exists()
    report = json.loads(out.read_text())
    assert report["records"][0]["error"] is None


def test_cmd_simulate_thread_independence(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(
        json.dumps(
            {"n_obs": 24, "dims": [2, 3], "n_groups": 3, "replicates": 2,
             "base_seed": 4, "g_scan": [2, 3]}
        )
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["simulate", "--config", str(config), "--threads", "1",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--threads", "2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_simulate_replicates_override_and_bad_config(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n_obs": 61, "dims": [2, 3], "n_groups": 3}))
    out = str(tmp_path / "r.json")
    assert main(["simulate", "--config", str(config), "--out", out]) == 1
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", out]) == 1


def test_cmd_metrics_fixture(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_labels_csv(a, [0, 0, 1, 1], np.eye(2)[[0, 0, 1, 1]])
    write_labels_csv(b, [0, 1, 0, 1], np.eye(2)[[0, 1, 0, 1]])
    assert main(["metrics", "--labels-a", str(a), "--labels-b", str(b)]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["adjusted_rand_index"] == -0.5


def test_cmd_metrics_matrices(tmp_path, capsys):
    est = tmp_path / "est.csv"
    truth = tmp_path / "truth.csv"
    np.savetxt(est, np.eye(2), delimiter=",")
    np.savetxt(truth, np.eye(2), delimiter=",")
    assert main(["metrics", "--est", str(est), "--truth", str(truth)]) == 0
    assert json.loads(capsys.readouterr().out) == {"relative_error": 0.0}


def test_cmd_metrics_input_errors(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_labels_csv(a, [0, 1], np.eye(2)[[0, 1]])
    write_labels_csv(b, [0, 1, 1], np.eye(2)[[0, 1, 1]])
    assert main(["metrics", "--labels-a", str(a), "--labels-b", str(b)]) == 1
    assert main(["metrics", "--labels-a", str(a)]) == 1
    assert main(["metrics"]) == 1
    est = tmp_path / "e.csv"
    truth = tmp_path / "t.csv"
    np.savetxt(est, np.eye(2), delimiter=",")
    np.savetxt(truth, np.eye(3), delimiter=",")
    assert main(["metrics", "--est", str(est), "--truth", str(truth)]) == 1


def test_usage_errors_exit_1(capsys):
    assert main(["fit", "--groups", "1"]) == 1  # missing --manifest/--out
    assert main(["frobnicate"]) == 1


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would also cost every
    # CLI call its import time
    src = os.path.dirname(os.path.dirname(tmclust.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, tmclust; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
