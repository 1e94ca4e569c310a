"""File formats (manifest, long CSV, binary, result documents) and the CLI."""

import dataclasses
import json
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import tmclust
import tmclust.cli
from tmclust.cli import main
from tmclust.em import FitOptions, MixtureModel, fit, free_params
from tmclust.errors import DataFormatError, EmptyComponentError
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
from tmclust.selection import ScanGrid, _cell_seed, scan, write_bic_table
from tmclust.simulate import (
    SimConfig,
    load_study,
    run_study,
    write_report_csvs,
    write_report_json,
)


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
    assert loaded.shape == (6, 2, 3)
    assert np.array_equal(loaded, dataset)


def test_csv_rows_may_come_in_any_order(tmp_path, dataset):
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    lines = data_path.read_text().strip().splitlines()
    header, body = lines[0], lines[1:]
    rng = np.random.default_rng(0)
    rng.shuffle(body)
    data_path.write_text("\n".join([header] + body) + "\n")
    assert np.array_equal(load_dataset(manifest_path), dataset)


def test_bin_and_csv_agree_bitwise(tmp_path, dataset):
    csv_manifest, _ = _write_bundle(tmp_path, dataset, "csv-long", "a")
    bin_manifest, _ = _write_bundle(tmp_path, dataset, "bin-f64", "b")
    from_csv = load_dataset(csv_manifest)
    from_bin = load_dataset(bin_manifest)
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
    assert np.array_equal(obs, np.array([[1.5, -2.0], [0.25, 8.0]]))


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


# (token, field) pairs the row scan accepts, with the first cell's value then
ACCEPTED = {("1.0", 3): 1.0, ("1_0", 3): 10.0, ("\u0661", 3): 1.0,
            ("\u0661", 0): None, ("\u0661", 1): None}


@pytest.mark.parametrize("field", [0, 1, 3])
@pytest.mark.parametrize("token", ["1\x1c", "1\u1170", "1.0", "1_0", "\u0661"])
def test_csv_tokens_read_as_the_row_scan_reads_them(tmp_path, dataset, field, token):
    """np.loadtxt reads "1\x1c" as 1 and "1\u1170" as 4426, which int() and
    float() reject; int() reads the Arabic-Indic digit as 1 and "1_0" as 10.
    The reader accepts and names rows exactly as the row scan does.  The
    token replaces the obs_id (field 0), i1 (1) or value (3) of the row
    holding the first cell."""
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    lines = data_path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[field] = token
    lines[1] = ",".join(fields)
    data_path.write_text("\n".join(lines) + "\n")
    if (token, field) not in ACCEPTED:
        with pytest.raises(DataFormatError, match="row 2: "):
            load_dataset(manifest_path)
        return
    want = dataset.copy()
    if ACCEPTED[token, field] is not None:
        want[0, 0, 0] = ACCEPTED[token, field]
    assert np.array_equal(load_dataset(manifest_path), want)


def test_csv_field_past_the_csv_modules_limit_is_refused(tmp_path, dataset):
    """The row rules' csv module refuses a field longer than its limit, so a
    chunk that np.loadtxt could parse is refused too: whether the chunk also
    holds a quoted field does not decide the outcome."""
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    lines = data_path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",0." + "0" * 200_000 + "1"
    data_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="field larger than field limit") as info:
        load_dataset(manifest_path)
    assert str(data_path) in str(info.value)


def test_bin_size_mismatch_rejected(tmp_path, dataset):
    manifest_path, data_path = _write_bundle(tmp_path, dataset, "bin-f64")
    raw = data_path.read_bytes()
    data_path.write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="expected 36 doubles"):
        load_dataset(manifest_path)


def test_missing_data_file_is_named(tmp_path, dataset):
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    data_path.unlink()
    with pytest.raises(DataFormatError, match=f"data file not found: .*{data_path.name}"):
        load_dataset(manifest_path)


def test_bin_non_finite_value_names_its_element(tmp_path, dataset):
    dataset = dataset.copy()
    dataset[1, 0, 2] = np.nan  # element 6 + 2 of the flat file
    manifest_path, data_path = _write_bundle(tmp_path, dataset, "bin-f64")
    with pytest.raises(DataFormatError, match="non-finite value at element 8") as info:
        load_dataset(manifest_path)
    assert str(data_path) in str(info.value)


@pytest.mark.parametrize("extent", [200_000, 2**40], ids=["1.16-TiB", "past-intp"])
def test_csv_too_small_for_its_manifest_fails_before_allocating(tmp_path, capsys, extent):
    """A manifest whose N * n* rows the file cannot hold is a format error
    naming the file, not a MemoryError or numpy's dimension error."""
    data_path = tmp_path / "d.csv"
    write_csv_long(data_path, np.zeros((4, 2, 2)))
    manifest_path = tmp_path / "big.json"
    write_manifest(DatasetManifest(dims=(extent, extent), n_obs=4, data="d.csv"), manifest_path)
    with pytest.raises(DataFormatError, match=f"{4 * extent**2} rows") as info:
        load_dataset(manifest_path)
    assert str(data_path) in str(info.value)
    out = tmp_path / "r.json"
    assert main(["fit", "--manifest", str(manifest_path), "--groups", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tmclust: error: ") and str(data_path) in err
    assert not out.exists()


def test_csv_of_the_shortest_rows_passes_the_size_rule(tmp_path):
    """Rows of one-character fields, the last with no line break, are the
    smallest file the size rule must let through."""
    body = [f"1,{i},{j},{k},0" for i in range(1, 4) for j in range(1, 4) for k in range(1, 4)]
    data_path = tmp_path / "d.csv"
    data_path.write_text("obs_id,i1,i2,i3,value\n" + "\n".join(body))
    write_manifest(DatasetManifest(dims=(3, 3, 3), n_obs=1, data="d.csv"), tmp_path / "m.json")
    assert np.array_equal(load_dataset(tmp_path / "m.json"), np.zeros((1, 3, 3, 3)))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_csv_read_from_a_pipe_skips_the_size_rule(tmp_path, dataset):
    """A pipe has no size to check, so its rows are read as a file's are."""
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    read_fd, write_fd = os.pipe()
    feeder = threading.Thread(target=lambda: (os.write(write_fd, data_path.read_bytes()),
                                              os.close(write_fd)))
    feeder.start()
    try:
        loaded = load_dataset(manifest_path, data_path=f"/dev/fd/{read_fd}")
    finally:
        feeder.join(timeout=60)
        os.close(read_fd)
    assert np.array_equal(loaded, dataset)


def _outcome(read, path):
    """What ``read(path)`` returns, or its DataFormatError's message with
    the path written as ``<file>``."""
    try:
        return read(path)
    except DataFormatError as exc:
        return str(exc).replace(str(path), "<file>")


def _through_a_pipe(read, raw: bytes):
    """:func:`_outcome` of ``read`` on a pipe that holds ``raw``."""
    read_fd, write_fd = os.pipe()
    os.write(write_fd, raw)  # less than a pipe's buffer holds, so nothing reads it yet
    os.close(write_fd)
    try:
        return _outcome(read, f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


# a long CSV's lines, header first, changed so that a regular file is named
# at its bad row or missing cell, or read with a quoted field
PIPED_CSVS = {
    "out-of-range": lambda lines: lines[:2] + [lines[2].replace(b",1,", b",9,", 1)] + lines[3:],
    "duplicate": lambda lines: lines + lines[1:2],
    "missing": lambda lines: lines[:3] + lines[4:],
    "not-utf8": lambda lines: lines[:3] + [b"\xff" + lines[3]] + lines[4:],
    "quoted": lambda lines: lines[:1] + [b'"1"' + lines[1][1:]] + lines[2:],
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("change", PIPED_CSVS.values(), ids=PIPED_CSVS.keys())
def test_csv_from_a_pipe_reads_as_a_regular_file(tmp_path, dataset, change):
    """A pipe is read once, so it gives the regular file's message or array,
    not ``empty file``."""
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    data_path.write_bytes(b"\n".join(change(data_path.read_bytes().splitlines())) + b"\n")
    read = lambda path: load_dataset(manifest_path, data_path=path)  # noqa: E731
    want, got = _outcome(read, data_path), _through_a_pipe(read, data_path.read_bytes())
    if isinstance(want, str):
        assert got == want and "empty file" not in want
    else:
        assert np.array_equal(got, want) and np.array_equal(want, dataset)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("command", [["fit", "--groups", "1"], ["scan", "--groups", "1..2"]],
                         ids=["fit", "scan"])
def test_cli_reads_a_piped_manifest_once(tmp_path, dataset, command):
    """The CLI reads its manifest once, so a manifest from a pipe writes
    what the regular file does, instead of failing as empty JSON."""
    manifest_path, data_path = _write_bundle(tmp_path, dataset)

    def run(manifest, tag):
        out = tmp_path / f"{tag}.out"
        code = main([command[0], "--manifest", manifest, "--data", str(data_path),
                     *command[1:], "--out", str(out)])
        return code, out.read_bytes() if code == 0 else None

    want = run(str(manifest_path), "file")
    assert want[0] == 0
    assert _through_a_pipe(lambda path: run(path, "pipe"), manifest_path.read_bytes()) == want


def test_csv_names_its_first_bad_row_before_a_later_bad_byte(tmp_path, dataset):
    """The text decoder reads ahead of the rows, but a byte that is not
    UTF-8 is named only when the reader comes to its row."""
    manifest_path, data_path = _write_bundle(tmp_path, dataset)
    lines = data_path.read_bytes().splitlines()
    lines[2] = lines[2].replace(b",1,", b",9,", 1)
    lines[5] = b"\xff" + lines[5]
    data_path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataFormatError, match="row 3: i1=9 outside 1..2"):
        load_dataset(manifest_path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_csv_from_a_pipe_too_large_to_allocate_is_a_format_error(tmp_path, capsys):
    """A pipe has no size for the size rule, so a manifest of 1.16 TiB
    fails as a format error naming the pipe and the rows it needs, not as
    a MemoryError."""
    write_csv_long(tmp_path / "d.csv", np.zeros((4, 2, 2)))
    manifest_path = tmp_path / "big.json"
    write_manifest(DatasetManifest(dims=(200_000, 200_000), n_obs=4, data="d.csv"), manifest_path)
    raw = (tmp_path / "d.csv").read_bytes()
    got = _through_a_pipe(lambda path: load_dataset(manifest_path, data_path=path), raw)
    assert got == "<file>: 4 x (200000, 200000) needs 160000000000 rows, too many to allocate"
    argv = ["fit", "--manifest", str(manifest_path), "--groups", "1",
            "--out", str(tmp_path / "r.json")]
    assert _through_a_pipe(lambda path: main(argv + ["--data", path]), raw) == 1
    err = capsys.readouterr().err
    assert err.startswith("tmclust: error: /dev/fd/") and "160000000000 rows" in err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_labels_csv_from_a_pipe_names_the_row_that_is_not_utf8(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, [0, 1, 1, 0], np.eye(2)[[0, 1, 1, 0]])
    _spoil(path, 4)
    want = _outcome(read_labels_csv, path)
    assert want.startswith("<file>: row 4: not UTF-8")
    assert _through_a_pipe(read_labels_csv, path.read_bytes()) == want


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
    good = {"dims": [2, 2], "n_obs": 1, "data": "x.csv"}
    for field, value, match in [
        ("dims", 5, "dims must be a list of integers, got 5"),
        ("dims", [2.5, 2], "dims must be a list of integers"),
        ("n_obs", "abc", "n_obs must be an integer, got 'abc'"),
        ("data", 3, "data must be a file path"),
        ("temporal", True, "temporal must be a list"),
    ]:
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(DataFormatError, match=match) as info:
            read_manifest(path)
        assert str(path) in str(info.value)
        out = str(tmp_path / "fit.json")
        assert main(["fit", "--manifest", str(path), "--groups", "1", "--out", out]) == 1


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("n_obs", True, "n_obs must be an integer, got True"),
        ("dims", [2, True], "dims must be a list of integers"),
        ("dim_names", "ab", "dim_names must be a list, got 'ab'"),
        ("temporal", "ab", "temporal must be a list of booleans, got 'ab'"),
        ("temporal", [1, 0], "temporal must be a list of booleans"),
        ("dim_names", [1, 2], r"dim_names must hold a string per dimension, got \[1, 2\]"),
    ],
)
def test_manifest_rejects_coercible_values(tmp_path, field, value, match):
    """Booleans are not counts, and a string is not a list of names or flags."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2], "n_obs": 1, "data": "x.csv", field: value}))
    with pytest.raises(DataFormatError, match=match) as info:
        read_manifest(path)
    assert str(path) in str(info.value)
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--manifest", str(path), "--groups", "1", "--out", out]) == 1


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
            sample(MlndParams(mean=np.full((2, 3), 5.0 * (i % 2)), scales=scales), rng)
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
        assert np.array_equal(a.mean, b.mean)
        for s1, s2 in zip(a.scales, b.scales):
            assert np.array_equal(s1, s2)
    assert np.array_equal(report2.labels, report.labels)
    assert np.array_equal(report2.responsibilities, report.responsibilities)
    assert np.array_equal(report2.loglik_trace, report.loglik_trace)
    assert report2.bic == report.bic
    assert report2.rho == report.rho
    assert config == doc["config"] and config["seed"] == 3
    # factor records survive: group T/delta pairs and the shared-T block
    f1 = model.factors[1]
    f1b = model2.factors[1]
    for a, b in zip(f1, f1b):
        assert np.array_equal(a.t, b.t)
        assert a.delta == b.delta
    assert np.array_equal(model.factors[2].t, model2.factors[2].t)
    assert np.array_equal(model.factors[2].deltas, model2.factors[2].deltas)


def assert_same_record(a, b):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_record(x, y)
        return
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name))


@pytest.mark.parametrize("spec", list(ScaleModel))
def test_result_document_round_trips_every_family(tmp_path, rng, spec):
    batch = np.stack(
        [
            sample(MlndParams(mean=np.full((3, 2), 4.0 * (i % 2)),
                              scales=(np.eye(3), np.eye(2))), rng)
            for i in range(24)
        ]
    )
    options = FitOptions(seed=5)
    model, report = fit(batch, 2, specs=(spec, spec), options=options)
    doc = result_document(model, report, options)
    path = tmp_path / "result.json"
    write_result(doc, path)
    model2, report2, _ = read_result(path)
    assert model2.specs == (spec, spec)
    assert sorted(model2.factors) == sorted(model.factors)
    for dim, record in model.factors.items():
        assert_same_record(record, model2.factors[dim])
    assert result_document(model2, report2, options) == doc


@pytest.fixture
def result_doc(rng):
    batch = rng.normal(size=(12, 2, 3))
    options = FitOptions(seed=1, max_iterations=5)
    specs = (ScaleModel.MCD_VVI, ScaleModel.VVV)
    model, report = fit(batch, 2, specs=specs, options=options)
    return result_document(model, report, options)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda doc: "{ nope", "invalid JSON"),
        (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "weights"}),
         "missing field 'weights'"),
        (lambda doc: json.dumps({**doc, "scale_models": ["VII", "VVV"]}),
         "unknown scale-model token 'VII'"),
        (lambda doc: json.dumps({**doc, "scale_models": [3, "VVV"]}),
         "a family token is a string, got 3"),
        # the transposed (n_1, n*/n_1) matrix has the right size but not the right shape
        (lambda doc: json.dumps({**doc, "groups": [
            {**g, "mean_matricization": np.asarray(g["mean_matricization"]).T.tolist()}
            for g in doc["groups"]]}),
         r"mean_matricization of dims \(2, 3\) must have shape \(3, 2\), got \(2, 3\)"),
        # dims that int() would coerce to (2, 3) or (1, 3)
        (lambda doc: json.dumps({**doc, "dims": "23"}),
         "dims must be a list of integers, got '23'"),
        (lambda doc: json.dumps({**doc, "dims": [2.7, 3]}),
         r"dims must be a list of integers, got \[2.7, 3\]"),
        (lambda doc: json.dumps({**doc, "dims": [True, 3]}),
         r"dims must be a list of integers, got \[True, 3\]"),
        # report fields that bool(), int() or float() would coerce
        (lambda doc: json.dumps({**doc, "n_iterations": "5"}),
         "n_iterations must be an integer, got '5'"),
        (lambda doc: json.dumps({**doc, "rho": True}), "rho must be an integer, got True"),
        (lambda doc: json.dumps({**doc, "converged": "no"}),
         "converged must be a boolean, got 'no'"),
        (lambda doc: json.dumps({**doc, "bic": "x"}), "bic must be a number, got 'x'"),
        (lambda doc: json.dumps({**doc, "singular_events": [
            {"group": 0.5, "dim": 1, "iteration": 2}]}),
         "group must be an integer or null, got 0.5"),
        (lambda doc: json.dumps({**doc, "singular_events": [
            {"group": None, "dim": "1", "iteration": 2}]}),
         "dim must be an integer, got '1'"),
        (lambda doc: json.dumps({**doc, "singular_events": [
            {"group": 1, "dim": 1, "iteration": 2.0}]}),
         "iteration must be an integer, got 2.0"),
        # array entries that numpy would coerce
        (lambda doc: json.dumps({**doc, "labels": [str(v) for v in doc["labels"]]}),
         "labels must hold only integers, got '[01]'"),
        (lambda doc: json.dumps({**doc, "labels": [True] + doc["labels"][1:]}),
         "labels must hold only integers, got True"),
        (lambda doc: json.dumps({**doc, "labels": [1.7] + doc["labels"][1:]}),
         "labels must hold only integers, got 1.7"),
        (lambda doc: json.dumps({**doc, "loglik_trace": ["1.5"] + doc["loglik_trace"][1:]}),
         "loglik_trace must hold only numbers, got '1.5'"),
        (lambda doc: json.dumps({**doc, "responsibilities": [["0.5", 0.5]]
                                 + doc["responsibilities"][1:]}),
         "responsibilities must hold only numbers, got '0.5'"),
        (lambda doc: json.dumps({**doc, "weights": ["0.5", 0.5]}),
         "weights must hold only numbers, got '0.5'"),
        (lambda doc: json.dumps({**doc, "groups": [
            {**g, "mean_matricization": [["1.5", 0.0]] + g["mean_matricization"][1:]}
            for g in doc["groups"]]}),
         "mean_matricization must hold only numbers, got '1.5'"),
        (lambda doc: json.dumps({**doc, "groups": [
            {**g, "scales": [[[True, 0.0], [0.0, 1.0]]] + g["scales"][1:]}
            for g in doc["groups"]]}),
         "scales must hold only numbers, got True"),
        (lambda doc: json.dumps({**doc, "factors": {"1": {**doc["factors"]["1"], "groups": [
            {**g, "delta": str(g["delta"])} for g in doc["factors"]["1"]["groups"]]}}}),
         "groups must hold only numbers, got '[0-9.e-]+'"),
        # a JSON NaN literal is a number, but not a scale entry
        (lambda doc: json.dumps({**doc, "groups": [
            {**g, "scales": g["scales"][:1] + [np.diag([1.0, float("nan"), 1.0]).tolist()]}
            for g in doc["groups"]]}),
         "scale matrix for dimension 2 holds a NaN or infinite entry"),
        (lambda doc: json.dumps({**doc, "weights": [float("nan")] + doc["weights"][1:]}),
         "weights must be positive and sum to 1"),
        # one group's scales, stacked per dimension, keep the per-group messages
        (lambda doc: json.dumps({**doc, "groups": doc["groups"][:1] + [
            {**g, "scales": g["scales"][:1] + [np.eye(2).tolist()]} for g in doc["groups"][1:]]}),
         r"scale matrix for dimension 2 has extent 2, expected 3"),
        (lambda doc: json.dumps({**doc, "groups": doc["groups"][:1] + [
            {**g, "scales": g["scales"][:1]} for g in doc["groups"][1:]]}),
         "got 1 scale matrices for an order-2 mean"),
        (lambda doc: json.dumps({**doc, "groups": doc["groups"][:1] + [
            {**g, "scales": g["scales"] + [np.eye(3).tolist()]} for g in doc["groups"][1:]]}),
         "got 3 scale matrices for an order-2 mean"),
        (lambda doc: json.dumps({**doc, "groups": doc["groups"][:1] + [
            {**g, "scales": g["scales"][:1] + [np.triu(np.ones((3, 3))).tolist()]}
            for g in doc["groups"][1:]]}),
         "scale matrix for dimension 2 is not symmetric"),
        # the config echo must be what FitOptions accepts
        (lambda doc: json.dumps({**doc, "config": {**doc["config"], "seed": "x"}}),
         "seed must be one or more integers >= 0, got 'x'"),
        (lambda doc: json.dumps({**doc, "config": 5}), "must be a mapping"),
        (lambda doc: json.dumps({**doc, "config": {**doc["config"], "bogus": 1}}),
         "unexpected keyword argument 'bogus'"),
        (lambda doc: json.dumps({**doc, "config": {**doc["config"], "max_iterations": True}}),
         "max_iterations must be an integer >= 1, got True"),
    ],
    ids=["invalid-json", "missing-field", "unknown-family", "family-not-a-string",
         "transposed-mean", "dims-string", "dims-float", "dims-bool",
         "n-iterations-string", "rho-bool", "converged-string", "bic-string",
         "event-group-float", "event-dim-string", "event-iteration-float",
         "labels-string", "labels-bool", "labels-float", "loglik-trace-string",
         "responsibilities-string", "weights-string", "mean-string", "scales-bool",
         "factor-string", "scale-nan", "weights-nan", "scale-extent", "scale-count",
         "scale-extra", "scale-asymmetric", "config-seed-string",
         "config-not-an-object", "config-unknown-field", "config-count-bool"],
)
def test_read_result_names_the_file_on_bad_input(tmp_path, result_doc, corrupt, match):
    path = tmp_path / "result.json"
    path.write_text(corrupt(result_doc))
    with pytest.raises(DataFormatError, match=match) as info:
        read_result(path)
    assert str(path) in str(info.value)


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


def test_labels_csv_pins_every_cell_format(tmp_path):
    """Exact bytes: 1-based ids and labels, and every responsibility by its
    shortest round-trip repr (numpy scalars included)."""
    path = tmp_path / "labels.csv"
    z = np.array([[1.0, 0.0], [1e-17, 1.0 - 1e-17], [0.1, 0.9]])
    write_labels_csv(path, np.array([0, 1, 1], dtype=np.int32), z)
    assert path.read_bytes() == (
        b"obs_id,map_label,z_1,z_2\r\n"
        b"1,1,1.0,0.0\r\n"
        b"2,2,1e-17,1.0\r\n"
        b"3,2,0.1,0.9\r\n"
    )


# --- rewriting output files ------------------------------------------------------------

# every writer, by the name of the file it writes; the report CSVs are written
# into the directory of the path given
WRITERS = [
    "write_result", "write_manifest", "write_report_json", "write_bic_table",
    "write_labels_csv", "write_csv_long", "write_bin_f64",
    "write_report_csvs/replicates.csv", "write_report_csvs/cells.csv",
]


@pytest.fixture(scope="module")
def writers():
    """Each writer as (file name, write(path))."""
    batch = np.random.default_rng(11).normal(size=(12, 2, 3))
    options = FitOptions(seed=1)
    model, report = fit(batch, 2, options=options)
    manifest = DatasetManifest(dims=(2, 3), n_obs=12, data="d.csv")
    doc = result_document(model, report, options, manifest)
    table = scan(batch, ScanGrid(groups=(1, 2), spec_candidates=[["VVV"], ["VVV", "EEE"]]))
    study = run_study(
        SimConfig(n_obs=24, dims=(2, 3), n_groups=3, replicates=1, base_seed=3, g_scan=(2, 3)),
        workers=1,
    )
    return {
        "write_result": ("r.json", lambda p: write_result(doc, p)),
        "write_manifest": ("m.json", lambda p: write_manifest(manifest, p)),
        "write_report_json": ("s.json", lambda p: write_report_json(study, p)),
        "write_bic_table": ("t.csv", lambda p: write_bic_table(table, p)),
        "write_labels_csv": (
            "l.csv", lambda p: write_labels_csv(p, report.labels, report.responsibilities)
        ),
        "write_csv_long": ("d.csv", lambda p: write_csv_long(p, batch)),
        "write_bin_f64": ("d.bin", lambda p: write_bin_f64(p, batch)),
        "write_report_csvs/replicates.csv": (
            "replicates.csv", lambda p: write_report_csvs(study, p.parent)
        ),
        "write_report_csvs/cells.csv": ("cells.csv", lambda p: write_report_csvs(study, p.parent)),
    }


def _fresh_bytes(tmp_path, name, write) -> bytes:
    path = tmp_path / "fresh" / name
    path.parent.mkdir()
    write(path)
    return path.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
def test_writers_rewrite_a_file_in_place(tmp_path, monkeypatch, writers, writer):
    """A longer old file ends with exactly a fresh write's bytes, keeps its
    inode and mode, and is reached through a symlink; the file is never
    opened with O_TRUNC, which can stall for tens of milliseconds on ext4."""
    name, write = writers[writer]
    want = _fresh_bytes(tmp_path, name, write)
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(tmclust.io.os, "open", recording_open)
    target = tmp_path / "old" / name
    target.parent.mkdir()
    target.write_bytes(want + b"a stale tail\n" * 400)
    target.chmod(0o640)
    inode = target.stat().st_ino
    write(target)
    assert target.read_bytes() == want
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o640

    link = tmp_path / "link" / name
    link.parent.mkdir()
    link.symlink_to(target)
    target.write_bytes(want * 2)
    write(link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("writer", [w for w in WRITERS if "/" not in w])
def test_writers_write_into_a_pipe_and_the_null_device(tmp_path, writers, writer):
    """A target that is not a regular file is written but not cut: a pipe
    cannot seek and the null device cannot be truncated."""
    name, write = writers[writer]
    want = _fresh_bytes(tmp_path, name, write)
    write(os.devnull)
    read_fd, write_fd = os.pipe()
    chunks = []

    def drain():
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        write(f"/dev/fd/{write_fd}")
    finally:
        os.close(write_fd)
        reader.join(timeout=60)
        os.close(read_fd)
    assert not reader.is_alive()
    assert b"".join(chunks) == want


def test_a_document_that_cannot_be_written_leaves_the_old_file(tmp_path, result_doc):
    path = tmp_path / "result.json"
    write_result(result_doc, path)
    old = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_result({**result_doc, "bic": float("nan")}, path)
    assert path.read_bytes() == old


# --- the command line ------------------------------------------------------------------


@pytest.fixture
def cli_bundle(tmp_path, rng):
    """A separable 3-group dataset on disk plus its true labels CSV."""
    scales = (np.eye(2), np.eye(3))
    labels = np.repeat([0, 1, 2], 10)
    batch = np.stack(
        [
            sample(MlndParams(mean=np.full((2, 3), 5.0 * g), scales=scales), rng)
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


@pytest.mark.parametrize("seed", ["-1", "2,-3", ","])
def test_cmd_fit_and_scan_reject_a_bad_seed(cli_bundle, capsys, tmp_path, seed):
    _, manifest_path, _ = cli_bundle
    common = ["--manifest", str(manifest_path), "--seed", seed]
    assert main(["fit", *common, "--groups", "1", "--out", str(tmp_path / "r.json")]) == 1
    assert "seed must be" in capsys.readouterr().err
    table = tmp_path / "t.csv"
    assert main(["scan", *common, "--groups", "1..2", "--out", str(table)]) == 1
    assert "seed must be" in capsys.readouterr().err
    assert not table.exists()


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
    model, report, config = read_result(best)
    assert model.n_groups == 3
    assert report.converged
    assert config["seed"] == list(_cell_seed(0, 3, model.specs))  # the winning cell's seed


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


@pytest.mark.parametrize(
    "argv, env_threads",
    [
        (["fit", "--groups", "0"], None),
        (["fit", "--groups", "1", "--scale-models", "VVV"], None),
        (["scan", "--groups", "0..2"], None),
        (["scan", "--groups", "3..1"], None),
        (["scan", "--groups", "2", "--scale-models-grid", "VVV;VVV;VVV"], None),
        (["scan", "--groups", "2", "--scale-models-grid", "GRID_FILE"], None),
        (["scan", "--groups", "1", "--threads", "0"], None),
        (["scan", "--groups", "1"], "0"),
        (["simulate", "--threads", "0"], None),
        (["simulate"], "0"),
        (["simulate", "--replicates", "0"], None),
    ],
    ids=["fit-groups-0", "fit-specs-short", "scan-groups-from-0", "scan-groups-empty",
         "scan-grid-3-dims", "scan-grid-file-3-dims", "scan-threads-0", "scan-env-threads-0",
         "simulate-threads-0", "simulate-env-threads-0", "simulate-replicates-0"],
)
def test_cli_range_errors_exit_1(cli_bundle, capsys, monkeypatch, argv, env_threads):
    """Each out-of-range value, whichever object checks it, exits 1 with an
    error line and writes no output."""
    tmp_path, manifest_path, _ = cli_bundle
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([["VVV"]] * 3))  # the data has two dimensions
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n_obs": 24, "dims": [2, 3], "n_groups": 3, "replicates": 1,
                                  "g_scan": [2, 3]}))
    out = tmp_path / "out"
    inputs = ["--manifest", str(manifest_path)]
    if argv[0] == "simulate":
        inputs = ["--config", str(config)]
    if env_threads is None:
        monkeypatch.delenv("TMCLUST_THREADS", raising=False)
    else:
        monkeypatch.setenv("TMCLUST_THREADS", env_threads)
    argv = [str(grid) if a == "GRID_FILE" else a for a in argv]
    assert main([*argv, *inputs, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("tmclust: error: ")
    assert not out.exists()


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
    for body, match in [("1\n", "row 2: expected an integer"), ("1,2\n2,x\n", "row 3: ")]:
        b.write_text("obs_id,map_label,z_1,z_2\n" + body)
        with pytest.raises(DataFormatError, match=match) as info:
            read_labels_csv(b)
        assert str(b) in str(info.value)
        assert main(["metrics", "--labels-a", str(a), "--labels-b", str(b)]) == 1


@pytest.mark.parametrize(
    "ids, match",
    [
        ([1, 1, 5], "obs_id 1 appears 2 times"),
        ([2, 3, 1, 3], "obs_id 3 appears 2 times"),
        ([1, 2, 5], r"obs_id 3 is missing \(expected 1..3\)"),
        ([0, 1, 2], r"obs_id 3 is missing \(expected 1..3\)"),
    ],
    ids=["duplicate", "duplicate-out-of-order", "missing", "zero-based"],
)
def test_labels_csv_needs_each_obs_id_once(tmp_path, capsys, ids, match):
    """Labels are aligned by obs_id, so the ids must be exactly 1..N."""
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_labels_csv(a, [0] * len(ids), np.ones((len(ids), 1)))
    b.write_text("obs_id,map_label\n" + "".join(f"{i},1\n" for i in ids))
    with pytest.raises(DataFormatError, match=match) as info:
        read_labels_csv(b)
    assert str(b) in str(info.value)
    assert main(["metrics", "--labels-a", str(a), "--labels-b", str(b)]) == 1
    assert str(b) in capsys.readouterr().err


def test_cli_writes_every_output_to_the_null_device(cli_bundle, capsys):
    _, manifest_path, _ = cli_bundle
    data = ["--manifest", str(manifest_path)]
    assert main(["fit", *data, "--groups", "1", "--out", os.devnull,
                 "--labels-out", os.devnull]) == 0
    assert main(["scan", *data, "--groups", "1..2", "--out", os.devnull,
                 "--best", os.devnull]) == 0
    assert main(["simulate", "--replicates", "1", "--out", os.devnull]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--groups", "1", "--out", "MISSING"],
        ["fit", "--groups", "1", "--out", "OK", "--labels-out", "MISSING"],
        ["scan", "--groups", "1", "--out", "MISSING"],
        ["scan", "--groups", "1", "--out", "OK", "--best", "MISSING"],
        ["simulate", "--full-study", "--out", "MISSING"],
    ],
    ids=["fit-out", "fit-labels-out", "scan-out", "scan-best", "simulate-out"],
)
def test_a_missing_output_directory_fails_before_any_work(cli_bundle, capsys, monkeypatch, argv):
    tmp_path, manifest_path, _ = cli_bundle
    calls = []
    for name in ("fit", "scan", "run_study"):
        monkeypatch.setattr(tmclust.cli, name, lambda *args, **kwargs: calls.append(args))
    missing = str(tmp_path / "missing" / "out")
    argv = [missing if a == "MISSING" else str(tmp_path / "ok") if a == "OK" else a for a in argv]
    inputs = [] if argv[0] == "simulate" else ["--manifest", str(manifest_path)]
    assert main([*argv, *inputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tmclust: error: ") and missing in err
    assert calls == []
    assert not (tmp_path / "ok").exists()


@pytest.mark.parametrize("csv_dir", ["afile", "afile/sub"])
def test_a_csv_dir_that_cannot_be_made_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                             csv_dir):
    calls = []
    monkeypatch.setattr(tmclust.cli, "run_study", lambda *args, **kwargs: calls.append(args))
    afile, out = tmp_path / "afile", tmp_path / "s.json"
    afile.write_text("kept\n")
    csv_dir = str(tmp_path / csv_dir)
    assert main(["simulate", "--replicates", "1", "--out", str(out), "--csv-dir", csv_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tmclust: error: ") and csv_dir in err
    assert calls == [] and not out.exists()
    assert afile.read_text() == "kept\n"


def test_a_fit_aborted_by_a_degeneracy_exits_2(cli_bundle, capsys, monkeypatch):
    tmp_path, manifest_path, _ = cli_bundle

    def collapse(*args, **kwargs):
        raise EmptyComponentError("group 2 collapsed", group=1, iteration=3)

    monkeypatch.setattr(tmclust.cli, "fit", collapse)
    out = tmp_path / "r.json"
    assert main(["fit", "--manifest", str(manifest_path), "--groups", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tmclust: aborted: group 2 collapsed\n"
    assert not out.exists()


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


# --- family tokens and unreadable files -------------------------------------------


def test_every_reader_of_family_tokens_reads_them_alike(cli_bundle, result_doc, capsys):
    """fit, MixtureModel, free_params, ScanGrid (through scan), the CLI and
    read_result share one token rule and one spec-list rule: surrounding
    whitespace is ignored, an unknown token is rejected by name (by
    free_params too, never with a bare KeyError), and so is a list for
    another number of dimensions."""
    tmp_path, manifest_path, _ = cli_bundle
    batch = load_dataset(manifest_path)
    options = FitOptions(max_iterations=3)

    def cli(tokens):
        argv = ["fit", "--manifest", str(manifest_path), "--groups", "1",
                "--scale-models", ",".join(tokens), "--out", str(tmp_path / "r.json")]
        if main(argv) != 0:
            raise ValueError(capsys.readouterr().err)

    def result_file(tokens):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**result_doc, "scale_models": tokens}))
        return read_result(path)

    readers = {
        "fit": lambda tokens: fit(batch, 1, tokens, options),
        "MixtureModel": lambda tokens: MixtureModel(
            [1.0], np.zeros((1, 2, 3)), [np.eye(2)[None], np.eye(3)[None]], tokens),
        "free_params": lambda tokens: free_params(tokens, 2, (3, 2)),
        "ScanGrid": lambda tokens: scan(
            batch, ScanGrid(groups=(1,), spec_candidates=[[t] for t in tokens], options=options)),
        "cli": cli,
        "read_result": result_file,
    }
    for name, read in readers.items():
        read([" VVV", "VVV"])
        for tokens, match in [(["XYZ", "VVV"], "unknown scale-model token 'XYZ'"),
                              (["VVV"], "got 1 specs for 2 dimensions")]:
            with pytest.raises((ValueError, DataFormatError), match=match):
                read(tokens)


def _spoil(path, row: int) -> None:
    """Put a byte that is not UTF-8 at the start of line ``row`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    lines[row - 1] = b"\xff" + lines[row - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("row", [5, 1000])  # in the first block the decoder reads, and later
def test_a_long_csv_that_is_not_utf8_names_the_file_and_row(tmp_path, capsys, row):
    manifest_path, data_path = _write_bundle(tmp_path, np.random.default_rng(0).normal(
        size=(60, 4, 5)))
    _spoil(data_path, row)
    with pytest.raises(DataFormatError, match=f"row {row}: not UTF-8") as info:
        load_dataset(manifest_path)
    assert str(data_path) in str(info.value)
    assert main(["fit", "--manifest", str(manifest_path), "--groups", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert str(data_path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "spoil, match",
    [(lambda path: _spoil(path, 3), "row 3: not UTF-8"),
     (lambda path: path.write_text("obs_id,map_label\n1," + "1" * 200_000 + "\n"),
      "field larger than field limit")],
    ids=["not-utf8", "csv-field-limit"],
)
def test_an_unreadable_labels_csv_names_the_file(tmp_path, capsys, spoil, match):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        write_labels_csv(path, [0, 1, 1], np.eye(2)[[0, 1, 1]])
    spoil(b)
    with pytest.raises(DataFormatError, match=match) as info:
        read_labels_csv(b)
    assert str(b) in str(info.value)
    assert main(["metrics", "--labels-a", str(a), "--labels-b", str(b)]) == 1
    assert str(b) in capsys.readouterr().err


@pytest.mark.parametrize("body", [b"{ nope", b'{"dims": \xff}'], ids=["invalid-json", "not-utf8"])
def test_every_json_reader_names_a_bad_file(cli_bundle, capsys, body):
    """The manifest, result, study and grid-file readers reject a file that
    is not UTF-8 JSON with their own error type, naming the file."""
    tmp_path, manifest_path, _ = cli_bundle
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    for read, error in [(read_manifest, DataFormatError), (read_result, DataFormatError),
                        (load_study, ValueError)]:
        with pytest.raises(error, match="invalid JSON") as info:
            read(bad)
        assert str(bad) in str(info.value)
    for argv in (
        ["simulate", "--config", str(bad), "--out", str(tmp_path / "s.json")],
        ["scan", "--manifest", str(manifest_path), "--groups", "1",
         "--scale-models-grid", str(bad), "--out", str(tmp_path / "t.csv")],
        ["fit", "--manifest", str(bad), "--groups", "1", "--out", str(tmp_path / "r.json")],
    ):
        assert main(argv) == 1
        assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--est", "--truth"])
def test_cmd_metrics_rejects_a_non_finite_matrix(tmp_path, capsys, flag, value):
    """A relative error of NaN or infinity has no JSON form."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    np.savetxt(good, np.eye(2), delimiter=",")
    bad.write_text(f"1,0\n0,{value}\n")
    paths = {"--est": good, "--truth": good, flag: bad}
    assert main(["metrics", *(str(v) for item in paths.items() for v in item)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and str(bad) in out.err
