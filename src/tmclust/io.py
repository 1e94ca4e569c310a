"""Dataset manifests, long-CSV / binary readers and writers, result documents.

The long CSV (header ``obs_id,i1,...,iD,value``, 1-based indices, any row
order, every cell exactly once) is the canonical interchange format.  A
file or a pipe is read once, in chunks that ``np.loadtxt`` parses or else
row by row, and gives the same message naming the first bad row; a batch
too large to allocate is a format error too.  ``bin-f64`` (raw
little-endian doubles, observations concatenated in canonical layout, no
header) is the fast path for large inputs.  Result documents are checked
field by field, arrays included, so a value of the wrong JSON type is an
error, not a coercion.  All floats in JSON documents are written by
Python's shortest round-trip repr, so a write/read cycle reproduces every
double bit for bit.  Every file is read as UTF-8, whatever the locale's
encoding, and an error about a file names it.

Every file tmclust writes goes through :func:`_output`, which rewrites an
existing file in place: it opens the file without truncating it, writes
the new bytes over the old ones and then cuts the file at the end of what
it wrote.  On ext4, truncating a file on open when it was rewritten
moments before can block for tens of milliseconds; overwriting does not.
The file keeps its inode, mode and links, a symlink's target is
rewritten, and a target that is not a regular file (``/dev/null``, a
pipe) is written but not cut.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import stat
import warnings
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from ._fields import _boolean, _convert_field, _integer, _items, _number
from ._version import __version__
from .em import FitOptions, FitReport, MixtureModel, SingularEvent
from .errors import DataFormatError
from .mda import as_batch, matricize_mode1

_FORMATS = ("csv-long", "bin-f64")
_CSV_CHUNK_LINES = 512  # lines of a long CSV parsed per np.loadtxt call
_CSV_CHUNK_BYTES = b"0123456789eE.+- \t,\r\n"  # all that a chunk np.loadtxt parses may hold


def _csv_cell(value):
    """One CSV cell: empty for None, ``true``/``false`` for a bool, the
    shortest round-trip repr for a float (numpy's included), semicolon-joined
    reprs for a vector, and anything else as the csv module writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ";".join(repr(v) for v in value)
    return value


def _entries(doc: dict, name: str, kind: str = "numbers", convert=_number):
    """``doc[name]``, a JSON array (of arrays or objects) whose every entry
    ``convert`` accepts; otherwise :class:`DataFormatError` names the first
    entry it rejects, such as a string or a boolean among numbers."""
    pending = [doc[name]]
    while pending:
        value = pending.pop()
        if isinstance(value, (list, dict)):
            pending.extend(reversed(list(value.values() if isinstance(value, dict) else value)))
            continue
        try:
            convert(value)
        except TypeError:
            raise DataFormatError(f"{name} must hold only {kind}, got {value!r}") from None
    return doc[name]


@dataclass(frozen=True)
class DatasetManifest:
    """Shape and location of one dataset on disk."""

    dims: tuple[int, ...]
    n_obs: int
    data: str
    format: str = "csv-long"
    dim_names: tuple[str, ...] | None = None
    temporal: tuple[bool, ...] | None = None

    def __post_init__(self):
        _convert_field(self, "dims", "a list of integers", _items)
        if len(self.dims) < 2 or any(n < 1 for n in self.dims):
            raise DataFormatError("dims must have order >= 2 with positive extents")
        _convert_field(self, "n_obs", "an integer", _integer)
        if self.n_obs < 1:
            raise DataFormatError("n_obs must be >= 1")
        if not isinstance(self.data, str):
            raise DataFormatError(f"data must be a file path, got {self.data!r}")
        if self.format not in _FORMATS:
            raise DataFormatError(
                f"unknown format tag {self.format!r} (expected one of {_FORMATS})"
            )
        if self.dim_names is not None:
            _convert_field(self, "dim_names", "a list", lambda v: _items(v, lambda name: name))
            names = list(self.dim_names)
            if len(names) != len(self.dims) or not all(isinstance(v, str) for v in names):
                raise DataFormatError(f"dim_names must hold a string per dimension, got {names!r}")
        if self.temporal is not None:
            _convert_field(self, "temporal", "a list of booleans", lambda v: _items(v, _boolean))
            if len(self.temporal) != len(self.dims):
                raise DataFormatError("temporal must have one flag per dimension")

    def to_dict(self) -> dict:
        """The JSON form: every field that is set, in field order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        try:
            return cls(**{f.name: d[f.name] for f in fields(cls)
                          if f.name in d or f.default is MISSING})
        except KeyError as exc:
            raise DataFormatError(f"missing required field {exc}") from None


def _reading(path):
    """``path`` open as UTF-8 text for :func:`_records`, which names the row
    of a byte that is not UTF-8."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline="")


def _records(path, lines, row: int = 1, stop=math.inf):
    """``(row, fields)`` for each csv record of ``lines``, numbered from ``row``, until one
    ends on or past line ``stop``; a byte that is not UTF-8 or a record the
    csv module refuses raises DataFormatError naming the file."""
    def checked():
        for line in lines:
            if not line.isascii():
                try:  # a bad byte is a lone surrogate here
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(f"{path}: row {row}: not UTF-8 ({exc.reason})") from None
            yield line

    reader = csv.reader(checked())
    try:
        for fields in reader:
            yield row, fields
            if reader.line_num >= stop:
                return
            row += 1
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _read_json(path, what: str, error=DataFormatError):
    """The JSON document in ``path``, read as UTF-8; a bad one raises ``error`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise error(f"{what} {path}: invalid JSON ({exc})") from None


def read_manifest(path) -> DatasetManifest:
    doc = _read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise DataFormatError(f"manifest {path}: expected a JSON object")
    try:
        return DatasetManifest.from_dict(doc)
    except DataFormatError as exc:
        raise DataFormatError(f"manifest {path}: {exc}") from None


@contextlib.contextmanager
def _output(path, binary: bool = False):
    """A text (or ``binary``) handle that rewrites ``path`` in place.

    The file is created if missing and opened without ``O_TRUNC``; on exit,
    error or not, a regular file is cut at the end of what was written, so
    it holds exactly the new bytes.  Text is written without newline
    translation.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb" if binary else "w", newline=None if binary else "") as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null and pipes cannot be cut
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_json(doc, path) -> None:
    """Deterministic JSON: sorted keys, two-space indent, no NaN, final newline.

    The document is serialized before the file is opened, so one that cannot
    be written (a NaN, a value JSON has no form for) leaves the file as it was.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with _output(path) as fh:
        fh.write(text + "\n")


def write_csv_table(path, header, rows) -> None:
    """A CSV table: the ``header`` row, then each row's cells by :func:`_csv_cell`."""
    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def write_manifest(manifest: DatasetManifest, path) -> None:
    _write_json(manifest.to_dict(), path)


def _resolve(manifest_path, data_path: str) -> str:
    if os.path.isabs(data_path):
        return data_path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), data_path)


def _csv_long_header(order: int) -> list[str]:
    return ["obs_id", *(f"i{k + 1}" for k in range(order)), "value"]


def _load_csv_long(path, dims: tuple[int, ...], n_obs: int) -> np.ndarray:
    """The batch of a long CSV, read once in chunks of ``_CSV_CHUNK_LINES`` lines; a
    chunk :func:`_store_chunk` refuses goes row by row through :func:`_store_row`,
    and the first bad row raises :class:`DataFormatError`.  A regular file too small
    for N * n* rows (each at least 2 d + 4 bytes) is rejected before the batch is
    allocated; a pipe has no size, so there an allocation that fails is the error."""
    shape, order = (n_obs,) + dims, len(dims)
    with _reading(path) as fh:
        info, n_rows = os.fstat(fh.fileno()), math.prod(shape)
        needs = f"{path}: {n_obs} x {dims} needs {n_rows} rows"
        if stat.S_ISREG(info.st_mode) and n_rows * (2 * order + 4) > info.st_size:
            raise DataFormatError(f"{needs}, more than {info.st_size} bytes hold")
        try:
            values, seen = np.empty(shape), np.zeros(shape, dtype=bool)
        except (MemoryError, ValueError):
            raise DataFormatError(f"{needs}, too many to allocate") from None
        _, header = next(_records(path, fh, stop=1), (1, None))
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        if [h.strip() for h in header] != (expected := _csv_long_header(order)):
            raise DataFormatError(f"{path}: bad header {header!r}, expected {expected}")
        row = 2
        while lines := list(itertools.islice(fh, _CSV_CHUNK_LINES)):
            if _store_chunk(lines, values, seen):
                row += len(lines)
                continue
            for row, fields in _records(path, itertools.chain(lines, fh), row, len(lines)):
                try:
                    _store_row(fields, values, seen)
                except ValueError as exc:
                    raise DataFormatError(f"{path}: row {row}: {exc}") from None
            row += 1  # the row after the chunk's last record
    if not seen.all():  # counted and found without a mask of the missing cells
        first = [int(i) + 1 for i in np.unravel_index(np.argmin(seen), shape)]
        raise DataFormatError(f"{path}: {seen.size - np.count_nonzero(seen)} missing cells, "
                              f"first: obs_id={first[0]}, index={tuple(first[1:])}")
    return values


def _store_row(fields: list[str], values: np.ndarray, seen: np.ndarray) -> None:
    """Store a long-CSV row, read by ``int`` and ``float``, unless it is blank; a row that
    breaks a rule or names a cell already ``seen`` raises ValueError."""
    if not fields:
        return
    if len(fields) != seen.ndim + 1:
        raise ValueError(f"expected {seen.ndim + 1} fields, got {len(fields)}")
    ids, value = [int(v) for v in fields[:-1]], float(fields[-1])
    for k, (i, n) in enumerate(zip(ids, seen.shape)):
        if not 1 <= i <= n:
            raise ValueError(f"{f'i{k}=' if k else 'obs_id '}{i} outside 1..{n}")
    if not math.isfinite(value):
        raise ValueError(f"value {fields[-1]!r} not finite")
    cell = tuple(i - 1 for i in ids)
    if seen[cell]:
        raise ValueError(f"duplicate cell obs_id={ids[0]}, index={tuple(ids[1:])}")
    seen[cell], values[cell] = True, value


def _store_chunk(lines: list[str], values: np.ndarray, seen: np.ndarray) -> bool:
    """Store a chunk of long-CSV rows parsed by ``np.loadtxt`` in ``values`` and ``seen``;
    False, storing nothing, unless every row is valid and names a cell seen nowhere.

    Only ``_CSV_CHUNK_BYTES`` may appear: ``np.loadtxt`` reads some other characters as
    digits or whitespace where ``int`` and ``float`` reject them.  On these it rejects
    every token the row rules reject (``1.0`` as an index, blank fields, lines of
    whitespace) and reads every value as ``float`` does, correctly rounded.  A chunk
    longer than the csv module's field limit is left to the rules that apply it."""
    text = "".join(lines)
    if (len(text) > csv.field_size_limit() or not text.isascii()
            or text.encode().translate(None, _CSV_CHUNK_BYTES)):
        return False
    if not text.strip("\r\n"):
        return True  # blank lines only
    fields = [(f"i{k}", np.int64) for k in range(seen.ndim)] + [("value", np.float64)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is a parse failure here
            rows = np.loadtxt(lines, dtype=fields, delimiter=",", comments=None, ndmin=1)
        cells = np.ravel_multi_index([rows[f"i{k}"] - 1 for k in range(seen.ndim)], seen.shape)
    except (ValueError, Warning):
        return False
    ordered = np.sort(cells)
    if (not np.isfinite(rows["value"]).all() or seen.reshape(-1)[cells].any()
            or (ordered[1:] == ordered[:-1]).any()):
        return False
    values.reshape(-1)[cells] = rows["value"]
    seen.reshape(-1)[cells] = True
    return True


def _load_bin_f64(path, dims: tuple[int, ...], n_obs: int) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f8")
    n_star = math.prod(dims)  # exact: a manifest's extents may overflow int64
    if raw.size != n_obs * n_star:
        raise DataFormatError(
            f"{path}: expected {n_obs * n_star} doubles ({n_obs} x {dims}), got {raw.size}"
        )
    if not np.all(np.isfinite(raw)):
        bad = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise DataFormatError(f"{path}: non-finite value at element {bad}")
    return raw.astype(np.float64).reshape((n_obs,) + dims)


def load_dataset(manifest_path, data_path: str | None = None, manifest=None) -> np.ndarray:
    """Load the (N, n_1, ..., n_D) batch a manifest describes, observations in
    ascending obs_id order.

    ``data_path`` overrides the manifest's data file location (same format).
    A ``manifest`` already read from ``manifest_path`` is not read again.
    """
    manifest = read_manifest(manifest_path) if manifest is None else manifest
    path = data_path if data_path is not None else _resolve(manifest_path, manifest.data)
    if not os.path.exists(path):
        raise DataFormatError(f"data file not found: {path}")
    if manifest.format == "csv-long":
        return _load_csv_long(path, manifest.dims, manifest.n_obs)
    return _load_bin_f64(path, manifest.dims, manifest.n_obs)


def write_csv_long(path, data) -> None:
    """Write a batch in the long format, cells in canonical (row-major) order."""
    batch = as_batch(data)
    rows = ((*(i + 1 for i in idx), value) for idx, value in np.ndenumerate(batch))
    write_csv_table(path, _csv_long_header(batch.ndim - 1), rows)


def write_bin_f64(path, data) -> None:
    batch = as_batch(data)
    with _output(path, binary=True) as fh:
        # the array's own buffer, not tofile(fh): that asks a pipe for a position
        fh.write(np.ascontiguousarray(batch, dtype="<f8").data)


# --- fit result documents ---------------------------------------------------------


def _mat(a) -> list:
    """An array as nested lists of Python floats, the JSON form of every matrix."""
    return np.asarray(a, dtype=np.float64).tolist()


def _record_json(record) -> dict:
    """A factor record's JSON block: its dataclass fields, or for a tuple of
    per-group records, their blocks under ``groups``."""
    if isinstance(record, tuple):
        return {"groups": [_record_json(r) for r in record]}
    return {f.name: _mat(getattr(record, f.name)) for f in fields(record)}


def result_document(
    model: MixtureModel,
    report: FitReport,
    options: FitOptions,
    manifest: DatasetManifest | None = None,
) -> dict:
    """Assemble the JSON-serializable record of one fit."""
    dims = model.dims
    doc = {
        "version": __version__,
        "dims": list(dims),
        "n_obs": int(report.responsibilities.shape[0]),
        "n_groups": model.n_groups,
        "scale_models": [s.value for s in model.specs],
        "weights": [float(w) for w in model.weights],
        "groups": [
            {
                "mean_matricization": _mat(matricize_mode1(comp.mean)),
                "scales": [_mat(s) for s in comp.scales],
            }
            for comp in model.components
        ],
        "factors": {
            str(dim): {"family": model.specs[dim - 1].value, **_record_json(rec)}
            for dim, rec in sorted(model.factors.items())
        },
        "labels": [int(v) for v in report.labels],
        "responsibilities": _mat(report.responsibilities),
        "loglik_trace": [float(v) for v in report.loglik_trace],
        "loglik": report.loglik,
        "bic": float(report.bic),
        "rho": int(report.rho),
        "converged": bool(report.converged),
        "n_iterations": int(report.n_iterations),
        "singular_events": [
            {"group": e.group, "dim": e.dim, "iteration": e.iteration}
            for e in report.singular_events
        ],
        "config": {  # every FitOptions field, as FitOptions(**config) reads it back
            **asdict(options),
            "seed": list(options.seed) if isinstance(options.seed, tuple) else options.seed,
        },
    }
    if manifest is not None:
        doc["manifest"] = manifest.to_dict()
    return doc


def write_result(doc: dict, path) -> None:
    _write_json(doc, path)


def read_result(path) -> tuple[MixtureModel, FitReport, dict]:
    """Rebuild (model, report, config echo) from a written result document.

    The model derives its factor records from the stored scales, as every
    model does; the stored ``factors`` block is only type-checked.  Invalid
    JSON, a missing field, a report field of the wrong JSON type (such as
    ``"n_iterations": "5"``), an array entry that is not a JSON number
    (labels: not a JSON integer; a boolean is neither), a value the model
    rejects (such as an unknown family token in ``scale_models``, or a scale
    holding ``NaN``) or a ``config`` echo that :class:`FitOptions` rejects
    raises :class:`DataFormatError` naming the file.
    """
    doc = _read_json(path, "result")
    try:
        try:
            dims = _items(doc["dims"])
        except TypeError:
            raise DataFormatError(f"dims must be a list of integers, got {doc['dims']!r}") from None
        unfolded = (int(np.prod(dims[1:])), dims[0])
        means, scales = [], []
        for gdoc in doc["groups"]:
            mat = np.asarray(_entries(gdoc, "mean_matricization"), dtype=np.float64)
            if mat.shape != unfolded:
                raise DataFormatError(
                    f"mean_matricization of dims {dims} must have shape {unfolded}, "
                    f"got {mat.shape}"
                )
            means.append(mat.T.reshape(dims))
            scales.append(_entries(gdoc, "scales"))
        # a group with a scale too many or too few sets the count the model checks
        count = next((len(s) for s in scales if len(s) != len(dims)), len(dims))
        for rec in doc["factors"].values():  # checked only: the model derives its records
            for name in sorted(rec.keys() - {"family"}):
                _entries(rec, name)
        model = MixtureModel(
            weights=np.asarray(_entries(doc, "weights"), dtype=np.float64),
            means=np.reshape(means, (len(means), *dims)),
            scales=[[s[d] for s in scales if d < len(s)] for d in range(count)],
            specs=tuple(doc["scale_models"]),
        )
        report = FitReport(
            loglik_trace=np.asarray(_entries(doc, "loglik_trace"), dtype=np.float64),
            converged=doc["converged"],
            n_iterations=doc["n_iterations"],
            singular_events=[
                SingularEvent(group=e["group"], dim=e["dim"], iteration=e["iteration"])
                for e in doc["singular_events"]
            ],
            rho=doc["rho"],
            bic=doc["bic"],
            labels=np.asarray(_entries(doc, "labels", "integers", _integer), dtype=np.int64),
            responsibilities=np.asarray(_entries(doc, "responsibilities"), dtype=np.float64),
        )
        _convert_field(report, "converged", "a boolean", _boolean)
        for name in ("n_iterations", "rho"):
            _convert_field(report, name, "an integer", _integer)
        _convert_field(report, "bic", "a number", lambda v: float(_number(v)))
        for event in report.singular_events:
            _convert_field(  # None marks a matrix shared across groups
                event, "group", "an integer or null", lambda v: None if v is None else _integer(v)
            )
            for name in ("dim", "iteration"):
                _convert_field(event, name, "an integer", _integer)
        FitOptions(**doc["config"])  # checked only: the echo is returned as written
        return model, report, doc["config"]
    except KeyError as exc:
        raise DataFormatError(f"result {path}: missing field {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError, DataFormatError) as exc:
        raise DataFormatError(f"result {path}: {exc}") from None


def write_labels_csv(path, labels, responsibilities) -> None:
    """Labels CSV: obs_id, 1-based MAP label, z_1..z_G responsibilities."""
    labels = np.asarray(labels)
    z = np.asarray(responsibilities, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != labels.shape[0]:
        raise ValueError("responsibilities must be (N, G) matching labels")
    header = ["obs_id", "map_label", *(f"z_{g + 1}" for g in range(z.shape[1]))]
    rows = ((i + 1, int(label) + 1, *zi) for i, (label, zi) in enumerate(zip(labels, z)))
    write_csv_table(path, header, rows)


def read_labels_csv(path) -> np.ndarray:
    """MAP labels (0-based) from a labels CSV whose obs_ids are 1..N, each once."""
    with _reading(path) as fh:
        records = _records(path, fh)
        _, header = next(records, (1, None))
        if header is None or header[:2] != ["obs_id", "map_label"]:
            raise DataFormatError(f"{path}: expected a labels CSV header")
        rows = []
        for lineno, row in records:
            try:
                if row:
                    rows.append((int(row[0]), int(row[1])))
            except (IndexError, ValueError):
                msg = f"expected an integer obs_id and map_label, got {row!r}"
                raise DataFormatError(f"{path}: row {lineno}: {msg}") from None
    ids = Counter(obs for obs, _ in rows)
    duplicate = next((obs for obs, _ in rows if ids[obs] > 1), None)
    if duplicate is not None:
        raise DataFormatError(f"{path}: obs_id {duplicate} appears {ids[duplicate]} times")
    missing = next((obs for obs in range(1, len(rows) + 1) if obs not in ids), None)
    if missing is not None:
        raise DataFormatError(f"{path}: obs_id {missing} is missing (expected 1..{len(rows)})")
    rows.sort()
    return np.asarray([lbl - 1 for _, lbl in rows], dtype=np.int64)


__all__ = [
    "DatasetManifest",
    "load_dataset",
    "read_labels_csv",
    "read_manifest",
    "read_result",
    "result_document",
    "write_bin_f64",
    "write_csv_long",
    "write_labels_csv",
    "write_manifest",
    "write_result",
]
