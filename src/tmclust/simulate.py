"""Monte-Carlo study harness: data generation, replicate tasks, reports.

A study is a list of cells (sample size x array dims); every replicate draws
a fresh mixture, runs a BIC scan over candidate group counts, and records
selection, agreement, singularity, and parameter-recovery summaries.  Seeds
are derived per (cell, replicate) from counter-based ``SeedSequence`` spawns,
so results are a pure function of the configuration — independent of worker
count or scheduling.  Replicates run through the process fan-out that runs
a scan's cells.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from ._fields import _convert_field, _count, _integer, _items, _number
from .em import FitOptions, MixtureModel, _normalize_stacks
from .io import _read_json, _write_json, write_csv_table
from .metrics import adjusted_rand_index, kron_relative_error, relative_error
from .mlnd import sample
from .parsimony import ScaleModel
from .selection import ScanGrid, _fan_out, scan

# Stream tags keeping data generation and fitting on disjoint seed paths.
_DATA_STREAM = 11
_FIT_STREAM = 13


@dataclass(frozen=True)
class SimConfig:
    """One study cell: sample size, array dims, and generator settings."""

    n_obs: int = 60
    dims: tuple[int, ...] = (4, 4, 4, 4)
    n_groups: int = 3
    replicates: int = 25
    snr: float = 1.0
    condition_cap: float = 10.0
    base_seed: int = 0
    g_scan: tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self):
        for name in ("n_obs", "n_groups", "replicates", "base_seed"):
            _convert_field(self, name, "an integer", _integer, ValueError)
        for name in ("dims", "g_scan"):
            _convert_field(self, name, "a list of integers", _items, ValueError)
        for name in ("snr", "condition_cap"):
            _convert_field(self, name, "a number", _number, ValueError)
        if len(self.dims) < 2 or any(n < 1 for n in self.dims):
            raise ValueError("dims must have order >= 2 with positive extents")
        if self.n_groups < 2:  # one group has no between-group signal to scale to the SNR
            raise ValueError(f"n_groups must be >= 2, got {self.n_groups}")
        if self.n_obs < 1 or self.n_obs % self.n_groups != 0:
            raise ValueError("n_obs must be a positive multiple of n_groups (equal groups)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if not self.snr > 0:
            raise ValueError("snr must be > 0")
        if not self.condition_cap >= 1:
            raise ValueError("condition_cap must be >= 1")
        if not self.g_scan or any(g < 1 for g in self.g_scan):
            raise ValueError("g_scan must be a nonempty list of positive ints")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(**d)


def default_study(base_seed: int = 0, replicates: int = 25) -> tuple[SimConfig, ...]:
    """Desk-scale grid: all sample sizes, only the two smallest array sizes."""
    return tuple(
        SimConfig(n_obs=n, dims=dims, replicates=replicates, base_seed=base_seed)
        for n in (60, 90, 120, 180)
        for dims in ((4, 4, 4, 4), (5, 5, 5, 5))
    )


def full_study(base_seed: int = 0, replicates: int = 250) -> tuple[SimConfig, ...]:
    """The complete grid: four sample sizes x four array sizes.  One replicate
    of its 16 cells took 1.0-1.1 s on a 2-vCPU Intel Xeon VM (numpy 2.4.6,
    OpenBLAS 0.3.31): the default 250 take 4 to 5 minutes on one worker."""
    return tuple(
        SimConfig(n_obs=n, dims=(m, m, m, m), replicates=replicates, base_seed=base_seed)
        for n in (60, 90, 120, 180)
        for m in (4, 5, 6, 7)
    )


def load_study(source) -> tuple[SimConfig, ...]:
    """Normalize a JSON study document into a tuple of cell configs.

    Accepts a single config object, a list of config objects, or a document
    ``{"cells": [{...}, ...], <shared fields>}`` where each cell entry
    overrides the shared fields; a path names a UTF-8 JSON file holding one.
    """
    if isinstance(source, (str, os.PathLike)):
        source = _read_json(source, "study", ValueError)
    if isinstance(source, list):
        return tuple(SimConfig.from_dict(d) for d in source)
    if not isinstance(source, dict):
        raise ValueError("study document must be a JSON object or list")
    if "cells" in source:
        shared = {k: v for k, v in source.items() if k != "cells"}
        return tuple(SimConfig.from_dict({**shared, **cell}) for cell in source["cells"])
    return (SimConfig.from_dict(source),)


# --- generators ----------------------------------------------------------------


def random_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with a positive-diagonal R."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.where(np.diag(r) >= 0, 1.0, -1.0)
    return q * signs


def random_scale_matrix(n: int, condition_cap: float, rng) -> np.ndarray:
    """Random SPD matrix with eigenvalues spread geometrically over [1, cap].

    The spectrum is fixed (a permuted geometric grid), so the condition
    number equals ``condition_cap`` exactly for n >= 2 and the draw cannot
    be accidentally near-singular; only the eigenbasis is random.
    """
    if n == 1:
        return np.array([[1.0]])
    eigs = rng.permutation(np.geomspace(1.0, condition_cap, n))
    q = random_orthogonal(n, rng)
    out = (q * eigs) @ q.T
    return (out + out.T) / 2.0


def generate_dataset(config: SimConfig, rng) -> tuple[np.ndarray, MixtureModel, np.ndarray]:
    """Draw one dataset: equal-sized groups, random means and scales.

    Group means are iid standard-normal arrays, then rescaled about their
    grand mean so that the between-group signal (mean squared deviation of
    mean entries from the grand mean) over the average noise level (product
    over dimensions of the mean scale diagonal, averaged across groups)
    equals ``config.snr``.

    Returns ``(batch, truth, labels)`` with the batch in label-block order
    and the truth identifiability-normalized.
    """
    g = config.n_groups
    dims = config.dims
    per = config.n_obs // g

    scales = [
        tuple(random_scale_matrix(n, config.condition_cap, rng) for n in dims)
        for _ in range(g)
    ]
    means = rng.standard_normal((g,) + dims)
    grand = means.mean(axis=0)
    signal = float(np.mean((means - grand[None]) ** 2))
    noise = float(
        np.mean([np.prod([np.mean(np.diag(s)) for s in group]) for group in scales])
    )
    if signal <= 0:
        raise RuntimeError("degenerate mean draw: no between-group signal")
    means = grand[None] + np.sqrt(config.snr * noise / signal) * (means - grand[None])

    stacks = _normalize_stacks([np.stack(dim) for dim in zip(*scales)])
    truth = MixtureModel(np.full(g, 1.0 / g), means, stacks)
    labels = np.repeat(np.arange(g), per)
    batch = np.concatenate([sample(comp, rng, size=per) for comp in truth.components])
    return batch, truth, labels


# --- replicate records -----------------------------------------------------------


@dataclass
class ReplicateRecord:
    """Outcome of one replicate; ``error`` set means the rest is undefined."""

    cell_index: int
    n_obs: int
    dims: tuple[int, ...]
    replicate: int
    error: str | None = None
    selected_g: int | None = None
    true_g_selected: bool | None = None
    ari: float | None = None
    singular: bool | None = None
    n_singular_events: int | None = None
    rel_err_mean: tuple[float, ...] | None = None
    rel_err_scale: tuple[float, ...] | None = None


def _best_permutation(true_labels, est_labels, g: int) -> tuple[int, ...]:
    """Bijection est-group = perm[true-group] maximizing contingency overlap;
    of several optima, the lexicographically first.

    An exact dynamic programme over subsets of estimated groups, O(2^G G)
    instead of G! permutations: ``rest[used]`` is the best overlap of the
    true groups popcount(used)..G-1 with the estimated groups not in ``used``.
    """
    true, est = (np.asarray(x, dtype=np.int64) for x in (true_labels, est_labels))
    keep = (est >= 0) & (est < g)
    table = np.zeros((g, g), dtype=np.int64)
    np.add.at(table, (true[keep], est[keep]), 1)
    table = table.tolist()
    rest = [0] * (1 << g)
    for used in range((1 << g) - 2, -1, -1):
        row = table[used.bit_count()]
        rest[used] = max(
            row[e] + rest[used | 1 << e] for e in range(g) if not used >> e & 1
        )
    perm, used = [], 0
    for row in table:
        e = next(
            e for e in range(g)
            if not used >> e & 1 and row[e] + rest[used | 1 << e] == rest[used]
        )
        perm.append(e)
        used |= 1 << e
    return tuple(perm)


def _run_replicate(task, options: FitOptions) -> ReplicateRecord:
    cfg, cell_index, rep = task
    record = ReplicateRecord(
        cell_index=cell_index, n_obs=cfg.n_obs, dims=cfg.dims, replicate=rep
    )
    try:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.base_seed, _DATA_STREAM, cell_index, rep])
        )
        batch, truth, labels = generate_dataset(cfg, rng)
        grid = ScanGrid(
            groups=cfg.g_scan,
            spec_candidates=tuple((ScaleModel.VVV,) for _ in cfg.dims),
            options=replace(options, seed=(cfg.base_seed, _FIT_STREAM, cell_index, rep)),
        )
        result = scan(batch, grid, threads=1, keep_models=True)
        if result.best is None:
            record.error = "no scan cell converged"
            return record
        best = result.best
        record.selected_g = best.g
        record.true_g_selected = best.g == cfg.n_groups
        record.ari = float(adjusted_rand_index(best.report.labels, labels))
        record.n_singular_events = best.n_singular_events
        record.singular = best.n_singular_events > 0

        true_row = next((r for r in result.rows if r.g == cfg.n_groups), None)
        if true_row is not None and true_row.model is not None:
            perm = _best_permutation(labels, true_row.report.labels, cfg.n_groups)
            fitted = true_row.model.components  # built anew on each access
            pairs = [(fitted[p], t) for p, t in zip(perm, truth.components)]
            record.rel_err_mean = tuple(float(relative_error(e.mean, t.mean)) for e, t in pairs)
            record.rel_err_scale = tuple(
                float(kron_relative_error(e.scales, t.scales)) for e, t in pairs
            )
    except Exception as exc:  # record, never abort the study
        record.error = f"{type(exc).__name__}: {exc}"
    return record


# --- aggregation ----------------------------------------------------------------


def _stratum(values: Sequence[float]) -> dict:
    """n / sum / mean / sd summary; sums are kept so strata reconcile exactly."""
    n = len(values)
    total = float(sum(values))
    mean = total / n if n else None
    sd = float(np.std(values, ddof=1)) if n >= 2 else None
    return {"n": n, "sum": total, "mean": mean, "sd": sd}


def _combine_strata(parts: Sequence[dict]) -> dict:
    """Pool strata by adding counts and sums, so totals reconcile exactly."""
    n = sum(p["n"] for p in parts)
    total = float(sum(p["sum"] for p in parts))
    return {"n": n, "sum": total, "mean": total / n if n else None, "sd": None}


@dataclass
class CellSummary:
    cell_index: int
    n_obs: int
    dims: tuple[int, ...]
    n_star: int
    n_replicates: int
    n_failed: int
    share_true_g: float | None
    ari_singular: dict = field(default_factory=dict)
    ari_non_singular: dict = field(default_factory=dict)
    ari_all: dict = field(default_factory=dict)
    rel_err_mean_by_group: tuple[float, ...] | None = None
    rel_err_scale_by_group: tuple[float, ...] | None = None


@dataclass
class StudyReport:
    configs: tuple[SimConfig, ...]
    records: list[ReplicateRecord]
    cells: list[CellSummary]
    overall: dict

    def to_dict(self) -> dict:
        return {
            "configs": [c.to_dict() for c in self.configs],
            "records": [asdict(r) for r in self.records],
            "cells": [asdict(c) for c in self.cells],
            "overall": self.overall,
        }


def _summarize_cell(index: int, cfg: SimConfig, records: list[ReplicateRecord]) -> CellSummary:
    ok = [r for r in records if r.error is None]
    singular = [r.ari for r in ok if r.singular]
    clean = [r.ari for r in ok if not r.singular]

    def _mean_by_group(attr: str):
        rows = [getattr(r, attr) for r in ok if not r.singular and getattr(r, attr) is not None]
        if not rows:
            return None
        arr = np.asarray(rows, dtype=np.float64)
        return tuple(float(v) for v in arr.mean(axis=0))

    s_sing = _stratum(singular)
    s_clean = _stratum(clean)
    s_all = _combine_strata([s_sing, s_clean])
    both = singular + clean
    s_all["sd"] = float(np.std(both, ddof=1)) if len(both) >= 2 else None
    return CellSummary(
        cell_index=index,
        n_obs=cfg.n_obs,
        dims=cfg.dims,
        n_star=int(np.prod(cfg.dims)),
        n_replicates=len(records),
        n_failed=len(records) - len(ok),
        share_true_g=(sum(1 for r in ok if r.true_g_selected) / len(ok)) if ok else None,
        ari_singular=s_sing,
        ari_non_singular=s_clean,
        ari_all=s_all,
        rel_err_mean_by_group=_mean_by_group("rel_err_mean"),
        rel_err_scale_by_group=_mean_by_group("rel_err_scale"),
    )


def run_study(configs, options: FitOptions | None = None, workers: int = 1) -> StudyReport:
    """Run every replicate of every cell and aggregate a stratified report.

    ``workers``, an integer >= 1 (otherwise ValueError), is the number of
    processes; above 1 it fans replicates out to a process pool, and a worker
    that dies raises TmclustError.  Every replicate derives its own seeds from
    (base_seed, cell, replicate), so the report is the same for any count.
    """
    workers = _count("workers", workers)
    configs = (configs,) if isinstance(configs, SimConfig) else tuple(configs)
    if not configs:
        raise ValueError("need at least one cell config")
    tasks = [(cfg, i, rep) for i, cfg in enumerate(configs) for rep in range(cfg.replicates)]
    records = _fan_out(_run_replicate, tasks, workers, options or FitOptions())

    cells = [
        _summarize_cell(i, cfg, [r for r in records if r.cell_index == i])
        for i, cfg in enumerate(configs)
    ]
    overall = {
        "ari_singular": _combine_strata([c.ari_singular for c in cells]),
        "ari_non_singular": _combine_strata([c.ari_non_singular for c in cells]),
    }
    overall["ari_all"] = _combine_strata(
        [overall["ari_singular"], overall["ari_non_singular"]]
    )
    return StudyReport(configs=configs, records=records, cells=cells, overall=overall)


# --- writers ---------------------------------------------------------------------


def write_report_json(report: StudyReport, path) -> None:
    """Serialize the full report; deterministic bytes for a given report."""
    _write_json(report.to_dict(), path)


def write_report_csvs(report: StudyReport, directory) -> None:
    """Emit replicates.csv and cells.csv for spreadsheet or plotting use.

    Per-group error vectors are semicolon-joined in a single column so the
    layout does not depend on the group count.
    """
    os.makedirs(directory, exist_ok=True)
    names = [f.name for f in fields(ReplicateRecord)]
    write_csv_table(
        os.path.join(directory, "replicates.csv"),
        names,
        (["x".join(map(str, r.dims)) if n == "dims" else getattr(r, n) for n in names]
         for r in report.records),
    )
    write_csv_table(
        os.path.join(directory, "cells.csv"),
        [
            "cell_index", "n_obs", "dims", "n_star", "n_replicates", "n_failed",
            "share_true_g", "ari_mean", "ari_sd", "n_singular",
            "ari_mean_singular", "ari_mean_non_singular",
            "rel_err_mean_by_group", "rel_err_scale_by_group",
        ],
        (
            [
                c.cell_index, c.n_obs, "x".join(map(str, c.dims)), c.n_star,
                c.n_replicates, c.n_failed, c.share_true_g, c.ari_all["mean"],
                c.ari_all["sd"], c.ari_singular["n"], c.ari_singular["mean"],
                c.ari_non_singular["mean"], c.rel_err_mean_by_group, c.rel_err_scale_by_group,
            ]
            for c in report.cells
        ),
    )


__all__ = [
    "CellSummary",
    "ReplicateRecord",
    "SimConfig",
    "StudyReport",
    "default_study",
    "full_study",
    "generate_dataset",
    "load_study",
    "random_orthogonal",
    "random_scale_matrix",
    "run_study",
    "write_report_csvs",
    "write_report_json",
]
