"""Grid scans over group counts and scale families, ranked by BIC, and the
one process fan-out, which runs a scan's cells and a study's replicates."""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Sequence

from ._blas import one_blas_thread
from ._fields import _convert_field, _count, _items
from .em import FitOptions, FitReport, MixtureModel, bic, fit, free_params
from .errors import TmclustError
from .io import write_csv_table
from .mda import as_batch
from .parsimony import ScaleModel

_TIE_TOL = 1e-9
_FAMILY_ORDINAL = {m: i for i, m in enumerate(ScaleModel)}


@dataclass(frozen=True)
class ScanGrid:
    """Candidate group counts, per-dimension family lists, and fit options.

    ``spec_candidates`` holds one list of family tokens per dimension, such
    as ``[["VVV", "EEE"], ["VVV"]]``; a bare string is not such a list.
    """

    groups: tuple[int, ...]
    spec_candidates: tuple[tuple[ScaleModel, ...], ...]
    options: FitOptions = FitOptions()

    def __post_init__(self):
        _convert_field(self, "groups", "a list of integers", _items, ValueError)
        if not self.groups or any(g < 1 for g in self.groups):
            raise ValueError("groups must be a nonempty sequence of positive ints")
        _convert_field(
            self, "spec_candidates", "a list of family-token lists",
            lambda v: _items(v, lambda tokens: _items(tokens, ScaleModel.from_token)), ValueError,
        )
        if not self.spec_candidates or not all(self.spec_candidates):
            raise ValueError("every dimension needs a nonempty candidate list")

    def cells(self):
        """(G, specs) combinations in canonical order."""
        for g in self.groups:
            for combo in itertools.product(*self.spec_candidates):
                yield g, combo


@dataclass
class ScanRow:
    """Outcome of one (G, specs) cell, fitted with ``options`` (the cell's seed)."""

    g: int
    specs: tuple[ScaleModel, ...]
    loglik: float | None
    rho: int
    bic: float | None
    converged: bool
    n_singular_events: int
    error: str | None = None
    model: MixtureModel | None = None
    report: FitReport | None = None
    options: FitOptions | None = None

    @property
    def selectable(self) -> bool:
        return self.error is None and self.converged and self.bic is not None


@dataclass
class ScanResult:
    rows: list[ScanRow]
    best: ScanRow | None


def _cell_seed(base_seed, g: int, specs: Sequence[ScaleModel]) -> tuple[int, ...]:
    base = (base_seed,) if isinstance(base_seed, int) else tuple(base_seed)
    return base + (104729, g) + tuple(_FAMILY_ORDINAL[s] for s in specs)


_worker = None  # (fn, shared) of the fan-out a pool worker serves


def _start_worker(fn, shared) -> None:
    global _worker
    _worker = fn, shared


def _run_in_worker(task):
    fn, shared = _worker
    return fn(task, shared)


@one_blas_thread()
def _fan_out(fn, tasks, workers: int, shared=None) -> list:
    """``fn(task, shared)`` for each task, in task order: here for one worker
    or one task, else in a pool whose initializer hands ``shared`` to each
    worker once, not with every task.  Forked workers start in the scope of
    one BLAS thread and keep it; one that dies raises TmclustError."""
    if workers < 2 or len(tasks) < 2:
        return [fn(task, shared) for task in tasks]
    try:
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(fn, shared)) as pool:
            return list(pool.map(_run_in_worker, tasks))
    except BrokenProcessPool as exc:
        raise TmclustError(f"a worker process died: {exc}") from exc


def _run_cell(task, batch) -> ScanRow:
    g, specs, options, keep_models = task
    rho = free_params(specs, g, batch.shape[1:]).total
    try:
        model, report = fit(batch, g, specs=specs, options=options)
    except Exception as exc:  # failed cells are recorded, never selected
        return ScanRow(
            g=g, specs=specs, options=options, loglik=None, rho=rho, bic=None,
            converged=False, n_singular_events=0, error=f"{type(exc).__name__}: {exc}",
        )
    return ScanRow(
        g=g,
        specs=specs,
        options=options,
        loglik=report.loglik,
        rho=report.rho,
        bic=report.bic,
        converged=report.converged,
        n_singular_events=len(report.singular_events),
        model=model if keep_models else None,
        report=report if keep_models else None,
    )


def _prefer(candidate: ScanRow, incumbent: ScanRow | None) -> bool:
    """Larger BIC wins; near-ties go to smaller rho, then smaller G."""
    if incumbent is None:
        return True
    gap = candidate.bic - incumbent.bic
    if gap > _TIE_TOL:
        return True
    if gap < -_TIE_TOL:
        return False
    if candidate.rho != incumbent.rho:
        return candidate.rho < incumbent.rho
    return candidate.g < incumbent.g


def scan(data, grid: ScanGrid, threads: int = 1, keep_models: bool = False) -> ScanResult:
    """Fit every (G, specs) cell of the grid and pick the BIC winner.

    Each cell runs with a seed derived deterministically from the grid
    options' base seed, G, and the family encoding, so the outcome is a pure
    function of (data, grid) regardless of ``threads``, the number of worker
    processes: an integer >= 1, or ValueError.  Cells that raise (degenerate
    G, collapsed components, ...) are recorded as failed rows; a worker
    process that dies raises TmclustError, and a grid with a candidate list
    for another number of dimensions than the data's raises ValueError.
    """
    threads = _count("threads", threads)
    batch = as_batch(data)
    tasks = [
        (g, specs, replace(grid.options, seed=_cell_seed(grid.options.seed, g, specs)), keep_models)
        for g, specs in grid.cells()
    ]
    rows = _fan_out(_run_cell, tasks, threads, batch)
    best = None
    for row in rows:
        if row.selectable and _prefer(row, best):
            best = row
    return ScanResult(rows=rows, best=best)


def write_bic_table(result: ScanResult, path) -> None:
    """Emit the scan rows as CSV: G, spec_d1.., loglik, rho, bic, converged, singular_events."""
    if not result.rows:
        raise ValueError("empty scan result")
    header = ["G", *(f"spec_d{i + 1}" for i in range(len(result.rows[0].specs))),
              "loglik", "rho", "bic", "converged", "singular_events"]
    rows = ((r.g, *(s.value for s in r.specs), r.loglik, r.rho, r.bic, r.converged,
             r.n_singular_events) for r in result.rows)
    write_csv_table(path, header, rows)


__all__ = ["ScanGrid", "ScanResult", "ScanRow", "bic", "scan", "write_bic_table"]
