"""Command-line entry points: fit, scan, simulate, metrics.

Exit codes: 0 success, 1 input or usage error, 2 completed with warnings
(non-convergence, all scan cells failed) or aborted (a fit by a degeneracy,
a scan or study because a pool worker died).
Every command is deterministic given its flags; ``--threads`` (default from
``TMCLUST_THREADS``, else 1) changes wall time only, never results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from ._version import __version__
from .em import FitOptions, fit
from .errors import DataFormatError, TmclustError
from .io import (
    _read_json,
    load_dataset,
    read_labels_csv,
    read_manifest,
    result_document,
    write_labels_csv,
    write_result,
)
from .metrics import adjusted_rand_index, rand_index, relative_error
from .parsimony import ScaleModel
from .selection import ScanGrid, scan, write_bic_table
from .simulate import (
    default_study,
    full_study,
    load_study,
    run_study,
    write_report_csvs,
    write_report_json,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise _UsageError(message)


def _default_threads() -> int:
    raw = os.environ.get("TMCLUST_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"TMCLUST_THREADS must be an integer, got {raw!r}")


def _parse_groups(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse --groups value {text!r}") from None


def _parse_grid_spec(value: str | None, order: int):
    """Per-dimension candidate tokens: inline 'VVV,EEE;VVV;...' or a JSON file."""
    if value is None:
        return tuple((ScaleModel.VVV,) for _ in range(order))
    if os.path.exists(value):
        return _read_json(value, "grid file", _UsageError)
    return [[t for t in part.split(",") if t.strip()] for part in value.split(";")]


def _parse_seed(text: str):
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"--seed must be an integer or comma list, got {text!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _options_from(args) -> FitOptions:
    return FitOptions(
        max_iterations=args.max_iter,
        aitken_epsilon=args.tol,
        reg_epsilon=args.reg_eps,
        seed=args.seed,
    )


def _check_out_dirs(*paths) -> None:
    """Fail before any work when an output path's directory does not exist."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise _UsageError(f"cannot write {path}: no directory {os.path.dirname(path)}")


def _load(args):
    manifest = read_manifest(args.manifest)  # read once: it may be a pipe
    return manifest, load_dataset(args.manifest, data_path=args.data, manifest=manifest)


# --- commands ----------------------------------------------------------------


def cmd_fit(args) -> int:
    _check_out_dirs(args.out, args.labels_out)
    manifest, data = _load(args)
    specs = [t for t in args.scale_models.split(",") if t.strip()] if args.scale_models else None
    options = _options_from(args)
    model, report = fit(data, args.groups, specs=specs, options=options)
    doc = result_document(model, report, options, manifest=manifest)
    write_result(doc, args.out)
    if args.labels_out:
        write_labels_csv(args.labels_out, report.labels, report.responsibilities)
    print(
        json.dumps(
            {
                "loglik": report.loglik,
                "bic": report.bic,
                "converged": report.converged,
                "n_iterations": report.n_iterations,
                "singular_events": len(report.singular_events),
                "out": args.out,
            }
        )
    )
    return 0 if report.converged else 2


def cmd_scan(args) -> int:
    _check_out_dirs(args.out, args.best)
    manifest, data = _load(args)
    groups = _parse_groups(args.groups)
    candidates = _parse_grid_spec(args.scale_models_grid, len(manifest.dims))
    options = _options_from(args)
    grid = ScanGrid(groups=groups, spec_candidates=candidates, options=options)
    result = scan(data, grid, threads=args.threads, keep_models=bool(args.best))
    write_bic_table(result, args.out)
    if result.best is not None and args.best:
        row = result.best
        write_result(
            result_document(row.model, row.report, row.options, manifest=manifest), args.best
        )
    n_ok = sum(1 for r in result.rows if r.selectable)
    summary = {
        "cells": len(result.rows),
        "converged_cells": n_ok,
        "out": args.out,
    }
    if result.best is not None:
        summary["best"] = {
            "G": result.best.g,
            "scale_models": [s.value for s in result.best.specs],
            "bic": result.best.bic,
        }
    print(json.dumps(summary))
    return 0 if n_ok > 0 else 2


def cmd_simulate(args) -> int:
    _check_out_dirs(args.out)
    try:
        if args.full_study:
            configs = full_study()
        elif args.config:
            configs = load_study(args.config)
        else:
            configs = default_study()
        if args.replicates is not None:
            configs = tuple(replace(c, replicates=args.replicates) for c in configs)
    except (ValueError, TypeError, OSError) as exc:  # a JSONDecodeError is a ValueError
        raise _UsageError(f"invalid simulation config: {exc}") from None
    if args.csv_dir:  # a path that cannot be a directory fails here, not after the study
        os.makedirs(args.csv_dir, exist_ok=True)
    report = run_study(configs, workers=args.threads)
    write_report_json(report, args.out)
    if args.csv_dir:
        write_report_csvs(report, args.csv_dir)
    print(
        json.dumps(
            {
                "cells": len(report.cells),
                "replicates": len(report.records),
                "failed": sum(1 for r in report.records if r.error is not None),
                "mean_ari": report.overall["ari_all"]["mean"],
                "out": args.out,
            }
        )
    )
    return 0


def cmd_metrics(args) -> int:
    has_labels = args.labels_a is not None or args.labels_b is not None
    has_mats = args.est is not None or args.truth is not None
    if has_labels == has_mats:
        raise _UsageError("pass either --labels-a/--labels-b or --est/--truth")
    if has_labels:
        if args.labels_a is None or args.labels_b is None:
            raise _UsageError("--labels-a and --labels-b are both required")
        a = read_labels_csv(args.labels_a)
        b = read_labels_csv(args.labels_b)
        out = {
            "rand_index": rand_index(a, b),
            "adjusted_rand_index": adjusted_rand_index(a, b),
        }
    else:
        if args.est is None or args.truth is None:
            raise _UsageError("--est and --truth are both required")
        mats = []
        for path in (args.est, args.truth):
            try:
                mats.append(np.loadtxt(path, delimiter=",", ndmin=2))
            except (OSError, ValueError) as exc:
                raise _UsageError(f"cannot read matrix CSV {path}: {exc}") from None
            if not np.all(np.isfinite(mats[-1])):
                raise _UsageError(f"matrix CSV {path} holds a non-finite value")
        out = {"relative_error": relative_error(*mats)}
    print(json.dumps(out, allow_nan=False))
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tmclust", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tmclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--manifest", required=True, help="dataset manifest JSON")
        p.add_argument("--data", help="override the manifest's data file path")

    def add_fit_flags(p):
        p.add_argument("--max-iter", type=int, default=FitOptions.max_iterations)
        p.add_argument("--tol", type=float, default=FitOptions.aitken_epsilon,
                       help="Aitken epsilon")
        p.add_argument("--reg-eps", type=float, default=FitOptions.reg_epsilon)
        p.add_argument("--seed", type=_parse_seed, default=FitOptions.seed,
                       help="integer or comma list")

    p_fit = sub.add_parser("fit", help="fit one mixture model")
    add_data_flags(p_fit)
    p_fit.add_argument("--groups", type=int, required=True)
    p_fit.add_argument("--scale-models", help="comma list of per-dimension tokens")
    add_fit_flags(p_fit)
    p_fit.add_argument("--out", required=True, help="result JSON path")
    p_fit.add_argument("--labels-out", help="labels CSV path")
    p_fit.set_defaults(func=cmd_fit)

    p_scan = sub.add_parser("scan", help="BIC scan over group counts and families")
    add_data_flags(p_scan)
    p_scan.add_argument("--groups", required=True, help="range '2..5' or comma list")
    p_scan.add_argument(
        "--scale-models-grid",
        help="per-dimension candidates: 'VVV,EEE;VVV;...' or a JSON file",
    )
    add_fit_flags(p_scan)
    p_scan.add_argument("--threads", type=int, default=None)
    p_scan.add_argument("--out", required=True, help="BIC table CSV path")
    p_scan.add_argument("--best", help="best-model result JSON path")
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    p_sim.add_argument("--config", help="study JSON (single cell, list, or {cells: []})")
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--full-study", action="store_true")
    p_sim.add_argument("--out", required=True, help="report JSON path")
    p_sim.add_argument("--csv-dir", help="directory for replicates.csv / cells.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_met = sub.add_parser("metrics", help="compare labelings or matrices")
    p_met.add_argument("--labels-a")
    p_met.add_argument("--labels-b")
    p_met.add_argument("--est")
    p_met.add_argument("--truth")
    p_met.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", None) is None and args.command in ("scan", "simulate"):
            args.threads = _default_threads()
        return args.func(args)
    except (_UsageError, DataFormatError, ValueError, OSError) as exc:
        print(f"tmclust: error: {exc}", file=sys.stderr)
        return 1
    except TmclustError as exc:
        print(f"tmclust: aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
