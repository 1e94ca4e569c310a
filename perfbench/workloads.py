"""The benchmark's workloads: inputs made from a seed, one operation, its gate.

Every workload is driven in a closed loop by one caller.  A workload makes
``n_inputs`` inputs from its seed, and a run cycles through them in rounds, so
that one seed's input does not set the run's figures alone.  ``prepare`` makes
the inputs and, untimed, one reference output per input; ``op(k)`` is the
timed operation on input ``k``; ``check(out, k)`` returns the reasons an
output fails its correctness gate (an empty list when it passes).  A workload
with a ``pool_op`` also has that operation timed once, untraced, on input 0 in
traced runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter

import numpy as np

DEFAULT_SEED = 0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Stored reference values are compared exactly for discrete values and
# within this relative tolerance for floats, so that a change which moves
# fitted values by less still passes.
REFERENCE_RTOL = 1e-6
# EM monotonicity, as in the acceptance suite's criterion 3.
MONOTONE_RTOL = 1e-8
# At SNR 1 on 7^4 arrays the three groups are far apart; k-means plus EM
# recovers them exactly on every seed tried, so anything below this is a bug.
MIN_FIT_ARI = 0.9

_DATA_TAG = 1
_FIT_TAG = 2


def adjusted_rand_index(a, b) -> float:
    """ARI from the contingency table, independent of ``tmclust.metrics``."""
    a = np.asarray(a)
    b = np.asarray(b)
    pairs = Counter(zip(a.tolist(), b.tolist()))

    def comb2(n):
        return n * (n - 1) // 2

    index = sum(comb2(n) for n in pairs.values())
    rows = sum(comb2(n) for n in Counter(a.tolist()).values())
    cols = sum(comb2(n) for n in Counter(b.tolist()).values())
    total = comb2(len(a))
    expected = rows * cols / total
    top = (rows + cols) / 2
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def compare_reference(stored, actual, path="") -> list[str]:
    """Differences between stored and actual values (floats within REFERENCE_RTOL)."""
    if isinstance(stored, dict):
        if not isinstance(actual, dict) or set(stored) != set(actual):
            return [f"{path or 'value'}: keys differ"]
        out = []
        for key in sorted(stored):
            out += compare_reference(stored[key], actual[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(stored, list):
        if not isinstance(actual, list) or len(stored) != len(actual):
            return [f"{path}: length differs"]
        out = []
        for i, (s, a) in enumerate(zip(stored, actual)):
            out += compare_reference(s, a, f"{path}[{i}]")
        return out
    if isinstance(stored, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isclose(stored, actual, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} differs from stored {stored!r}"]
    if stored != actual or type(stored) is not type(actual):
        return [f"{path}: {actual!r} differs from stored {stored!r}"]
    return []


def load_reference(name: str):
    if not os.path.exists(REFERENCE_FILE):
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(name)


def write_reference(wl) -> int:
    """Store ``wl``'s reference values (default seed) in reference.json."""
    wl.prepare()
    doc = {}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as fh:
            doc = json.load(fh)
    doc[wl.name] = [wl.summary(ref) for ref in wl.references]
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _dataset(n_obs, dims, seed, k):
    """Input ``k`` of ``seed``: a 3-group batch at SNR 1 and its labels."""
    from tmclust.simulate import SimConfig, generate_dataset

    config = SimConfig(n_obs=n_obs, dims=dims, n_groups=3, replicates=1, snr=1.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _DATA_TAG, k]))
    batch, _truth, labels = generate_dataset(config, rng)
    return batch, labels


def _cli(argv) -> int:
    """Run ``tmclust.cli.main`` in this process, keeping what it prints out of ours."""
    import tmclust.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return tmclust.cli.main(argv)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    name = ""
    n_inputs = 1

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = int(seed)

    def check_stored(self, summary: dict, k: int) -> list[str]:
        """At the default seed, compare with the values stored in reference.json."""
        if self.seed != DEFAULT_SEED:
            return []
        stored = load_reference(self.name)
        if stored is None or len(stored) != self.n_inputs:
            return [f"no stored reference for the {self.n_inputs} inputs of {self.name}"]
        return compare_reference(stored[k], summary, f"input {k}")


class FitWorkload(Workload):
    """``tmclust.fit(batch, 3)`` with default options on a 7^4, N=180 batch."""

    name = "fit-7x4"
    dims = (7, 7, 7, 7)
    n_obs = 180
    n_groups = 3

    def prepare(self) -> None:
        import tmclust

        data = [_dataset(self.n_obs, self.dims, self.seed, k) for k in range(self.n_inputs)]
        self.batches = [batch for batch, _labels in data]
        self.labels = [labels for _batch, labels in data]
        self.options = tmclust.FitOptions(seed=(self.seed, _FIT_TAG))
        self.references = [self.op(k) for k in range(self.n_inputs)]  # also the warm-up

    def op(self, k: int):
        import tmclust

        return tmclust.fit(self.batches[k], self.n_groups, options=self.options)

    def summary(self, out) -> dict:
        _model, report = out
        return {
            "loglik": float(report.loglik),
            "bic": float(report.bic),
            "n_groups": int(report.responsibilities.shape[1]),
            "labels": [int(v) for v in report.labels],
        }

    def check(self, out, k: int) -> list[str]:
        _model, report = out
        problems = []
        if not report.converged:
            problems.append("fit did not converge")
        trace = [float(v) for v in report.loglik_trace]
        for i in range(1, len(trace)):
            if trace[i] < trace[i - 1] - MONOTONE_RTOL * abs(trace[i - 1]):
                problems.append(f"log-likelihood dropped at iteration {i + 1}")
                break
        ari = adjusted_rand_index(report.labels, self.labels[k])
        if ari < MIN_FIT_ARI:
            problems.append(f"ARI {ari:.4f} against the generating labels is below {MIN_FIT_ARI}")
        return problems + self.check_stored(self.summary(out), k)


class CliWorkload(Workload):
    """A CLI command whose output files must equal a ``--threads 1`` reference.

    An output is ``(exit code, tuple of output file contents)``.
    """

    outputs: tuple[str, ...] = ()  # what each output file is, for gate messages
    threads: int | None = None  # None: the CLI's default worker count

    def path(self, name: str, k: int) -> str:
        return os.path.join(self.workdir, f"input{k}", name)

    def prepare(self) -> None:
        self.references, self.reference_problems = [], []
        for k in range(self.n_inputs):
            os.makedirs(self.path("", k), exist_ok=True)
            self.write_inputs(k)
            ref = self.run_cli(k, 1, "ref")
            self.references.append(ref)
            if ref[0] != 0:
                self.reference_problems.append([f"--threads 1 reference exited {ref[0]}"])
            else:
                self.reference_problems.append(self.check_stored(self.summary(ref), k))

    def run_cli(self, k: int, threads: int | None, tag: str):
        argv, paths = self.command(k, tag)
        if threads is not None:
            argv += ["--threads", str(threads)]
        rc = _cli(argv)
        return rc, (tuple(_read(p) for p in paths) if rc == 0 else ())

    def op(self, k: int):
        return self.run_cli(k, self.threads, "op")

    def check(self, out, k: int) -> list[str]:
        rc, files = out
        if rc != 0:
            return [f"{self.name} exited {rc}"]
        problems = list(self.reference_problems[k])
        for label, got, want in zip(self.outputs, files, self.references[k][1]):
            if got != want:
                problems.append(f"{label} differs from the --threads 1 reference")
        return problems


class ScanCsvWorkload(CliWorkload):
    """``tmclust scan --threads 1`` on a csv-long manifest of an 8x6x5, N=150 batch.

    Four inputs: the overfit G=4 cells take 50 to 100 EM iterations
    depending on the batch, so one batch's scan takes up to 26 % more EM
    iterations than another's.  The same scan at ``--threads 2`` is too unsteady to time end to end on a
    2-core machine: each forked worker keeps a 2-thread BLAS pool, and run
    medians spread from 6.8 to 21.6 s.  Traced runs still time it once, as
    ``selection.pool_speedup``, and check its outputs against ``--threads 1``.
    """

    name = "scan-csv-serial"
    n_inputs = 4
    outputs = ("BIC table", "best-model JSON")
    threads = 1
    pool_threads = 2
    dims = (8, 6, 5)
    n_obs = 150
    groups = "1..4"
    grid = "VVV,EEE,VVI-GPCM;VVV,MCD-VVI,MCD-EVI;VVV"

    def write_inputs(self, k: int) -> None:
        batch, _labels = _dataset(self.n_obs, self.dims, self.seed, k)
        data = self.path("arrays.csv", k)
        with open(data, "w") as fh:
            fh.write("obs_id," + ",".join(f"i{k + 1}" for k in range(len(self.dims))) + ",value\n")
            for i in range(self.n_obs):
                for idx in np.ndindex(*self.dims):
                    cells = ",".join(str(k + 1) for k in idx)
                    fh.write(f"{i + 1},{cells},{float(batch[(i,) + idx])!r}\n")
        if k == 0:
            self.data_bytes = os.path.getsize(data)
        with open(self.path("manifest.json", k), "w") as fh:
            json.dump({"dims": list(self.dims), "n_obs": self.n_obs, "data": "arrays.csv",
                       "format": "csv-long"}, fh)

    def command(self, k: int, tag: str):
        paths = [self.path(f"bic_{tag}.csv", k), self.path(f"best_{tag}.json", k)]
        argv = [
            "scan", "--manifest", self.path("manifest.json", k), "--groups", self.groups,
            "--scale-models-grid", self.grid, "--seed", str(self.seed),
            "--out", paths[0], "--best", paths[1],
        ]
        return argv, paths

    def pool_op(self):
        return self.run_cli(0, self.pool_threads, "pool")

    def summary(self, out) -> dict:
        bic_table, best = out[1]
        doc = json.loads(best)
        rows = bic_table.decode().splitlines()[1:]
        return {
            "best_g": int(doc["n_groups"]),
            "best_scale_models": doc["scale_models"],
            "best_loglik": float(doc["loglik"]),
            "best_bic": float(doc["bic"]),
            "best_labels": doc["labels"],
            "cell_bic": [
                float(v) if v else None for v in (row.split(",")[-3] for row in rows)
            ],
        }


class StudyWorkload(CliWorkload):
    """``tmclust simulate --config`` at the default worker count, on two configs."""

    name = "study"
    n_inputs = 3
    outputs = ("report JSON",)
    cells = ({"n_obs": 60, "dims": [4, 4, 4, 4]}, {"n_obs": 120, "dims": [5, 5, 5, 5]})

    def write_inputs(self, k: int) -> None:
        doc = {"base_seed": self.seed * self.n_inputs + k, "n_groups": 3, "replicates": 2, "snr": 1.0,
               "g_scan": [2, 3, 4, 5], "cells": list(self.cells)}
        with open(self.path("study.json", k), "w") as fh:
            json.dump(doc, fh)

    def command(self, k: int, tag: str):
        out = self.path(f"report_{tag}.json", k)
        return ["simulate", "--config", self.path("study.json", k), "--out", out], [out]

    def summary(self, out) -> dict:
        doc = json.loads(out[1][0])
        return {
            "records": [
                {
                    "cell_index": r["cell_index"],
                    "replicate": r["replicate"],
                    "error": r["error"],
                    "selected_g": r["selected_g"],
                    "ari": r["ari"],
                    "n_singular_events": r["n_singular_events"],
                    "rel_err_scale": r["rel_err_scale"],
                }
                for r in doc["records"]
            ]
        }


WORKLOADS = {w.name: w for w in (FitWorkload, ScanCsvWorkload, StudyWorkload)}
