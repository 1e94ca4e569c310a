"""
On-disk formats and the command line
====================================

The ``tmclust`` command reads a small JSON manifest that describes the
array dimensions and points at the data file (long CSV or raw float64).
This script writes a dataset, then drives the CLI entry point directly --
each call is exactly what the shell command of the same name would do.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from tmclust.cli import main
from tmclust.io import DatasetManifest, write_csv_long, write_manifest
from tmclust.mlnd import MlndParams, sample

rng = np.random.default_rng(7)
dims = (3, 2)
labels = np.repeat([0, 1, 2], 15)
batch = np.stack(
    [
        sample(MlndParams(mean=np.full(dims, 4.0 * g),
                          scales=tuple(np.eye(n) for n in dims)), rng)
        for g in labels
    ]
)

work = Path(tempfile.mkdtemp(prefix="tmclust_demo_"))
write_csv_long(work / "arrays.csv", batch)
write_manifest(
    DatasetManifest(dims=dims, n_obs=45, data="arrays.csv", format="csv-long"),
    work / "arrays.json",
)
print("wrote", work / "arrays.json")
print("first CSV rows:")
print("\n".join((work / "arrays.csv").read_text().splitlines()[:4]))

print("\n$ tmclust fit --manifest arrays.json --groups 3 "
      "--out fit.json --labels-out labels.csv")
main(["fit", "--manifest", str(work / "arrays.json"), "--groups", "3",
      "--seed", "1", "--out", str(work / "fit.json"),
      "--labels-out", str(work / "labels.csv")])

doc = json.loads((work / "fit.json").read_text())
print("result keys:", sorted(doc)[:8], "...")
print("fitted weights:", [round(w, 3) for w in doc["weights"]])

print("\n$ tmclust scan --manifest arrays.json --groups 2..4 "
      "--threads 2 --out scan.csv")
main(["scan", "--manifest", str(work / "arrays.json"), "--groups", "2..4",
      "--threads", "2", "--out", str(work / "scan.csv")])
print((work / "scan.csv").read_text().strip())

print("\n$ tmclust metrics --labels-a labels.csv --labels-b labels.csv")
main(["metrics", "--labels-a", str(work / "labels.csv"),
      "--labels-b", str(work / "labels.csv")])
