"""
Choosing the number of groups and the scale families by BIC
===========================================================

A scan fits every candidate cell (G, per-dimension families) and ranks the
converged fits by BIC = 2 loglik - rho log N, larger is better.
"""

import numpy as np

from tmclust.em import FitOptions
from tmclust.mlnd import MlndParams, sample
from tmclust.parsimony import ScaleModel
from tmclust.selection import ScanGrid, scan

rng = np.random.default_rng(5)
dims = (3, 3)
labels = np.repeat([0, 1, 2], 25)
batch = np.stack(
    [
        sample(MlndParams(mean=np.full(dims, 4.0 * g),
                          scales=tuple(np.eye(n) for n in dims)), rng)
        for g in labels
    ]
)

grid = ScanGrid(
    groups=(2, 3, 4),
    spec_candidates=(
        (ScaleModel.VVV, ScaleModel.GPCM_EEE),
        (ScaleModel.VVV, ScaleModel.GPCM_EEE),
    ),
    options=FitOptions(seed=9),
)

result = scan(batch, grid, threads=2)

print(f"{'G':>2} {'families':<12} {'rho':>4} {'loglik':>10} {'bic':>10}")
for row in result.rows:
    if not row.selectable:
        print(f"{row.g:>2} {'/'.join(s.value for s in row.specs):<12} failed:",
              row.error)
        continue
    print(f"{row.g:>2} {'/'.join(s.value for s in row.specs):<12}"
          f" {row.rho:>4} {row.loglik:>10.2f} {row.bic:>10.2f}")

best = result.best
print("\nselected: G =", best.g, "with",
      [s.value for s in best.specs], "| BIC =", round(best.bic, 2))

# ties go to the thriftier model; here the data are truly spherical so the
# pooled EEE families beat all-VVV even though VVV has the higher loglik
vvv = [r for r in result.rows
       if r.g == 3 and all(s is ScaleModel.VVV for s in r.specs)][0]
print("all-VVV at G=3 fits better raw (%.2f > %.2f) but scores worse"
      % (vvv.loglik, best.loglik) if vvv.loglik > best.loglik else
      "all-VVV at G=3 did not even out-fit the pooled model")
