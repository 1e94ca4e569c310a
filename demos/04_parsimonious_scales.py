"""
Parsimonious scale families
===========================

Each dimension's scale matrix can be constrained to spend fewer parameters:

  token      structure                                   scale count per dim
  VVV        unstructured SPD, one per group             G n(n+1)/2
  MCD-VVI    group Cholesky factor T_g, isotropic delta  G (n(n-1)/2 + 1)
  MCD-EVI    shared T, group deltas                      n(n-1)/2 + G
  EEE        one SPD matrix shared by all groups         n(n+1)/2
  VVI-GPCM   group diagonal = scale * shape              G n

Families mix freely across dimensions.  The fit below uses a different
family on each of the three dimensions and compares parameter counts.
"""

import numpy as np

from tmclust.em import FitOptions, fit
from tmclust.mlnd import MlndParams, sample
from tmclust.parsimony import ScaleModel, free_params

rng = np.random.default_rng(4)
dims = (4, 3, 2)
labels = np.repeat([0, 1], 40)
batch = np.stack(
    [
        sample(MlndParams(mean=np.full(dims, 3.0 * g),
                          scales=tuple(np.eye(n) for n in dims)), rng).array
        for g in labels
    ]
)

specs = (ScaleModel.MCD_VVI, ScaleModel.GPCM_EEE, ScaleModel.GPCM_VVI)
model, report = fit(batch, 2, specs=specs, options=FitOptions(seed=0))

print("families:", [s.value for s in specs])
print("converged:", report.converged, "| loglik:", round(report.loglik, 2))

full = free_params((ScaleModel.VVV,) * 3, n_groups=2, dims=dims)
thin = free_params(specs, n_groups=2, dims=dims)
print("free parameters, all-VVV:    ", full.total)
print("free parameters, constrained:", thin.total)
print("per-dimension scale counts:  ", thin.per_dim)

# the factor records behind the constrained dimensions are exposed:
# dimension 1 stores a unit-lower T and an innovation variance per group
for g, rec in enumerate(model.factors[1]):
    print("dim 1 group %d: delta = %.4f, T lower entry = %.4f"
          % (g, rec.delta, rec.t[1, 0]))

# dimension 3 stores a diagonal shape with unit geometric mean per group
for g, rec in enumerate(model.factors[3]):
    print("dim 3 group %d: scale = %.4f, shape = %s"
          % (g, rec.scale, np.round(rec.shape, 3)))
    assert abs(np.exp(np.mean(np.log(rec.shape))) - 1.0) < 1e-12
