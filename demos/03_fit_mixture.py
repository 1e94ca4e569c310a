"""
Fitting a mixture to array-valued observations
==============================================

Sixty synthetic 4x3x2 arrays from two well-separated groups, clustered by
EM with unstructured per-dimension scales.
"""

import numpy as np

from tmclust.em import FitOptions, fit
from tmclust.metrics import adjusted_rand_index
from tmclust.mlnd import MlndParams, sample

rng = np.random.default_rng(3)
dims = (4, 3, 2)

truth = [
    MlndParams(mean=np.zeros(dims), scales=tuple(np.eye(n) for n in dims)),
    MlndParams(mean=np.full(dims, 2.5), scales=tuple(0.5 * np.eye(n) for n in dims)),
]
labels = np.repeat([0, 1], 30)
# size=30 draws a group's 30 observations as one (30, 4, 3, 2) batch
batch = np.concatenate([sample(comp, rng, size=30) for comp in truth])

model, report = fit(batch, n_groups=2, options=FitOptions(seed=42))

print("converged:      ", report.converged)
print("iterations:     ", report.n_iterations)
print("log likelihood: ", round(report.loglik, 2))
print("BIC:            ", round(report.bic, 2))
print("weights:        ", np.round(model.weights, 3))
print("ARI vs truth:   ", adjusted_rand_index(report.labels, labels))

# the trace is non-decreasing -- each EM sweep improves the fit
trace = np.asarray(report.loglik_trace)
print("monotone trace: ", bool(np.all(np.diff(trace) >= -1e-9)))

# estimated group means are arrays of shape dims
est_mean = model.components[0].mean
which = int(np.argmin([np.abs(est_mean).sum(), np.abs(est_mean - 2.5).sum()]))
print("component 0 recovers the group-%d mean to %.3f (max abs error)"
      % (which, np.abs(est_mean - which * 2.5).max()))

# responsibilities are the soft version of the labels
print("hardest observation still has z =",
      round(float(report.responsibilities.max(axis=1).min()), 4))
