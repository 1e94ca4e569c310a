"""
The multilinear normal: log densities and sampling
==================================================

An order-D array is multilinear normal when its vectorization is Gaussian
with a Kronecker-product covariance: one small scale matrix per dimension
instead of one giant matrix for the whole array.  For a 10x10x10 array
that is 3 * 55 = 165 covariance parameters instead of 500500.
"""

from functools import reduce

import numpy as np

from tmclust.mda import vectorize
from tmclust.mlnd import MlndParams, log_density, log_density_batch, sample

rng = np.random.default_rng(2)

dims = (3, 4, 2)
mean = rng.standard_normal(dims)


def spd(n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


params = MlndParams(mean=mean, scales=tuple(spd(n) for n in dims))

# evaluate the log density of one observation
x = rng.standard_normal(dims)
print("log density:", log_density(x, params))

# the same number from the dense multivariate normal on vec(X) -- the
# package never builds this 24x24 matrix, but the answer agrees
sigma = reduce(np.kron, params.scales)
resid = vectorize(x) - vectorize(mean)
_, logdet = np.linalg.slogdet(sigma)
dense = -0.5 * (resid.size * np.log(2 * np.pi) + logdet
                + resid @ np.linalg.solve(sigma, resid))
print("dense check: ", dense)

# batches evaluate in one vectorized call
batch = rng.standard_normal((500,) + dims)
lls = log_density_batch(batch, params)
print("batch of 500 log densities, mean =", lls.mean())

# sampling: size=n returns the stacked (n, n_1, ..., n_D) batch, whose
# draws should reproduce the Kronecker covariance empirically
draws = sample(params, rng, size=20000)
vecs = draws.reshape(len(draws), -1)
emp = np.cov(vecs.T)
err = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
print("empirical covariance vs kron(scales), rel error:", round(err, 4))
