"""
Multidimensional arrays: matricization, vectorization, mode products
====================================================================

The basic currency of the package is a plain order-D numpy array, one per
observation, and a stacked (N, n_1, ..., n_D) array for a sample.
Everything downstream (densities, EM, simulation) is built on three
operations shown here: the mode-1 matricization, the matching
vectorization, and multiplying one dimension by a matrix.
"""

from functools import reduce

import numpy as np

from tmclust.mda import matricize_mode1, mode_product, vectorize

rng = np.random.default_rng(1)

# a single observation: a 3 x 4 x 2 array (order D = 3)
x = rng.standard_normal((3, 4, 2))
print("order:", x.ndim)           # 3
print("dims: ", x.shape)          # (3, 4, 2)
print("size: ", x.size)           # 24 cells in total

# the mode-1 matricization lays the array out as an (n*/n_1) x n_1 matrix;
# its columns correspond to the first dimension.  It is a rearrangement of
# the entries, computed when it is wanted
m = matricize_mode1(x)
print("matricization shape:", m.shape)   # (8, 3)

# stacking its columns gives vec of the array, so nothing is lost
assert np.array_equal(m.T.reshape(-1), vectorize(x))

# folding back is exact
assert np.array_equal(m.T.reshape(x.shape), x)

# the mode-d product multiplies one dimension by a matrix, leaving the
# others alone.  Multiplying every mode by an identity is a no-op:
y = x
for d in range(1, x.ndim + 1):
    y = mode_product(y, np.eye(x.shape[d - 1]), d)
assert np.allclose(y, x)

# a genuine transformation: double everything along dimension 2
stretch = 2.0 * np.eye(4)
z = mode_product(x, stretch, 2)
print("mode-2 stretch doubles cells:", np.allclose(z, 2 * x))

# the Kronecker product of the per-dimension matrices, in order, is the
# big vec-space operator matching vectorize(); mode products and that
# operator agree (the package itself never forms it):
mats = [rng.standard_normal((n, n)) for n in x.shape]
via_modes = x
for d, a in enumerate(mats, start=1):
    via_modes = mode_product(via_modes, a, d)
via_kron = reduce(np.kron, mats) @ vectorize(x)
print("mode products match kron on vec:",
      np.allclose(vectorize(via_modes), via_kron))
