"""
Multidimensional arrays: matricization, vectorization, mode products
====================================================================

The basic currency of the package is a dense order-D array wrapped in an
``Mda``.  Everything downstream (densities, EM, simulation) is built on
three operations shown here: the mode-1 matricization, the matching
vectorization, and multiplying one dimension by a matrix.
"""

import numpy as np

from tmclust.mda import Mda, kron, matricize_mode1, mode_product, vectorize

rng = np.random.default_rng(1)

# a single observation: a 3 x 4 x 2 array (order D = 3)
x = Mda(rng.standard_normal((3, 4, 2)))
print("order:", x.order)          # 3
print("dims: ", x.dims)           # (3, 4, 2)
print("size: ", x.size)           # 24 cells in total

# the mode-1 matricization lays the array out as an (n*/n_1) x n_1 matrix;
# its columns correspond to the first dimension.  It is a plain ndarray, a
# rearrangement of the entries (means and batches are stored as arrays)
m = matricize_mode1(x)
print("matricization shape:", m.shape)   # (8, 3)

# stacking its columns gives vec of the array, so nothing is lost
assert np.array_equal(m.T.reshape(-1), vectorize(x))

# folding back is exact
assert np.array_equal(m.T.reshape(x.dims), x.array)

# the mode-d product multiplies one dimension by a matrix, leaving the
# others alone.  Multiplying every mode by an identity is a no-op:
y = x
for d in range(1, x.order + 1):
    y = mode_product(y, np.eye(x.dims[d - 1]), d)
assert np.allclose(y.array, x.array)

# a genuine transformation: double everything along dimension 2
stretch = 2.0 * np.eye(4)
z = mode_product(x, stretch, 2)
print("mode-2 stretch doubles cells:", np.allclose(z.array, 2 * x.array))

# kron() combines per-dimension matrices into the big vec-space operator,
# ordered to match vectorize(); mode products and the Kronecker operator
# agree:
mats = [rng.standard_normal((n, n)) for n in x.dims]
via_modes = x
for d, a in enumerate(mats, start=1):
    via_modes = mode_product(via_modes, a, d)
via_kron = kron(mats) @ vectorize(x)
print("mode products match kron on vec:",
      np.allclose(vectorize(via_modes), via_kron))
