"""Dense multidimensional arrays (MDAs) and their index bookkeeping.

An order-D MDA ``x`` with dims ``(n_1, ..., n_D)`` is stored as a float64
numpy array in C order.  The canonical vectorization stacks entries with the
first index most significant, which is exactly C-order raveling, so

    vec(x)[k] = x[i_1, ..., i_D],   k = i_1*n_2*...*n_D + ... + i_D.

Under this convention a mode-d product by ``a`` acts on vec(x) as the
Kronecker operator ``I x ... x a x ... x I`` with ``a`` in slot d, and the
mode-1 matricization is the (n*/n_1) x n_1 matrix whose column i_1 holds the
C-ordered entries over the remaining indices.  Dense Kronecker products are
provided for test oracles and small problems only; the statistical code never
materializes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np


class Mda:
    """An immutable order-D (D >= 2) array of float64 values.

    Parameters
    ----------
    array : array_like
        Anything ``np.asarray`` accepts with ``ndim >= 2``.  Values are
        copied to a read-only C-contiguous float64 array.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.array(array, dtype=np.float64, order="C", copy=True)
        if arr.ndim < 2:
            raise ValueError(f"an Mda must have order >= 2, got order {arr.ndim}")
        if arr.size == 0:
            raise ValueError("an Mda must have at least one entry per dimension")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Mda instances are immutable")

    @property
    def order(self) -> int:
        """Number of dimensions D."""
        return self.array.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        """Extent of each dimension, (n_1, ..., n_D)."""
        return self.array.shape

    @property
    def size(self) -> int:
        """Total number of entries n* = prod(dims)."""
        return self.array.size

    @property
    def values(self) -> np.ndarray:
        """Entries in canonical (C) order, read-only view of length n*."""
        return self.array.reshape(-1)

    def __repr__(self):
        return f"Mda(dims={self.dims})"


@dataclass(frozen=True)
class Matricization:
    """Mode-1 unfolding of an MDA: an (n*/n_1) x n_1 matrix plus source dims.

    Row r corresponds to the index tuple (i_2, ..., i_D) with i_2 most
    significant; column i corresponds to the first index.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.asarray(self.matrix, dtype=np.float64)
        n1 = dims[0]
        rest = int(np.prod(dims[1:]))
        if mat.shape != (rest, n1):
            raise ValueError(
                f"matricization of dims {dims} must have shape {(rest, n1)}, got {mat.shape}"
            )
        object.__setattr__(self, "matrix", mat)

    def to_array(self) -> np.ndarray:
        """Fold back to the dense array of shape ``dims``."""
        return np.ascontiguousarray(self.matrix.T.reshape(self.dims))

    def to_mda(self) -> Mda:
        return Mda(self.to_array())


def _as_array(x) -> np.ndarray:
    if isinstance(x, Mda):
        return x.array
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError("expected an array of order >= 2")
    return arr


def vectorize(x) -> np.ndarray:
    """Canonical vectorization: C-order ravel, first index most significant."""
    return _as_array(x).reshape(-1).copy()


def from_vector(vec, dims: Sequence[int]) -> Mda:
    """Inverse of :func:`vectorize` for the given dims."""
    dims = tuple(int(n) for n in dims)
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.size != int(np.prod(dims)):
        raise ValueError(f"vector of length {vec.size} does not fold to dims {dims}")
    return Mda(vec.reshape(dims))


def matricize_mode1(x) -> Matricization:
    """Mode-1 unfolding; see :class:`Matricization` for the row order."""
    arr = _as_array(x)
    return Matricization(arr.reshape(arr.shape[0], -1).T, arr.shape)


def swap_mode2(x, mode: int) -> Mda:
    """Exchange mode 2 and ``mode`` (1-based, 3 <= mode <= D).

    The entry at (i_1, i_2, ..., i_mode, ...) moves to the position with
    i_2 and i_mode interchanged.
    """
    arr = _as_array(x)
    d = arr.ndim
    if not 3 <= mode <= d:
        raise ValueError(f"mode must be in [3, {d}], got {mode}")
    return Mda(np.swapaxes(arr, 1, mode - 1))


def mode_product(x, a, mode: int) -> Mda:
    """Multiply mode ``mode`` (1-based) of ``x`` by the matrix ``a``.

    The result has dims with n_mode replaced by ``a.shape[0]``; on
    vectorizations it acts as the Kronecker operator with ``a`` in slot
    ``mode`` and identities elsewhere.
    """
    arr = _as_array(x)
    a = np.asarray(a, dtype=np.float64)
    d = arr.ndim
    if not 1 <= mode <= d:
        raise ValueError(f"mode must be in [1, {d}], got {mode}")
    if a.ndim != 2 or a.shape[1] != arr.shape[mode - 1]:
        raise ValueError(
            f"matrix of shape {a.shape} cannot multiply mode {mode} of extent {arr.shape[mode - 1]}"
        )
    return Mda(multiply_axis(arr, a, mode - 1))


def kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Dense Kronecker product of a sequence of matrices, left to right.

    Test oracle / small-problem helper only: quadratic in total size.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats:
        raise ValueError("kron needs at least one matrix")
    return reduce(np.kron, mats)


def as_batch(data) -> np.ndarray:
    """Stack observations into one (N, n_1, ..., n_D) float64 array.

    Accepts a sequence of :class:`Mda` (or arrays) with identical dims, or
    an already-stacked array, which is passed through as float64.
    """
    if isinstance(data, np.ndarray):
        if data.ndim < 3:
            raise ValueError("a stacked batch must have ndim >= 3 (N plus order >= 2)")
        return np.asarray(data, dtype=np.float64)
    arrays = [x.array if isinstance(x, Mda) else np.asarray(x, dtype=np.float64) for x in data]
    if not arrays:
        raise ValueError("empty dataset")
    dims = arrays[0].shape
    for i, a in enumerate(arrays):
        if a.shape != dims:
            raise ValueError(f"observation {i} has dims {a.shape}, expected {dims}")
    return np.stack(arrays).astype(np.float64, copy=False)


def multiply_axis(values: np.ndarray, mat, axis: int) -> np.ndarray:
    """Multiply one axis (0-based) of an array by a matrix, on the C layout.

    The array is viewed as (P, n, Q) around the axis of extent n, so a
    C-contiguous input is never copied and the result keeps the input's axis
    order; the last axis, where Q = 1, is one (P, n) @ mat.T product.  The
    axis takes the extent ``mat.shape[0]``.
    """
    shape = values.shape
    n = shape[axis]
    out_shape = shape[:axis] + (mat.shape[0],) + shape[axis + 1:]
    if axis == len(shape) - 1:
        return (values.reshape(-1, n) @ mat.T).reshape(out_shape)
    lead = int(np.prod(shape[:axis]))
    return np.matmul(mat, values.reshape(lead, n, -1)).reshape(out_shape)
