"""Dense multidimensional arrays (MDAs) and their index bookkeeping.

An order-D MDA ``x`` with dims ``(n_1, ..., n_D)`` is stored as a float64
numpy array in C order.  The canonical vectorization stacks entries with the
first index most significant, which is exactly C-order raveling, so

    vec(x)[k] = x[i_1, ..., i_D],   k = i_1*n_2*...*n_D + ... + i_D.

Under this convention a mode-d product by ``a`` acts on vec(x) as the
Kronecker operator ``I x ... x a x ... x I`` with ``a`` in slot d, and the
mode-1 matricization is the (n*/n_1) x n_1 matrix whose column i_1 holds the
C-ordered entries over the remaining indices.  It is a rearrangement of the
entries, computed when needed (the result JSON stores means in that form);
means and batches of N observations, shape (N, n_1, ..., n_D), are plain
float64 arrays everywhere else.
"""

from __future__ import annotations

import math

import numpy as np


def _as_array(x) -> np.ndarray:
    """One observation as a float64 array of order >= 2 with at least one entry."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"expected an array of order >= 2, got order {arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"expected at least one entry per dimension, got dims {arr.shape}")
    return arr


def vectorize(x) -> np.ndarray:
    """Canonical vectorization: C-order ravel, first index most significant."""
    return _as_array(x).reshape(-1).copy()


def matricize_mode1(x) -> np.ndarray:
    """Mode-1 unfolding, the (n*/n_1) x n_1 matrix (a view when it can be).

    Row r corresponds to the index tuple (i_2, ..., i_D) with i_2 most
    significant; column i corresponds to the first index.  ``m.T.reshape(dims)``
    folds it back.
    """
    arr = _as_array(x)
    return arr.reshape(arr.shape[0], -1).T


def mode_product(x, a, mode: int) -> np.ndarray:
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
    return multiply_axis(arr, a, mode - 1)


def as_batch(data) -> np.ndarray:
    """Stack observations into one (N, n_1, ..., n_D) float64 array.

    Accepts an already-stacked array, which is passed through as float64, or
    a sequence of arrays with identical dims.
    """
    if not isinstance(data, np.ndarray):
        arrays = [np.asarray(x, np.float64) for x in data]
        if not arrays:
            raise ValueError("empty dataset")
        dims = arrays[0].shape
        for i, a in enumerate(arrays):
            if a.shape != dims:
                raise ValueError(f"observation {i} has dims {a.shape}, expected {dims}")
        data = np.stack(arrays)
    if data.ndim < 3:
        raise ValueError("a stacked batch must have ndim >= 3 (N plus order >= 2)")
    if data.size == 0:
        raise ValueError(f"a batch needs at least one entry per axis, got shape {data.shape}")
    return np.asarray(data, dtype=np.float64)


def _fibres(values: np.ndarray, axis: int) -> np.ndarray:
    """A (G, lead, n, rest) view of the fibres along ``axis`` of a stack of
    G arrays; the last axis's fibres are one (n, rest) matrix per array."""
    g, n = len(values), values.shape[axis]
    if axis == values.ndim - 1:
        return values.reshape(g, 1, -1, n).swapaxes(2, 3)
    return values.reshape(g, math.prod(values.shape[1:axis]), n, -1)


def multiply_axis(values: np.ndarray, mat, axis: int, out=None) -> np.ndarray:
    """Multiply one axis (0-based) of an array by an (m, n) matrix, or of
    each of G arrays stacked on axis 0 by its matrix of a (G, m, n) stack, in
    one broadcast ``matmul`` on the C layout that keeps the axis order; on
    the last axis, against the transposed matrices made contiguous (OpenBLAS
    runs a small transposed operand two to three times slower).  ``out``
    (C-contiguous float64 of the result's shape, not overlapping ``values``)
    takes the result; any other ``out`` raises ``ValueError``, since
    reshaping it would copy and drop the product."""
    if mat.ndim == 2:  # one array: a stack of one
        got = multiply_axis(values[None], mat[None], axis + 1, None if out is None else out[None])
        return got[0] if out is None else out
    shape = values.shape
    result = shape[:axis] + (mat.shape[1],) + shape[axis + 1 :]
    if out is None:
        out = np.empty(result)
    elif out.shape != result or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {result}")
    if axis == len(shape) - 1:
        rows, trans = (len(values), -1), np.ascontiguousarray(mat.swapaxes(1, 2))
        np.matmul(values.reshape(rows + shape[-1:]), trans, out=out.reshape(rows + result[-1:]))
    else:
        np.matmul(mat[:, None], _fibres(values, axis), out=_fibres(out, axis))
    return out
