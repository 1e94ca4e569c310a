"""Index bookkeeping for multidimensional arrays.

The brute-force oracles below re-derive every layout rule entry by entry
from the index conventions (first index most significant in vec; mode-1
rows ordered by (i_2, ..., i_D) with i_2 most significant), independently of
the reshape tricks used by the implementation.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tmclust.mda import as_batch, matricize_mode1, mode_product, multiply_axis, vectorize

from oracles import kron


def vec_oracle(arr: np.ndarray) -> np.ndarray:
    """Entry-by-entry vectorization with the first index most significant."""
    dims = arr.shape
    out = np.empty(arr.size)
    for k, idx in enumerate(itertools.product(*[range(n) for n in dims])):
        out[k] = arr[idx]
    return out


def matricize_oracle(arr: np.ndarray) -> np.ndarray:
    """Mode-1 unfolding built index by index."""
    dims = arr.shape
    n1 = dims[0]
    rest_dims = dims[1:]
    out = np.empty((int(np.prod(rest_dims)), n1))
    for r, rest in enumerate(itertools.product(*[range(n) for n in rest_dims])):
        for i in range(n1):
            out[r, i] = arr[(i,) + rest]
    return out


def test_vectorize_two_by_two():
    x = [[1.0, 2.0], [3.0, 4.0]]
    assert vectorize(x).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_vectorize_trivial_cube():
    x = np.full((1, 1, 1), 5.0)
    assert vectorize(x).tolist() == [5.0]


def test_vectorize_matches_oracle(rng):
    for dims in [(2, 3), (3, 2, 4), (2, 2, 2, 3)]:
        arr = rng.standard_normal(dims)
        np.testing.assert_array_equal(vectorize(arr), vec_oracle(arr))


def test_matricize_small_cube():
    # x[i, j, k] = 4i + 2j + k for 0-based indices over a 2x2x2 array
    arr = np.arange(8, dtype=float).reshape(2, 2, 2)
    m = matricize_mode1(arr)
    assert m.shape == (4, 2)
    # column i lists (x_i00, x_i01, x_i10, x_i11)
    np.testing.assert_array_equal(m[:, 0], [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(m[:, 1], [4.0, 5.0, 6.0, 7.0])


def test_matricize_matches_oracle(rng):
    for dims in [(2, 5), (4, 3, 2), (2, 3, 2, 2)]:
        arr = rng.standard_normal(dims)
        np.testing.assert_array_equal(matricize_mode1(arr), matricize_oracle(arr))


def test_matricize_vec_consistency(rng):
    # column-stacking the matricization reproduces the canonical vec
    for dims in [(3, 2), (2, 3, 4)]:
        arr = rng.standard_normal(dims)
        m = matricize_mode1(arr)
        np.testing.assert_array_equal(m.T.reshape(-1), vectorize(arr))


def test_matricize_fold_round_trip(rng):
    arr = rng.standard_normal((3, 2, 4))
    m = matricize_mode1(arr)
    np.testing.assert_array_equal(m.T.reshape(arr.shape), arr)


def test_kron_determinant_identity(rng):
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    k = kron([a, b])
    assert k.shape == (4, 4)
    det = np.linalg.det(k)
    assert det == pytest.approx(np.linalg.det(a) ** 2 * np.linalg.det(b) ** 2, rel=1e-10)


def test_kron_single_matrix(rng):
    a = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(kron([a]), a)


def test_mode_product_identity_and_zero(rng):
    arr = rng.standard_normal((3, 4, 2))
    x = arr
    for mode, n in [(1, 3), (2, 4), (3, 2)]:
        same = mode_product(x, np.eye(n), mode)
        np.testing.assert_array_equal(same, arr)
        zero = mode_product(x, np.zeros((n, n)), mode)
        assert np.all(zero == 0.0)


def test_mode_product_changes_extent(rng):
    x = rng.standard_normal((3, 4))
    a = rng.standard_normal((5, 4))
    y = mode_product(x, a, 2)
    assert y.shape == (3, 5)


def test_mode_product_matches_dense_kron(rng):
    # chained mode products act on vec exactly like the Kronecker operator
    for dims in [(2, 3), (2, 3, 2), (2, 2, 3, 2)]:
        arr = rng.standard_normal(dims)
        mats = [rng.standard_normal((n, n)) for n in dims]
        x = arr
        for mode, a in enumerate(mats, start=1):
            x = mode_product(x, a, mode)
        dense = kron(mats) @ vectorize(arr)
        np.testing.assert_allclose(vectorize(x), dense, rtol=0, atol=1e-10)


def test_mode_product_single_mode_matches_dense(rng):
    dims = (2, 3, 2)
    arr = rng.standard_normal(dims)
    for mode in (1, 2, 3):
        a = rng.standard_normal((dims[mode - 1], dims[mode - 1]))
        ops = [np.eye(n) for n in dims]
        ops[mode - 1] = a
        got = vectorize(mode_product(arr, a, mode))
        want = kron(ops) @ vec_oracle(arr)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_mode_product_matricization_relation(rng):
    # on mode-1 unfoldings, a mode-1 product right-multiplies by the transpose
    arr = rng.standard_normal((3, 2, 2))
    a = rng.standard_normal((3, 3))
    y = mode_product(arr, a, 1)
    np.testing.assert_allclose(
        matricize_mode1(y),
        matricize_mode1(arr) @ a.T,
        rtol=0,
        atol=1e-12,
    )


def test_mode_product_shape_mismatch(rng):
    x = rng.standard_normal((3, 4))
    with pytest.raises(ValueError):
        mode_product(x, np.eye(5), 1)


def test_multiply_axis_writes_out_or_rejects_it():
    values = np.arange(120.0).reshape(2, 3, 4, 5)
    mat = np.arange(16.0).reshape(4, 4)
    want = multiply_axis(values, mat, 2)
    out = np.zeros((2, 3, 4, 5))
    assert multiply_axis(values, mat, 2, out=out) is out
    np.testing.assert_array_equal(out, want)
    # reshaping any of these would copy, and the product would be lost
    for bad in (
        np.zeros((5, 4, 3, 2)).transpose(3, 2, 1, 0),  # right shape, not C-contiguous
        np.zeros((2, 3, 5, 4)),
        np.zeros((2, 3, 4, 5), dtype=np.float32),
    ):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            multiply_axis(values, np.eye(4), 2, out=bad)
        assert not bad.any()


def test_order_one_and_empty_arrays_rejected():
    for bad in (np.ones(3), np.zeros((3, 0)), np.zeros((0, 2, 2))):
        with pytest.raises(ValueError):
            vectorize(bad)
        with pytest.raises(ValueError):
            matricize_mode1(bad)
        with pytest.raises(ValueError):
            mode_product(bad, np.eye(3), 1)
    for bad in (np.ones((4, 3)), np.zeros((4, 0, 2)), np.zeros((0, 2, 2)), [], [np.ones(3)]):
        with pytest.raises(ValueError):
            as_batch(bad)


def test_as_batch_stacks_a_sequence(rng):
    arrays = [rng.standard_normal((2, 3)) for _ in range(4)]
    np.testing.assert_array_equal(as_batch(arrays), np.stack(arrays))
    with pytest.raises(ValueError, match="observation 1"):
        as_batch([arrays[0], np.ones((3, 2))])
