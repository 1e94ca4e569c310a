"""Reference routes that the tests compare the package against.

These share no whitening code with ``tmclust``, which multiplies by inverse
factors in place: here every triangular system is solved with
``scipy.linalg.solve_triangular`` on a copy that has the solved axis moved
to the front.

* :func:`solve_mode` / :func:`whiten_all_modes` — per-mode triangular-solve
  whitening of a batch, the oracle for ``tmclust.mlnd._solve_mode``.
* :func:`whiten_slices` / :func:`quadratic_form` — the Mahalanobis quadratic
  form of one array as a sum over matricized two-dimensional slices, with
  optional mode swaps (acceptance criterion 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from tmclust.mda import Matricization, Mda
from tmclust.mlnd import MlndParams


def solve_mode(values: np.ndarray, L: np.ndarray, axis: int) -> np.ndarray:
    """Apply L^{-1} along one axis by a triangular solve on a moved copy."""
    moved = np.moveaxis(values, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = solve_triangular(L, flat, lower=True).reshape(moved.shape)
    return np.moveaxis(out, 0, axis)


def whiten_all_modes(centered: np.ndarray, chols) -> np.ndarray:
    """Whiten every array mode of a batch (N, n_1, ..., n_D) by triangular solves."""
    out = centered
    for d, L in enumerate(chols):
        out = solve_mode(out, L, axis=d + 1)
    return out


@dataclass(frozen=True)
class WhitenedSlices:
    """Matricized slices of a centered array after partial whitening.

    ``slices[j]`` is the n_row x n_1 matrix obtained by slicing the centered
    array (modes 3..D whitened) at the j-th combination of the folded
    indices, C-ordered.  ``row_dim`` is the 1-based dimension whose scale
    plays the row role (2 in the standard layout, l after a mode swap).
    ``whiteners`` holds the inverse lower Cholesky factors applied to the
    folded dimensions, in dimension order.
    """

    slices: np.ndarray
    dims: tuple[int, ...]
    row_dim: int
    whiteners: tuple[np.ndarray, ...]


def whiten_slices(centered, params: MlndParams, swap_with: int | None = None) -> WhitenedSlices:
    """Slice a centered array for two-dimensional quadratic-form evaluation.

    Parameters
    ----------
    centered : Matricization or array_like
        The centered observation x - M, as a mode-1 matricization or a dense
        array of shape ``params.dims``.
    params : MlndParams
    swap_with : int, optional
        If given (1-based, 3 <= swap_with <= D), modes 2 and ``swap_with``
        are exchanged (in the data and the scale list alike) before slicing,
        so the returned slices pair dimension ``swap_with`` with dimension 1.

    Returns
    -------
    WhitenedSlices
        Slices of shape (prod of folded dims, n_row, n_1): the folded modes
        (3..D in the working order) have been whitened with their inverse
        Cholesky factors; the row and column modes are left untouched.
    """
    if isinstance(centered, Matricization):
        arr = centered.to_array()
    elif isinstance(centered, Mda):
        arr = centered.array
    else:
        arr = np.asarray(centered, dtype=np.float64)
    if arr.shape != params.dims:
        raise ValueError(f"centered array has dims {arr.shape}, expected {params.dims}")
    d = len(params.dims)
    if d < 2:
        raise ValueError("slicing requires order >= 2")

    order = list(range(d))
    if swap_with is not None:
        if not 3 <= swap_with <= d:
            raise ValueError(f"swap_with must be in [3, {d}], got {swap_with}")
        order[1], order[swap_with - 1] = order[swap_with - 1], order[1]
        arr = np.swapaxes(arr, 1, swap_with - 1)
    chols = params.chol_factors()

    work = arr[None]  # batch of one
    whiteners = []
    for pos in range(2, d):
        L = chols[order[pos]]
        work = solve_mode(work, L, axis=pos + 1)
        whiteners.append(solve_triangular(L, np.eye(L.shape[0]), lower=True))
    n1, n_row = arr.shape[0], arr.shape[1]
    slices = work[0].reshape(n1, n_row, -1).transpose(2, 1, 0)
    return WhitenedSlices(
        slices=slices,
        dims=params.dims,
        row_dim=(2 if swap_with is None else swap_with),
        whiteners=tuple(whiteners),
    )


def quadratic_form(centered, params: MlndParams, swap_with: int | None = None) -> float:
    """Mahalanobis quadratic form of a centered array via slice sums.

    Each slice X_j contributes trace(Delta_1^{-1} X_j^T Delta_row^{-1} X_j),
    evaluated as the squared Frobenius norm of the doubly-whitened slice.
    """
    ws = whiten_slices(centered, params, swap_with=swap_with)
    chols = params.chol_factors()
    L_col = chols[0]
    L_row = chols[ws.row_dim - 1]
    block = ws.slices  # (J, n_row, n_1)
    block = solve_mode(block, L_row, 1)
    block = solve_mode(block, L_col, 2)
    return float(np.einsum("jab,jab->", block, block))
