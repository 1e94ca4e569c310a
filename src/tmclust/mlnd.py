"""Multilinear (tensor-variate) normal distributions.

A random order-D array X with dims (n_1, ..., n_D) follows this family when
vec(X) is multivariate normal with mean vec(M) and covariance

    Sigma = Delta_1 x Delta_2 x ... x Delta_D        (Kronecker product),

where each Delta_d is an n_d x n_d positive-definite scale matrix.  The log
density at x is

    -(n*/2) log(2 pi) - (n*/2) sum_d (1/n_d) log|Delta_d| - Q/2,

with n* = prod(n_d) and Q the squared Mahalanobis norm of the centered array.
Q is always evaluated by whitening the centered array mode by mode with the
inverse lower Cholesky factor L_d^{-1} of each Delta_d — the dense Kronecker
covariance is never formed.  The Kronecker factorization is only unique up to
per-dimension rescalings that preserve the product, which downstream code
resolves by convention after fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NotPositiveDefiniteError
from .mda import Matricization, Mda, matricize_mode1, multiply_axis

_SYM_TOL = 1e-12


def chol_lower(mat: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Lower Cholesky factor, raising :class:`NotPositiveDefiniteError`.

    ``dim`` (1-based) labels the offending scale matrix in the error.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        where = f" for dimension {dim}" if dim is not None else ""
        raise NotPositiveDefiniteError(
            f"scale matrix{where} is not positive definite", dim=dim
        ) from None


def inv_lower(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower Cholesky factor, itself lower triangular.

    ``tril`` drops the round-off that the pivoted LU inverse can leave above
    the diagonal.
    """
    return np.tril(np.linalg.inv(L))


def _check_symmetric(mat: np.ndarray, dim: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"scale matrix for dimension {dim} must be square, got {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > _SYM_TOL * scale:
        raise ValueError(f"scale matrix for dimension {dim} is not symmetric")
    return mat


@dataclass(eq=False)
class MlndParams:
    """Parameters of one multilinear normal component.

    Parameters
    ----------
    mean : Matricization or array_like
        The mean array, given either as its mode-1 matricization or as a
        dense array of shape ``dims``.
    scales : sequence of ndarray
        Per-dimension scale matrices (Delta_1, ..., Delta_D), each symmetric
        positive definite.
    """

    mean: Matricization
    scales: tuple[np.ndarray, ...]
    _chols: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)
    _inv_chols: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.mean, Matricization):
            arr = np.asarray(self.mean, dtype=np.float64)
            self.mean = matricize_mode1(arr)
        scales = tuple(
            _check_symmetric(s, d + 1) for d, s in enumerate(self.scales)
        )
        if len(scales) != len(self.mean.dims):
            raise ValueError(
                f"got {len(scales)} scale matrices for an order-{len(self.mean.dims)} mean"
            )
        for d, (s, n) in enumerate(zip(scales, self.mean.dims)):
            if s.shape[0] != n:
                raise ValueError(
                    f"scale matrix for dimension {d + 1} has extent {s.shape[0]}, expected {n}"
                )
        self.scales = scales

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mean.dims

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))

    @property
    def mean_array(self) -> np.ndarray:
        """The mean folded back to an array of shape ``dims``."""
        return self.mean.to_array()

    def chol_factors(self) -> tuple[np.ndarray, ...]:
        """Lower Cholesky factors L_d of every scale matrix (cached)."""
        if self._chols is None:
            self._chols = tuple(
                chol_lower(s, dim=d + 1) for d, s in enumerate(self.scales)
            )
        return self._chols

    def inv_chol_factors(self) -> tuple[np.ndarray, ...]:
        """Inverse factors L_d^{-1}, the whitening matrices (cached)."""
        if self._inv_chols is None:
            self._inv_chols = tuple(inv_lower(L) for L in self.chol_factors())
        return self._inv_chols

    def log_det_terms(self) -> float:
        """sum_d (1/n_d) log|Delta_d|, the per-entry log determinant."""
        total = 0.0
        for n_d, L in zip(self.dims, self.chol_factors()):
            total += 2.0 * float(np.log(np.diag(L)).sum()) / n_d
        return total


def _solve_mode(values: np.ndarray, inv_factor: np.ndarray, axis: int) -> np.ndarray:
    """Apply L^{-1} along one axis: one single-mode whitening pass."""
    return multiply_axis(values, inv_factor, axis)


def whiten_all_modes(centered: np.ndarray, inv_chols: Sequence[np.ndarray]) -> np.ndarray:
    """Whiten every array mode of a batch (N, n_1, ..., n_D) of centered arrays.

    ``inv_chols`` holds the inverse factors L_d^{-1}.  After this, the
    squared Frobenius norm of each member equals its Mahalanobis quadratic
    form under the Kronecker covariance.
    """
    return whiten_except(centered, inv_chols, keep=0)


def whiten_except(centered: np.ndarray, inv_chols: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Whiten every mode of a batch except the 1-based dimension ``keep``
    (``keep=0`` whitens every mode)."""
    out = centered
    for d, inv_factor in enumerate(inv_chols):
        if d + 1 != keep:
            out = _solve_mode(out, inv_factor, axis=d + 1)
    return out


def log_density(x, params: MlndParams) -> float:
    """Log density of one observation under a multilinear normal law."""
    arr = x.array if isinstance(x, Mda) else np.asarray(x, dtype=np.float64)
    return float(log_density_batch(arr[None], params)[0])


def log_density_batch(batch: np.ndarray, params: MlndParams) -> np.ndarray:
    """Log densities for a stacked batch of shape (N, n_1, ..., n_D)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[1:] != params.dims:
        raise ValueError(f"batch has dims {batch.shape[1:]}, expected {params.dims}")
    n_star = params.size
    centered = batch - params.mean_array[None]
    white = whiten_all_modes(centered, params.inv_chol_factors())
    flat = white.reshape(white.shape[0], -1)
    q = np.einsum("nk,nk->n", flat, flat)
    const = -0.5 * n_star * (np.log(2.0 * np.pi) + params.log_det_terms())
    return const - 0.5 * q


def sample(params: MlndParams, rng, size: int | None = None):
    """Draw from the distribution by coloring iid standard normals.

    An iid N(0,1) array u is multiplied in mode d by the lower Cholesky
    factor L_d of Delta_d for every d, then shifted by the mean; the result
    has exactly the Kronecker vec-covariance.  ``rng`` needs only a
    ``standard_normal(shape)`` method.

    Returns a single :class:`~tmclust.mda.Mda` when ``size`` is None, else a
    list of ``size`` draws.
    """
    n = 1 if size is None else int(size)
    u = np.asarray(rng.standard_normal((n,) + params.dims), dtype=np.float64)
    for d, L in enumerate(params.chol_factors()):
        u = multiply_axis(u, L, axis=d + 1)
    u = u + params.mean_array[None]
    if size is None:
        return Mda(u[0])
    return [Mda(u[i]) for i in range(n)]
