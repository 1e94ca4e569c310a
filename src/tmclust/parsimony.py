"""Constrained per-dimension scale-matrix families and parameter counts.

Five families can be assigned per dimension:

======== ======================================== ==========================
token    structure of Delta_d                     free parameters per dim
======== ======================================== ==========================
VVV      full SPD, group-specific                 G n_d (n_d + 1) / 2
MCD-VVI  T_g' (delta_g I)^{-1} T_g inverse,       G n_d (n_d - 1) / 2 + G
         group-specific unit-lower T and scalar
MCD-EVI  shared unit-lower T, group scalar        n_d (n_d - 1) / 2 + G
EEE      full SPD, shared across groups           n_d (n_d + 1) / 2
VVI-GPCM positive diagonal, group-specific,       G n_d
         split as lambda_g * D_g with |D_g| = 1
======== ======================================== ==========================

The MCD families use the modified Cholesky decomposition
Delta^{-1} = T' (delta I)^{-1} T with T unit lower triangular, natural for
ordered (e.g. temporal) dimensions: row r of T holds negated autoregressive
coefficients of index r on indices 1..r-1.  The updates below are the exact
conditional maximizers of the expected complete-data log-likelihood given
the per-group scatters Lambda_{g,d}, so a cyclic sweep keeps EM monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .mda import as_batch
from .mlnd import whiten_except


class ScaleModel(str, Enum):
    """Per-dimension scale-matrix family; values are the CLI tokens."""

    VVV = "VVV"
    MCD_VVI = "MCD-VVI"
    MCD_EVI = "MCD-EVI"
    GPCM_EEE = "EEE"
    GPCM_VVI = "VVI-GPCM"

    @classmethod
    def from_token(cls, token: str) -> "ScaleModel":
        try:
            return cls(token.strip())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown scale-model token {token!r} (expected one of {valid})")


@dataclass(frozen=True)
class McdFactors:
    """Modified-Cholesky factors of one scale matrix: unit lower T, scalar delta."""

    t: np.ndarray
    delta: float

    def scale(self) -> np.ndarray:
        """Reconstruct Delta = delta * T^{-1} T^{-T} (always SPD for delta > 0)."""
        tinv = np.linalg.inv(self.t)
        out = self.delta * (tinv @ tinv.T)
        return (out + out.T) / 2.0


@dataclass(frozen=True)
class GpcmVviFactors:
    """Diagonal family split: Delta = scale * diag(shape), prod(shape) = 1."""

    scale: float
    shape: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.scale * np.diag(self.shape)


@dataclass(frozen=True)
class FreeParamCount:
    """Free-parameter tally: mixing weights, means, and per-dimension scales."""

    weights: int
    means: int
    per_dim: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.weights + self.means + sum(self.per_dim)


def scatter_lambda(data, z: np.ndarray, model, dim: int) -> np.ndarray:
    """Per-group scatter matrices Lambda_{g,dim}, stacked (G, n_d, n_d).

    Lambda_{g,d} averages, with weights z[:, g], the cross-products of the
    centered observations along dimension ``dim`` after whitening every
    other dimension with the group's current scale factors:

        Lambda_{g,1} = (1/n_g) sum_i z_ig sum_j X_j' Delta_{g,2}^{-1} X_j

    and its transposed/mode-swapped analogues for the other dimensions —
    all of which reduce to the same whiten-all-but-one contraction.

    Parameters
    ----------
    data : ndarray (N, n_1, ..., n_D) or sequence of Mda
    z : ndarray (N, G)
    model : MixtureModel or sequence of MlndParams
        Supplies the current means and the other dimensions' scales.
    dim : int
        1-based dimension index.
    """
    batch = as_batch(data)
    components = getattr(model, "components", model)
    z = np.asarray(z, dtype=np.float64)
    counts = z.sum(axis=0)
    if np.any(counts <= 0):
        raise ValueError("every group needs positive responsibility mass")
    out = []
    for g, comp in enumerate(components):
        s = _scatter_one(batch, comp.mean_array, z[:, g], comp.inv_chol_factors(), dim)
        out.append(s / counts[g])
    return np.stack(out)


def _scatter_one(batch, mean_arr, weights, inv_chols, dim) -> np.ndarray:
    """Unnormalized weighted scatter sum_i w_i (...) for one group.

    ``inv_chols`` holds the group's inverse factors L_d^{-1}.  Whitening is
    linear, so the weights are applied as sqrt(w_i) before it.
    """
    centered = batch - mean_arr[None]
    centered *= np.sqrt(weights).reshape((-1,) + (1,) * (batch.ndim - 1))
    white = whiten_except(centered, inv_chols, keep=dim)
    n_d = white.shape[dim]
    lead = int(np.prod(white.shape[:dim]))
    # rows are the mode-dim fibres; a copy only when dim is not the last axis
    fibres = white.reshape(lead, n_d, -1).transpose(0, 2, 1).reshape(-1, n_d)
    s = fibres.T @ fibres
    return (s + s.T) / 2.0


def _unit_lower_solve(lam: np.ndarray) -> np.ndarray:
    """Row-wise triangular systems giving the unit lower T that decorrelates lam.

    Row r solves lam[:r, :r] phi = -lam[:r, r]; a singular leading minor gets
    one 1e-10 diagonal jitter retry, then errors.
    """
    n = lam.shape[0]
    t = np.eye(n)
    work = lam
    for attempt in range(2):
        try:
            for r in range(1, n):
                t[r, :r] = -np.linalg.solve(work[:r, :r], work[:r, r])
            return t
        except np.linalg.LinAlgError:
            if attempt == 1:
                raise
            work = lam + 1e-10 * np.eye(n)
    raise AssertionError("unreachable")


def mcd_vvi_update(lam: np.ndarray, n_star: int) -> McdFactors:
    """Group-specific modified-Cholesky update from one scatter matrix.

    T decorrelates lam exactly (T lam T' is diagonal); the isotropic
    innovation scale is delta = trace(T lam T') / n*.
    """
    lam = np.asarray(lam, dtype=np.float64)
    t = _unit_lower_solve(lam)
    delta = float(np.trace(t @ lam @ t.T)) / n_star
    return McdFactors(t=t, delta=delta)


def mcd_evi_update(
    lams: Sequence[np.ndarray],
    counts: Sequence[float],
    deltas_prev: Sequence[float],
    n_star: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared-T update: one fixed-point sweep of the coupled (T, delta) system.

    The pooled matrix kappa = sum_g (n_g / delta_g) Lambda_g (previous
    deltas) determines the shared T through the same row-wise solves; the
    per-group scales are then refreshed as delta_g = trace(T Lambda_g T')/n*.

    Returns ``(t, deltas)`` with ``deltas`` of shape (G,).
    """
    lams = [np.asarray(l, dtype=np.float64) for l in lams]
    counts = np.asarray(counts, dtype=np.float64)
    deltas_prev = np.asarray(deltas_prev, dtype=np.float64)
    if np.any(deltas_prev <= 0):
        raise ValueError("previous delta estimates must be positive")
    kappa = sum((n / d) * l for n, d, l in zip(counts, deltas_prev, lams))
    t = _unit_lower_solve(kappa)
    deltas = np.array([float(np.trace(t @ l @ t.T)) / n_star for l in lams])
    return t, deltas


def gpcm_eee_update(
    lams: Sequence[np.ndarray], counts: Sequence[float], n_obs: int, n_star: int
) -> np.ndarray:
    """Shared full-matrix update: Delta = (n_d/(n* N)) sum_g n_g Lambda_g."""
    lams = [np.asarray(l, dtype=np.float64) for l in lams]
    counts = np.asarray(counts, dtype=np.float64)
    n_d = lams[0].shape[0]
    pooled = sum(n * l for n, l in zip(counts, lams))
    out = (n_d / (n_star * n_obs)) * pooled
    return (out + out.T) / 2.0


def gpcm_vvi_update(lam: np.ndarray, n_star: int) -> GpcmVviFactors:
    """Diagonal family update from one scatter matrix.

    Off-diagonal scatter is ignored by the model; the diagonal is split into
    a unit-determinant shape vector and a scalar volume.
    """
    lam = np.asarray(lam, dtype=np.float64)
    d = np.diag(lam).copy()
    if np.any(d <= 0):
        raise ValueError("diagonal family requires strictly positive scatter diagonal")
    n_d = d.size
    geo = float(np.exp(np.mean(np.log(d))))  # |diag|^(1/n_d)
    shape = d / geo
    scale = (n_d / n_star) * geo
    return GpcmVviFactors(scale=scale, shape=shape)


def free_params(specs: Sequence[ScaleModel], n_groups: int, dims: Sequence[int]) -> FreeParamCount:
    """Count free parameters for a (G, per-dimension spec) combination.

    Weights contribute G-1 and means G*n*; per-dimension scale contributions
    follow the table in the module docstring.  Redundant multiplicative
    constants across Kronecker factors are deliberately not subtracted.
    """
    dims = tuple(int(n) for n in dims)
    specs = tuple(specs)
    if len(specs) != len(dims):
        raise ValueError(f"got {len(specs)} specs for {len(dims)} dimensions")
    g = int(n_groups)
    n_star = int(np.prod(dims))
    per_dim = []
    for spec, n in zip(specs, dims):
        full = n * (n + 1) // 2
        lower = n * (n - 1) // 2
        if spec is ScaleModel.VVV:
            c = g * full
        elif spec is ScaleModel.MCD_VVI:
            c = g * lower + g
        elif spec is ScaleModel.MCD_EVI:
            c = lower + g
        elif spec is ScaleModel.GPCM_EEE:
            c = full
        elif spec is ScaleModel.GPCM_VVI:
            c = g * n
        else:  # pragma: no cover
            raise ValueError(f"unhandled scale model {spec}")
        per_dim.append(c)
    return FreeParamCount(weights=g - 1, means=g * n_star, per_dim=tuple(per_dim))


__all__ = [
    "FreeParamCount",
    "GpcmVviFactors",
    "McdFactors",
    "ScaleModel",
    "free_params",
    "gpcm_eee_update",
    "gpcm_vvi_update",
    "mcd_evi_update",
    "mcd_vvi_update",
    "scatter_lambda",
]
