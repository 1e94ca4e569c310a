"""Scale-family tokens, factor records and the pure per-family estimators.

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
coefficients of index r on indices 1..r-1.  Both come from one batched,
square-root-free LDL' Lambda = C D C': T = C^{-1}, delta = tr(D) / n* and
the scale is delta C C', with no matrix inverse.  A pivot not positive
beyond round-off flags its group (for MCD-EVI, whose pivots are the pooled
matrix's, every group) as a singular estimate, which the EM sweep repairs
and records.  The updates are the exact conditional maximizers of the expected
complete-data log-likelihood given the per-group scatters Lambda_{g,d}, so
a cyclic sweep keeps EM monotone.  ``tmclust.em.FAMILIES`` defines each
family from these: a record is the family's estimator run on a scale stack
at n* = n_d, and a scale its record does not reconstruct is not a member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ScaleModel(str, Enum):
    """Per-dimension scale-matrix family; values are the CLI tokens."""

    VVV = "VVV"
    MCD_VVI = "MCD-VVI"
    MCD_EVI = "MCD-EVI"
    GPCM_EEE = "EEE"
    GPCM_VVI = "VVI-GPCM"

    @classmethod
    def from_token(cls, token) -> "ScaleModel":
        """The family a token names, surrounding whitespace ignored (a ScaleModel
        is its own token); an unknown token raises ValueError, a non-string TypeError."""
        if not isinstance(token, str):
            raise TypeError(f"a family token is a string, got {token!r}")
        try:
            return cls(token.strip())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown scale-model token {token!r} (expected one of {valid})")


def family_specs(tokens, order: int) -> tuple[ScaleModel, ...]:
    """One family per dimension of an order-``order`` array from ``tokens``,
    all-VVV when ``tokens`` is None; a list of another length raises ValueError."""
    if tokens is None:
        return (ScaleModel.VVV,) * order
    specs = tuple(map(ScaleModel.from_token, tokens))
    if len(specs) != order:
        raise ValueError(f"got {len(specs)} specs for {order} dimensions")
    return specs


@dataclass(frozen=True)
class McdFactors:
    """Modified-Cholesky factors of one scale matrix: unit lower T, scalar delta."""

    t: np.ndarray
    delta: float


@dataclass(frozen=True)
class GpcmVviFactors:
    """Diagonal family split: Delta = scale * diag(shape), prod(shape) = 1."""

    scale: float
    shape: np.ndarray


@dataclass(frozen=True)
class SharedMcdFactors:
    """Shared unit-lower T with per-group innovation scales (EVI family)."""

    t: np.ndarray
    deltas: np.ndarray


def mcd_vvi_update(lams: np.ndarray, n_star: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group-specific modified-Cholesky update from a (G, n, n) scatter stack.

    The one LDL' of the MCD families, for all groups at once: row operations
    on [Lambda_g | I] give Lambda_g = C_g D_g C_g' and, in the right half,
    T_g = C_g^{-1}.  Returns ``(t, deltas, shapes)``, (G, n, n), (G,) and
    (G, n, n), with delta_g = tr(D_g) / n* and the scale delta_g * shapes_g =
    delta_g C_g C_g'.  A pivot not positive beyond round-off (n eps times the
    matrix's largest entry) is not divided by, so column j of C_g stays e_j,
    and gives delta_g = 0, the mark of a singular estimate.
    """
    lams = np.asarray(lams, dtype=np.float64)
    g, n, _ = lams.shape
    eye = np.broadcast_to(np.eye(n), lams.shape)
    work = np.concatenate([lams, eye], axis=2)
    c = eye.copy()
    floor = n * np.finfo(np.float64).eps * np.abs(lams).max(axis=(1, 2))[:, None]
    for j in range(n):
        pivot = work[:, j, j, None]
        ok = pivot > floor
        pivot *= ok  # a pivot at round-off or below becomes 0
        mult = np.divide(work[:, j + 1 :, j], pivot, out=np.zeros((g, n - 1 - j)), where=ok)
        c[:, j + 1 :, j] = mult
        work[:, j + 1 :] -= mult[:, :, None] * work[:, None, j]
    pivots = np.diagonal(work, axis1=1, axis2=2)
    deltas = np.where((pivots > 0).all(axis=1), pivots.sum(axis=1) / n_star, 0.0)
    return work[:, :, n:], deltas, c @ c.transpose(0, 2, 1)


def mcd_evi_update(lams, counts, deltas_prev, n_star: int) -> tuple[np.ndarray, ...]:
    """Shared-T update: one fixed-point sweep of the coupled (T, delta) system.

    The LDL' of the pooled kappa = sum_g (n_g / delta_g) Lambda_g (previous
    deltas) gives the shared T; then delta_g = trace(T Lambda_g T') / n*.
    Returns ``(t, deltas, shape)``, (n, n), (G,) and (n, n): the scale of
    group g is delta_g * shape.  A pivot of kappa that is not positive makes
    every delta_g 0.
    """
    lams, counts, deltas_prev = (np.asarray(a, dtype=float) for a in (lams, counts, deltas_prev))
    if np.any(deltas_prev <= 0):
        raise ValueError("previous delta estimates must be positive")
    kappa = np.einsum("g,gab->ab", counts / deltas_prev, lams)
    (t,), (pooled,), (shape,) = mcd_vvi_update(kappa[None], 1)
    deltas = ((t @ lams) * t).sum(axis=(1, 2)) / n_star
    return t, deltas if pooled > 0 else np.zeros_like(deltas), shape


def gpcm_eee_update(lams, counts, n_obs: int, n_star: int) -> np.ndarray:
    """Shared full-matrix update: Delta = (n_d/(n* N)) sum_g n_g Lambda_g."""
    lams = np.asarray(lams, dtype=np.float64)
    pooled = np.einsum("k,kab->ab", np.asarray(counts, dtype=np.float64), lams)
    pooled = (lams.shape[1] / (n_star * n_obs)) * pooled
    return (pooled + pooled.T) / 2.0


def gpcm_vvi_update(lams: np.ndarray, n_star: int) -> tuple[GpcmVviFactors, ...]:
    """Diagonal family update from a (G, n, n) scatter stack, one record per group.

    Off-diagonal scatter is ignored by the model; each diagonal is split into
    a unit-determinant shape vector and a scalar volume.
    """
    lams = np.asarray(lams, dtype=np.float64)
    d = np.diagonal(lams, axis1=1, axis2=2)
    if np.any(d <= 0):
        raise ValueError("diagonal family requires strictly positive scatter diagonal")
    geo = np.exp(np.mean(np.log(d), axis=1))  # |diag|^(1/n_d)
    scales = (d.shape[1] / n_star) * geo
    return tuple(GpcmVviFactors(float(v), s) for v, s in zip(scales, d / geo[:, None]))


__all__ = [
    "GpcmVviFactors",
    "McdFactors",
    "ScaleModel",
    "SharedMcdFactors",
    "family_specs",
    "gpcm_eee_update",
    "gpcm_vvi_update",
    "mcd_evi_update",
    "mcd_vvi_update",
]
