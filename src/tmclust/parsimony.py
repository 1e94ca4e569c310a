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
coefficients of index r on indices 1..r-1.  The updates below are the exact
conditional maximizers of the expected complete-data log-likelihood given
the per-group scatters Lambda_{g,d}, so a cyclic sweep keeps EM monotone.
Each family's M-step with its repair, parameter count and factor record are
defined in one place, ``tmclust.em.FAMILIES``, which calls these: a record
is the family's estimator run on a scale stack at n* = n_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


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
class SharedMcdFactors:
    """Shared unit-lower T with per-group innovation scales (EVI family)."""

    t: np.ndarray
    deltas: np.ndarray


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
    lams = np.asarray(lams, dtype=np.float64)
    pooled = np.einsum("k,kab->ab", np.asarray(counts, dtype=np.float64), lams)
    pooled = (lams.shape[1] / (n_star * n_obs)) * pooled
    return (pooled + pooled.T) / 2.0


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


__all__ = [
    "GpcmVviFactors",
    "McdFactors",
    "ScaleModel",
    "SharedMcdFactors",
    "gpcm_eee_update",
    "gpcm_vvi_update",
    "mcd_evi_update",
    "mcd_vvi_update",
]
