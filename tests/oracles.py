"""Reference routes that the tests compare the package against.

These share no whitening code with ``tmclust``, which multiplies by inverse
factors in place: here every triangular system is solved with
``scipy.linalg.solve_triangular`` on a copy that has the solved axis moved
to the front.

* :func:`solve_mode` / :func:`whiten_all_modes` — per-mode triangular-solve
  whitening of a batch, the oracle for ``tmclust.mlnd._solve_mode``.
* :func:`scatter` — one group's weighted scatter for one dimension, whitened
  from scratch, the oracle for the EM sweep's incremental scatters.
* :func:`whiten_slices` / :func:`quadratic_form` — the Mahalanobis quadratic
  form of one array as a sum over matricized two-dimensional slices, with
  optional mode swaps (acceptance criterion 2).
* :func:`kron` — the dense Kronecker product of per-dimension matrices,
  the vec-space operator that ``tmclust`` never forms.
* :func:`dense_log_density` — the log density of one observation as a
  multivariate normal on its vectorization, under the dense Kronecker
  covariance (slogdet + solve), the oracle for ``tmclust.mlnd``'s densities.
* :func:`kron_relative_error_dense` — ``tmclust.metrics.kron_relative_error``
  through the dense Kronecker products.
* :func:`kmeans_direct` — k-means with distances and centres from GEMMs on
  the batch, the oracle for the partitions of ``tmclust.em.init_kmeans``'s
  Gram-matrix route.
* :func:`eee_oracle` — the shared full scale (EEE) by derivative-free
  minimization of its objective (acceptance criterion 9).
* :func:`mcd_rowwise` — the MCD-VVI factors by one linear solve per row of
  T, the oracle for the batched LDL' of ``tmclust.parsimony``.
* :func:`mcd_scale` / :func:`record_scale` — the scale matrix that MCD
  factors (T, delta), or a group of a factor record, describe.
* :func:`normalized_scales` — the identifiability normalization one group
  and one dimension at a time, the oracle for the stacked normalization of
  ``tmclust.em.normalize_identifiability``.
* :func:`loglik_by_component` — a mixture's log-likelihood matrix one
  component at a time through ``tmclust.mlnd.log_density_batch``, the
  reference for ``tmclust.em.loglik_matrix``'s one G-group workspace.  It
  does share the package's whitening: the two must agree bit for bit.
* :func:`scan_csv_long` — a long CSV read as one csv-module pass over the
  whole file, row by row, raising at the first bad row: the row scan that
  ``tmclust.io._load_csv_long``'s chunked reader must agree with.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from tmclust.em import FitOptions
from tmclust.errors import DataFormatError
from tmclust.io import _csv_long_header
from tmclust.mda import as_batch, vectorize
from tmclust.metrics import relative_error
from tmclust.mlnd import MlndParams, log_density_batch
from tmclust.parsimony import McdFactors, SharedMcdFactors, gpcm_eee_update


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


def scatter(batch: np.ndarray, mean: np.ndarray, weights, chols, dim: int) -> np.ndarray:
    """Unnormalized scatter sum_i w_i F_i F_i' of one group for dimension ``dim``.

    F_i holds the mode-``dim`` fibres of observation i after centring and
    whitening every other mode from scratch.
    """
    white = batch - mean[None]
    for d, L in enumerate(chols):
        if d + 1 != dim:
            white = solve_mode(white, L, axis=d + 1)
    fibres = np.moveaxis(white, dim, -1).reshape(len(batch), -1, batch.shape[dim])
    return np.einsum("i,ira,irb->ab", np.asarray(weights, dtype=np.float64), fibres, fibres)


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
    centered : array_like
        The centered observation x - M, of shape ``params.dims``.
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


def kron(mats) -> np.ndarray:
    """Dense Kronecker product of a sequence of matrices, left to right."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats:
        raise ValueError("kron needs at least one matrix")
    return reduce(np.kron, mats)


def dense_log_density(x: np.ndarray, params: MlndParams) -> float:
    """Dense multivariate-normal oracle on the vectorized problem."""
    sigma = kron(params.scales)
    resid = x.reshape(-1) - vectorize(params.mean)
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    quad = float(resid @ np.linalg.solve(sigma, resid))
    return -0.5 * (resid.size * np.log(2 * np.pi) + logdet + quad)


def kron_relative_error_dense(estimate_scales, truth_scales) -> float:
    """Relative Frobenius error of two Kronecker products, formed densely."""
    return relative_error(kron(estimate_scales), kron(truth_scales))


def eee_oracle(lams, counts, n_obs, n_star):
    """Derivative-free minimizer of the pooled scale objective (n_d = 2 only).

    Nelder-Mead over a log-Cholesky parametrization, started next to the
    closed form ``gpcm_eee_update``.
    """
    n_d = 2

    def unpack(p):
        a, b, c = p
        low = np.array([[np.exp(a), 0.0], [b, np.exp(c)]])
        return low @ low.T

    def objective(p):
        delta = unpack(p)
        sign, logdet = np.linalg.slogdet(delta)
        if sign <= 0:
            return np.inf
        inv = np.linalg.inv(delta)
        return (n_obs * n_star / n_d) * logdet + sum(
            n * np.trace(inv @ l) for n, l in zip(counts, lams)
        )

    closed = gpcm_eee_update(lams, counts, n_obs, n_star)
    l0 = np.linalg.cholesky(closed)
    x0 = np.array([np.log(l0[0, 0]) + 0.05, l0[1, 0] + 0.05, np.log(l0[1, 1]) - 0.05])
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    return unpack(res.x)


def kmeans_direct(data, n_groups: int, options: FitOptions | None = None, rng=None) -> np.ndarray:
    """Hard (0/1) responsibilities from Lloyd's k-means on vectorizations.

    Runs ``options.kmeans_restarts`` restarts from random distinct
    observations and keeps the assignment with the lowest within-cluster sum
    of squares.  Deterministic given the generator state; ties keep the
    first-found solution.  Distances (|v|^2 - 2 v.c + |c|^2) and centres
    come from GEMMs, so no temporary is as large as the batch.
    """
    options = options or FitOptions()
    batch = as_batch(data)
    n = batch.shape[0]
    g = int(n_groups)
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= G <= N, got G={g}, N={n}")
    rng = rng if rng is not None else options.rng()
    v = batch.reshape(n, -1)
    v_sq = np.einsum("ij,ij->i", v, v)

    def sq_dists(centers):
        return v_sq[:, None] - 2.0 * (v @ centers.T) + np.einsum("kj,kj->k", centers, centers)

    best_inertia = np.inf
    best_labels = None
    for _ in range(options.kmeans_restarts):
        centers = v[rng.choice(n, size=g, replace=False)]
        labels = None
        for _ in range(100):
            d2 = sq_dists(centers)
            new_labels = d2.argmin(axis=1)
            sizes = np.bincount(new_labels, minlength=g)
            for k in np.flatnonzero(sizes == 0):
                # revive at the worst-fit point of a cluster that keeps a member
                dist = d2[np.arange(n), new_labels]
                dist[sizes[new_labels] < 2] = -np.inf
                far = int(dist.argmax())
                sizes[new_labels[far]] -= 1
                sizes[k] = 1
                new_labels[far] = k
            if labels is not None and np.array_equal(labels, new_labels):
                break  # the centres are those d2 was computed from
            labels = new_labels
            centers = (np.eye(g)[labels].T @ v) / sizes[:, None]
        else:
            d2 = sq_dists(centers)
        inertia = float(d2[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    z = np.zeros((n, g))
    z[np.arange(n), best_labels] = 1.0
    return z


def normalized_scales(components) -> list[tuple[np.ndarray, ...]]:
    """Each group's scales with every trailing leading entry pinned to 1.0
    and the first matrix multiplied by the product of those entries, taken
    in dimension order."""
    out = []
    for comp in components:
        scales = [s.copy() for s in comp.scales]
        prod = 1.0
        for k in range(1, len(scales)):
            lead = float(scales[k][0, 0])
            scales[k] /= lead
            scales[k][0, 0] = 1.0
            prod *= lead
        scales[0] *= prod
        out.append(tuple(scales))
    return out


def loglik_by_component(batch, model) -> np.ndarray:
    """(N, G) log pi_k + log density of each observation under component k,
    one fresh one-group workspace per component."""
    densities = [log_density_batch(batch, comp) for comp in model.components]
    return np.log(model.weights) + np.column_stack(densities)


def mcd_rowwise(lam: np.ndarray, n_star: int) -> tuple[np.ndarray, float]:
    """The unit lower T that decorrelates one matrix and delta = tr(T lam T') / n*:
    row r of T solves lam[:r, :r] phi = -lam[:r, r].  A singular leading
    minor raises ``numpy.linalg.LinAlgError``."""
    n = lam.shape[0]
    t = np.eye(n)
    for r in range(1, n):
        t[r, :r] = -np.linalg.solve(lam[:r, :r], lam[:r, r])
    return t, float(np.trace(t @ lam @ t.T)) / n_star


def mcd_scale(t: np.ndarray, delta: float) -> np.ndarray:
    """delta T^{-1} T^{-T}, from a triangular solve for T^{-1}."""
    tinv = solve_triangular(t, np.eye(len(t)), lower=True, unit_diagonal=True)
    out = delta * (tinv @ tinv.T)
    return (out + out.T) / 2.0


def record_scale(record, k: int) -> np.ndarray:
    """Group k's scale matrix as a factor record (a ``SharedMcdFactors``, or a
    tuple of ``McdFactors`` or ``GpcmVviFactors``) describes it."""
    if isinstance(record, SharedMcdFactors):
        return mcd_scale(record.t, record.deltas[k])
    fac = record[k]
    if isinstance(fac, McdFactors):
        return mcd_scale(fac.t, fac.delta)
    return fac.scale * np.diag(fac.shape)


@contextlib.contextmanager
def _reading(path, newline=None):
    """``path`` open as UTF-8 text; a byte that is not UTF-8 (its row named)
    or a row the csv module refuses raises DataFormatError naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # a UTF-8 line survives decoding with replacement
            bad = (n for n, b in enumerate(fh, 1) if b.decode(errors="replace").encode() != b)
            row = next(bad, "?")
        raise DataFormatError(f"{path}: row {row}: not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def scan_csv_long(path, dims: tuple[int, ...], n_obs: int) -> np.ndarray:
    """Read a long CSV row by row, raising :class:`DataFormatError` at the
    first bad row."""
    d = len(dims)
    expected_header = _csv_long_header(d)
    values = np.empty((n_obs,) + dims)
    seen = np.zeros((n_obs,) + dims, dtype=bool)
    with _reading(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise DataFormatError(
                f"{path}: bad header {header!r}, expected {expected_header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataFormatError(
                    f"{path}: row {lineno}: expected {d + 2} fields, got {len(row)}"
                )
            try:
                obs = int(row[0])
                idx = tuple(int(v) for v in row[1 : d + 1])
                val = float(row[d + 1])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {lineno}: {exc}") from None
            if not 1 <= obs <= n_obs:
                raise DataFormatError(
                    f"{path}: row {lineno}: obs_id {obs} outside 1..{n_obs}"
                )
            for k, (i, n) in enumerate(zip(idx, dims)):
                if not 1 <= i <= n:
                    raise DataFormatError(
                        f"{path}: row {lineno}: i{k + 1}={i} outside 1..{n}"
                    )
            if not np.isfinite(val):
                raise DataFormatError(f"{path}: row {lineno}: value {row[d+1]!r} not finite")
            cell = (obs - 1,) + tuple(i - 1 for i in idx)
            if seen[cell]:
                raise DataFormatError(
                    f"{path}: row {lineno}: duplicate cell obs_id={obs}, index={idx}"
                )
            seen[cell] = True
            values[cell] = val
    if not seen.all():
        missing = np.argwhere(~seen)
        first = missing[0]
        raise DataFormatError(
            f"{path}: {len(missing)} missing cells, first: obs_id={first[0] + 1}, "
            f"index={tuple(int(i) + 1 for i in first[1:])}"
        )
    return values
