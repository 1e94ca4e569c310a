"""Multilinear (tensor-variate) normal distributions.

A random order-D array X with dims (n_1, ..., n_D) follows this family when
vec(X) is multivariate normal with mean vec(M) and covariance

    Sigma = Delta_1 x Delta_2 x ... x Delta_D        (Kronecker product),

where each Delta_d is an n_d x n_d positive-definite scale matrix.  The log
density at x is

    -(n*/2) log(2 pi) - (n*/2) sum_d (1/n_d) log|Delta_d| - Q/2,

with n* = prod(n_d) and Q the squared Mahalanobis norm of the centered array.
Q is evaluated by whitening the centered array mode by mode with the inverse
lower Cholesky factor L_d^{-1} of each Delta_d — the dense Kronecker
covariance is never formed.  The Kronecker factorization is only unique up to
per-dimension rescalings that preserve the product, which downstream code
resolves by convention after fitting.  Means are dense arrays of shape dims,
and :func:`sample` with ``size=n`` draws one (n, n_1, ..., n_D) batch.

Every Q comes from :meth:`SweepWorkspace.quad_matrix` and every constant
from :func:`log_density_consts`: :func:`log_density_batch` uses a fresh
one-group workspace, which whitens each row from scratch in two block
buffers, and EM the one workspace of its fit.  Its sweep holds each group's
centred support, the observations whose weight is not exactly zero,
whitened on every mode but the one being updated; :func:`_scatter_one`
advances the supports by the new L_d^{-1} and the old L_{d+1}.  The other
observations add nothing to a group's scatters, so they are whitened once,
from scratch, for the E-step, or not at all: from a fit's second E-step on,
a lower bound on sqrt(Q) carried from the last one (Elkan's triangle-
inequality bounds for k-means, 2003) skips every such pair whose entry
provably lies 800 nats below its row's best.  Its form is +inf: the exact
one's responsibility underflows to 0.0 just as exp(-inf) does, so the
E-step's outputs are bit for bit those of whitening it.  Blocks keep
observations last, so the contracted mode of every pass and Gram has them
in its trailing extent.
Every centring and pass sequence runs in :meth:`SweepWorkspace.whiten`, and
every single-mode pass through :func:`_solve_mode`.
:func:`chol_lower` and :func:`inv_lower` also take (G, n, n) stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .mda import _as_array, as_batch, multiply_axis

_SYM_TOL = 1e-12
_BLOCK_BYTES = 512 * 1024  # largest block of observations one sweep pass touches
_SKIP_NATS = 800.0  # how far below its row's best a skipped E-step entry lies (exp: 745.13)
_SKIP_TAU = 1e-3  # the share of a carried bound's square held back for the forms' round-off


def chol_lower(mat: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Lower Cholesky factor (of each matrix of a stack), raising
    :class:`NotPositiveDefiniteError`.

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
    """Inverse of a lower Cholesky factor (or of each of a stack), itself
    lower triangular.

    ``tril`` drops the round-off that the pivoted LU inverse can leave above
    the diagonal.
    """
    return np.tril(np.linalg.inv(L))


def _check_symmetric(mat: np.ndarray, dim: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"scale matrix for dimension {dim} must be square, got {mat.shape}")
    top = float(np.abs(mat).max())  # NaN or inf if an entry is; NaN passes the test below
    if not top < math.inf:
        raise ValueError(f"scale matrix for dimension {dim} holds a NaN or infinite entry")
    if float(np.abs(mat - mat.T).max()) > _SYM_TOL * max(1.0, top):
        raise ValueError(f"scale matrix for dimension {dim} is not symmetric")
    return mat


@dataclass(eq=False)
class MlndParams:
    """Parameters of one multilinear normal component.

    Parameters
    ----------
    mean : array_like
        The mean array, of shape ``dims`` and order D >= 2; kept as a
        C-contiguous float64 ndarray.
    scales : sequence of ndarray
        Per-dimension scale matrices (Delta_1, ..., Delta_D), each symmetric
        positive definite.
    """

    mean: np.ndarray
    scales: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        if self.mean.ndim < 2:
            raise ValueError(f"the mean must have order >= 2, got order {self.mean.ndim}")
        if not np.isfinite(self.mean).all():
            raise ValueError("the mean holds a NaN or infinite entry")
        scales = tuple(_check_symmetric(s, d + 1) for d, s in enumerate(self.scales))
        if len(scales) != self.order:
            raise ValueError(f"got {len(scales)} scale matrices for an order-{self.order} mean")
        for d, (s, n) in enumerate(zip(scales, self.dims)):
            if s.shape[0] != n:
                raise ValueError(
                    f"scale matrix for dimension {d + 1} has extent {s.shape[0]}, expected {n}"
                )
        self.scales = scales

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mean.shape

    @property
    def order(self) -> int:
        return self.mean.ndim

    def chol_factors(self) -> tuple[np.ndarray, ...]:
        """Lower Cholesky factors L_d of every scale matrix."""
        return tuple(chol_lower(s, dim=d + 1) for d, s in enumerate(self.scales))


def log_density_consts(chols) -> np.ndarray:
    """The (G,) density constants -(n*/2)(log 2 pi + sum_d (1/n_d) log|Delta_d|)
    from the per-dimension (G, n_d, n_d) stacks of L_d."""
    ldt = 0.0
    for L in chols:
        ldt = ldt + 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1) / len(L[0])
    n_star = math.prod(len(L[0]) for L in chols)
    return -0.5 * n_star * (np.log(2.0 * np.pi) + ldt)


def _solve_mode(values: np.ndarray, inv_factor: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Apply L^{-1} along one axis: one single-mode whitening pass (the EM
    sweep also passes L, to undo one).  ``out`` as in ``multiply_axis``."""
    return multiply_axis(values, inv_factor, axis, out)


class SweepWorkspace:
    """The buffers of one fit's whitening sweep.

    A group's sweep touches only its support, the rows whose weight is not
    exactly zero: the others add nothing to its means and scatters.  Arrays
    are held observation-last, in blocks of shape (n_1, ..., n_D, b) of at
    most ``_BLOCK_BYTES`` (at least one observation), so a pass on mode d is
    prod(n_1..n_{d-1}) matrix products whatever N is.  ``blocks[k]`` lists
    the (rows, block buffer, held block) of each block of group k's support,
    held in group k's row of ``held``, which the first :meth:`restrict`
    allocates.  Column k of the (N, G) mask ``idle`` marks its other rows,
    its rest (before any sweep, all): :meth:`quad_matrix` whitens them in
    the two block buffers, unless a fit's carried ``bound`` rules them out.
    """

    def __init__(self, batch: np.ndarray, n_groups: int):
        self.batch = batch
        n = len(batch)
        self.step = min(n, max(1, _BLOCK_BYTES // batch[0].nbytes))
        self.held = None
        self.bufs = np.empty((2, self.step * batch[0].size))
        self.blocks = [[] for _ in range(n_groups)]
        self.idle = np.ones((n, n_groups), dtype=bool)
        self.bound, self.last = 0.0, None

    def restrict(self, k: int, weights: np.ndarray) -> None:
        """Make group k's support the rows where ``weights`` is not zero."""
        if self.held is None:
            self.held = np.empty((len(self.blocks), self.batch.size))
        room = self.bufs.shape[1]  # the size of a full block
        self.blocks[k] = [
            (rows, tmp, self.held[k, j * room : j * room + tmp.size].reshape(tmp.shape))
            for j, (rows, tmp, _) in enumerate(self.carve(np.flatnonzero(weights)))
        ]
        self.idle[:, k] = weights == 0

    def carve(self, rows: np.ndarray) -> list:
        """(rows, buffer, spare) of each block of the ascending batch rows
        ``rows``, the two block buffers viewed in the block's shape; rows
        that are consecutive stay a slice, read without a gather copy."""
        blocks, size = [], self.batch[0].size
        for i in range(0, len(rows), self.step):
            sel = rows[i : i + self.step]
            b = len(sel)
            if sel[-1] - sel[0] == b - 1:
                sel = slice(int(sel[0]), int(sel[0]) + b)
            shape = self.batch.shape[1:] + (b,)
            blocks.append((sel, *(buf[: b * size].reshape(shape) for buf in self.bufs)))
        return blocks

    def whiten(self, out: np.ndarray, spare: np.ndarray, passes, rows=None, mean=None):
        """Apply the (factor, axis) ``passes`` in turn, ping-ponging so that
        the last ends in ``out``.  The input is the batch's ``rows`` minus
        ``mean`` (rows not given as a slice are gathered into a buffer, as
        ``take`` allocates unless told to clip), or without a ``mean`` the
        buffer the first pass reads: ``out`` if the passes are even."""
        src, dst = (spare, out) if len(passes) % 2 else (out, spare)
        if mean is not None:
            b = out.shape[-1]
            if isinstance(rows, slice):
                obs = self.batch[rows]
            else:
                gathered = dst.reshape((b,) + mean.shape)
                obs = np.take(self.batch, rows, axis=0, out=gathered, mode="clip")
            np.subtract(obs.reshape(b, -1).T, mean.reshape(-1, 1), out=src.reshape(-1, b))
        for factor, axis in passes:
            _solve_mode(src, factor, axis, out=dst)
            src, dst = dst, src

    def quad_matrix(self, means: np.ndarray, invs, offsets=None, chols=None) -> np.ndarray:
        """The (N, G) Mahalanobis quadratic forms of a fit's E-step: the
        squared norms of the whitened blocks' columns.

        ``means`` is the (G, n_1, ..., n_D) stack of the new means and
        ``invs`` the per-dimension (G, n_d, n_d) stacks of the new L_d^{-1}.
        Each group's support lacks only the last mode's whitening, one pass
        with the new L_D^{-1} into a block buffer.  Its rest is centred and
        whitened on every mode in the two block buffers, block by block.

        A fit's E-step also passes the (G,) ``offsets`` log pi_k + c_k and the
        new L stacks ``chols``: from its second call on, a rest pair whose
        entry offsets_k - Q_ik / 2 provably sits _SKIP_NATS below its row's
        best (:meth:`_unskipped`) is not whitened, and its form is +inf.
        """
        quad = np.full((len(self.batch), len(means)), np.inf)
        passes = [[(stack[k], axis) for axis, stack in enumerate(invs)] for k in range(len(means))]
        for k, group in enumerate(self.blocks):
            for rows, tmp, held in group:
                self.whiten(tmp, held, passes[k][-1:])
                quad[rows, k] = _column_norms(tmp)
        todo = self.idle if chols is None else self._unskipped(quad, means, invs, offsets, chols)
        for k, mean in enumerate(means):
            for rows, tmp, spare in self.carve(np.flatnonzero(todo[:, k])):
                self.whiten(tmp, spare, passes[k], rows, mean)
                quad[rows, k] = _column_norms(tmp)
        if chols is not None:
            self.bound = np.where(self.idle & ~todo, self.bound, np.sqrt(quad))
        return quad

    def _unskipped(self, quad, means, invs, offsets, chols) -> np.ndarray:
        """The (N, G) mask of rest pairs to whiten, given the support's forms
        in ``quad``; leaves in ``bound`` the carried bound of every pair.

        ``bound`` holds a lower bound b on each pair's sqrt(Q) under the
        ``last`` call's means and L^{-1} stacks.  With W = the Kronecker
        product of the L_d^{-1}, W'(x - mu') = (W' W^{-1}) W(x - mu) -
        W'(mu' - mu), so sqrt(Q') >= s b - m, where s_k = prod_d 1 / (1 +
        ||L_d^{-1} L'_d - I||_F) bounds the smallest singular value of
        W' W^{-1} from below and m_k = ||mu'_k - mu_k|| prod_d ||L'_d^{-1}||_F
        bounds ||W'(mu' - mu)|| from above.  A pair is skipped when even
        (1 - _SKIP_TAU) of that bound's square puts its entry _SKIP_NATS
        below its row's best support entry: exp of the exact entry minus
        the row's log-sum-exp underflows to 0.0 as exp(-inf) does, so the
        responsibilities and the log-likelihood are bit-for-bit those of
        computing it.  _SKIP_TAU covers the forms' relative round-off and the
        floor's 55 nats past exp's underflow at -745.13 the rest.
        """
        todo = self.idle
        if self.last is not None and todo.any():
            old_means, old_invs = self.last
            steps = [old @ L - np.eye(L.shape[-1]) for old, L in zip(old_invs, chols)]
            sq = np.array([np.einsum("kij,kij->k", a, a) for a in [*steps, *invs]])
            move = (means - old_means).reshape(len(means), -1)
            reach = np.sqrt(np.einsum("ki,ki->k", move, move) * sq[len(steps) :].prod(axis=0))
            shrink = (1.0 + np.sqrt(sq[: len(steps)])).prod(axis=0)
            self.bound = np.maximum(self.bound / shrink - reach, 0.0)
            top = (offsets - 0.5 * quad).max(axis=1)
            gap = offsets - top[:, None] + _SKIP_NATS
            todo = todo & ~((0.5 - 0.5 * _SKIP_TAU) * self.bound**2 > gap)
        self.last = (means, list(invs))
        return todo


def _column_norms(block: np.ndarray) -> np.ndarray:
    """Squared norm of each observation (trailing index) of a block."""
    cols = block.reshape(-1, block.shape[-1])
    return np.einsum("kn,kn->n", cols, cols)


def _scatter_one(work: SweepWorkspace, dim: int, means, z, invs, chols) -> np.ndarray:
    """The (G, n_d, n_d) unnormalized weighted scatters sum_i z_ik (...) for
    ``dim``, from the per-dimension (G, n_d, n_d) stacks ``invs`` and
    ``chols`` of L_d^{-1} and L_d, new below ``dim`` and old from it on.

    First advances each group's held support: dimension 1 takes it from
    ``z``, centres it and whitens modes 2..D; a later one applies the new
    L_{dim-1}^{-1}, then the old L_dim to undo that mode.
    """
    dims = work.batch.shape[1:]
    n_d, lead = dims[dim - 1], math.prod(dims[: dim - 1])
    scatters = np.zeros((len(means), n_d, n_d))
    for k, s in enumerate(scatters):
        if dim == 1:
            work.restrict(k, z[:, k])
            passes = [(invs[m][k], m) for m in range(1, len(dims))]
        else:
            passes = [(invs[dim - 2][k], dim - 2), (chols[dim - 1][k], dim - 1)]
        for rows, tmp, block in work.blocks[k]:
            work.whiten(block, tmp, passes, rows, means[k] if dim == 1 else None)
            np.multiply(block, z[rows, k], out=tmp)
            fibres, weighted = block.reshape(lead, n_d, -1), tmp.reshape(lead, n_d, -1)
            s += np.matmul(fibres, weighted.transpose(0, 2, 1)).sum(axis=0)
    return (scatters + scatters.transpose(0, 2, 1)) / 2.0


def log_density(x, params: MlndParams) -> float:
    """Log density of one observation under a multilinear normal law."""
    return float(log_density_batch(_as_array(x)[None], params)[0])


def log_density_batch(batch: np.ndarray, params: MlndParams) -> np.ndarray:
    """Log densities for a stacked batch of shape (N, n_1, ..., n_D), whose
    quadratic forms a fresh one-group workspace whitens from scratch."""
    batch = as_batch(batch)
    if batch.shape[1:] != params.dims:
        raise ValueError(f"batch has dims {batch.shape[1:]}, expected {params.dims}")
    chols = [L[None] for L in params.chol_factors()]
    invs = [inv_lower(L) for L in chols]
    quad = SweepWorkspace(batch, 1).quad_matrix(params.mean[None], invs)[:, 0]
    return log_density_consts(chols)[0] - 0.5 * quad


def sample(params: MlndParams, rng, size: int | None = None):
    """Draw from the distribution by coloring iid standard normals.

    An iid N(0,1) array u is multiplied in mode d by the lower Cholesky
    factor L_d of Delta_d for every d, then shifted by the mean; the result
    has exactly the Kronecker vec-covariance.  ``rng`` needs only a
    ``standard_normal(shape)`` method.

    Returns one (n_1, ..., n_D) array when ``size`` is None, else the
    stacked (size, n_1, ..., n_D) array of ``size`` draws.
    """
    n = 1 if size is None else int(size)
    u = np.asarray(rng.standard_normal((n,) + params.dims), dtype=np.float64)
    for d, L in enumerate(params.chol_factors()):
        u = multiply_axis(u, L, axis=d + 1)
    u += params.mean
    return u[0] if size is None else u
