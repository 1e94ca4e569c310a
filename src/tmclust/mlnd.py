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
from :func:`log_density_consts`.  A fresh workspace, as
:func:`log_density_batch` and a model's ``loglik_matrix`` use, centres and
whitens every row from scratch in two block buffers.  A fit's workspace
holds each group's centred support, the observations whose weight is not
exactly zero, whitened on every mode but the one being updated;
:func:`_scatter_one` advances all supports at once by the new L_d^{-1} and
the old L_{d+1}, one call per mode pass and none by an identity.  A
group's other observations are whitened from scratch for the E-step, or
not at all where a bound carried from the last E-step (Elkan's
triangle-inequality bounds for k-means, 2003) proves that their
responsibility underflows to 0.0 (:meth:`SweepWorkspace._unskipped`).
Every pass goes through :func:`_solve_mode`; :func:`chol_lower` and
:func:`inv_lower` also take (G, n, n) stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .mda import _as_array, _fibres, as_batch, multiply_axis

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
    """Inverse of a lower Cholesky factor (or of each of a stack); ``tril``
    drops the round-off the pivoted LU inverse can leave above the diagonal."""
    return np.tril(np.linalg.inv(L))


def _check_stacks(means, scales) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """G components' means as one C-contiguous float64 (G, n_1, ..., n_D)
    array and their per-dimension scales, each a (G, n_d, n_d) stack or G
    matrices, as float64 stacks (views where they are already).  ValueError
    names the first rule broken: a finite mean of order D >= 2, and D stacks
    of G square n_d x n_d matrices, each finite and symmetric."""
    means = np.ascontiguousarray(means, dtype=np.float64)
    dims = means.shape[1:]
    if len(dims) < 2:
        raise ValueError(f"the mean must have order >= 2, got order {len(dims)}")
    if not np.isfinite(means).all():
        raise ValueError("the mean holds a NaN or infinite entry")
    if len(scales) != len(dims):
        raise ValueError(f"got {len(scales)} scale matrices for an order-{len(dims)} mean")
    stacks = []
    for dim, (stack, n) in enumerate(zip(scales, dims), 1):
        name = f"scale matrix for dimension {dim}"
        for shape in [np.shape(mat) for mat in stack]:
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"{name} must be square, got {shape}")
            if shape[0] != n:
                raise ValueError(f"{name} has extent {shape[0]}, expected {n}")
        stack = np.asarray(stack, dtype=np.float64).reshape(-1, n, n)
        if len(stack) != len(means):
            raise ValueError(f"got {len(stack)} scales of dimension {dim} for {len(means)} groups")
        if not np.isfinite(stack).all():
            raise ValueError(f"{name} holds a NaN or infinite entry")
        top = np.abs(stack).max(axis=(1, 2), initial=1.0)
        if np.any(np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2)) > _SYM_TOL * top):
            raise ValueError(f"{name} is not symmetric")
        stacks.append(stack)
    return means, tuple(stacks)


@dataclass(eq=False)
class MlndParams:
    """Parameters of one multilinear normal component: the ``mean`` array
    of shape ``dims`` and order D >= 2 (kept C-contiguous float64) and the
    symmetric positive-definite ``scales`` (Delta_1, ..., Delta_D)."""

    mean: np.ndarray
    scales: tuple[np.ndarray, ...]

    def __post_init__(self):
        scales = [np.asarray(s, dtype=np.float64)[None] for s in self.scales]
        means, stacks = _check_stacks(np.asarray(self.mean)[None], scales)
        self.mean, self.scales = means[0], tuple(stack[0] for stack in stacks)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mean.shape

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


def _solve_mode(values: np.ndarray, factors: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Apply each group's factor along one axis of its array: the one
    whitening pass (the EM sweep also passes L, to undo one)."""
    return multiply_axis(values, factors, axis, out)


class SweepWorkspace:
    """The buffers of one fit's whitening sweep.

    A group sweeps only its support, the rows of non-zero weight.  All groups
    sweep at once, in blocks (G', n_1, ..., n_{D-1}, b, n_D) of at most
    ``_BLOCK_BYTES`` (one row per group at least) stacking the G' groups with
    rows in them, column j holding each one's j-th; a group whose rows end
    inside a block is padded with the index N, read as row N-1 with weight
    0, whose forms land in a discarded row.  ``axes`` gives each mode's block
    axis, ``blocks`` the (rows, groups, weights, buffer, held block) of the
    supports, held in ``held`` from the first :meth:`restrict` on.  The
    (N, G) mask ``idle`` marks each group's rest (before any sweep, all
    rows), which :meth:`quad_matrix` whitens in the two block buffers.
    """

    def __init__(self, batch: np.ndarray, n_groups: int):
        self.batch = batch
        n, d = len(batch), batch.ndim - 1
        self.step = min(n, max(1, _BLOCK_BYTES // (n_groups * batch[0].nbytes)))
        self.axes = (*range(1, d), d + 1)
        self.held = None
        self.bufs = np.empty((2, n_groups * self.step * batch[0].size))
        self.blocks = []
        self.idle = np.ones((n, n_groups), dtype=bool)
        self.bound, self.last = 0.0, None

    def restrict(self, z: np.ndarray) -> None:
        """Make each group's support the rows where its column of the (N, G)
        ``z`` is not zero; a block's (G', 1, b n_D) weights, None if all are
        exactly 1, repeat along the last mode to weigh rows of b n_D entries."""
        if self.held is None:
            self.held = np.empty((self.idle.shape[1], self.batch.size))
        self.idle = z == 0
        padded = np.concatenate([z, np.zeros((1, z.shape[1]))])  # row N weighs the padding
        groups, start, self.blocks = np.arange(z.shape[1])[:, None], 0, []
        for rows, act, tmp, _ in self.carve(~self.idle):
            w = padded[rows, groups[act]]
            weights = None if np.all(w == 1.0) else np.repeat(w, tmp.shape[-1], axis=1)[:, None]
            held = self.held.reshape(-1)[start : start + tmp.size].reshape(tmp.shape)
            self.blocks.append((rows, act, weights, tmp, held))
            start += tmp.size

    def carve(self, mask: np.ndarray) -> list:
        """(rows, groups, buffer, spare) of each block of the (N, G) ``mask``'s
        pairs, the two buffers viewed in its shape: ``groups`` indexes the
        groups with pairs in it (a full slice if all have), ``rows`` their
        rows in ascending order, then N.  Blocks split the columns evenly, so
        none is one column wide unless ``step`` or the widest group is."""
        counts = np.count_nonzero(mask, axis=0)
        width = int(counts.max(initial=0))
        count = -(-width // self.step)
        if not count:
            return []
        order = np.argsort(~mask, axis=0, kind="stable")[:width].T
        rows = np.where(np.arange(width) < counts[:, None], order, len(mask))
        blocks, dims = [], self.batch.shape[1:]
        for lo, hi in [(j * width // count, (j + 1) * width // count) for j in range(count)]:
            act = slice(None) if counts.min() > lo else np.flatnonzero(counts > lo)
            shape = (len(rows[act]), *dims[:-1], hi - lo, dims[-1])
            bufs = (buf[: math.prod(shape)].reshape(shape) for buf in self.bufs)
            blocks.append((rows[act, lo:hi], act, *bufs))
        return blocks

    def whiten(self, out, spare, passes, act, rows=None, means=None):
        """Apply the (factor stack, axis) ``passes`` at the block's groups
        ``act``, ping-ponging so the last ends in ``out``, to the batch's
        ``rows`` minus ``means`` (gathered and centred row-first in the other
        buffer, then moved), or without ``means`` to the first pass's input:
        ``out`` if the passes are even.  ``take`` allocates unless told to
        clip, which also reads the padding index N as row N-1."""
        src, dst = (spare, out) if len(passes) % 2 else (out, spare)
        if means is not None:
            (g, b), centred = rows.shape, dst.reshape(rows.shape + (-1,))
            np.take(self.batch, rows.ravel(), axis=0, out=centred.reshape(-1, *means.shape[1:]),
                    mode="clip")
            np.subtract(centred, means[act].reshape(g, 1, -1), out=centred)
            run = np.dtype((np.void, 8 * means.shape[-1]))  # n_D entries moved as one, 2x faster
            np.copyto(src.view(run).reshape(g, -1, b), centred.view(run).swapaxes(1, 2))
        for factors, axis in passes:
            _solve_mode(src, factors[act], axis, out=dst)
            src, dst = dst, src

    def quad_matrix(self, means: np.ndarray, invs, offsets, chols) -> np.ndarray:
        """The (N, G) Mahalanobis quadratic forms of an E-step, given the
        (G, n_1, ..., n_D) new means, the per-dimension (G, n_d, n_d) stacks
        of the new L_d^{-1} and L_d, and the (G,) ``offsets`` log pi_k + c_k.

        The supports lack only the last mode's pass, with the new L_D^{-1}.
        The rests (in a fresh workspace, all rows) are centred and whitened
        on every mode, except, from the second call on, a pair whose entry
        offsets_k - Q_ik / 2 provably sits _SKIP_NATS below its row's best
        (:meth:`_unskipped`): its form is +inf.
        """
        if means.shape[1:] != self.batch.shape[1:]:
            raise ValueError(f"batch has dims {self.batch.shape[1:]}, expected {means.shape[1:]}")
        n, groups = len(self.batch), np.arange(len(means))[:, None]
        quad = np.full((n + 1, len(means)), np.inf)  # row N takes the padding's forms
        for rows, act, _, tmp, held in self.blocks:
            self.whiten(tmp, held, [(invs[-1], self.axes[-1])], act)
            quad[rows, groups[act]] = _column_norms(tmp)
        todo = self._unskipped(quad[:n], means, invs, offsets, chols)
        for rows, act, tmp, spare in self.carve(todo):
            self.whiten(tmp, spare, list(zip(invs, self.axes)), act, rows, means)
            quad[rows, groups[act]] = _column_norms(tmp)
        self.bound = np.where(self.idle & ~todo, self.bound, np.sqrt(quad[:n]))
        return quad[:n]

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
    """The (G', b) squared norms of a block's observations."""
    g, b, n_last = len(block), block.shape[-2], block.shape[-1]
    rows = block.reshape(g, -1, b * n_last)
    return np.einsum("gpk,gpk->gk", rows, rows).reshape(g, b, n_last).sum(axis=2)


def _scatter_one(work: SweepWorkspace, dim: int, means, z, invs, chols) -> np.ndarray:
    """The (G, n_d, n_d) unnormalized weighted scatters sum_i z_ik (...) for
    ``dim``, from the per-dimension (G, n_d, n_d) stacks ``invs`` and
    ``chols`` of L_d^{-1} and L_d, new below ``dim`` and old from it on;
    an L^{-1} of None marks identity scales, whose passes are skipped.

    First advances the held supports: dimension 1 takes them from ``z``,
    centres them and whitens modes 2..D; a later one applies the new
    L_{dim-1}^{-1}, then the old L_dim to undo that mode (a lone pass ends in
    the other buffer, copied back).  That buffer then takes the Gram's second
    operand, the weighted block, or a copy where every weight is 1.
    """
    axes, n_d = work.axes, means.shape[dim]
    if dim == 1:
        work.restrict(z)
        modes, factors = range(1, len(axes)), invs[1:]
    else:
        modes, factors = (dim - 2, dim - 1), (invs[dim - 2], chols[dim - 1])
    passes = [(f, axes[m]) for m, f in zip(modes, factors) if invs[m] is not None]
    scatters = np.zeros((len(means), n_d, n_d))
    for rows, act, weights, tmp, block in work.blocks:
        if dim > 1 and len(passes) == 1:
            work.whiten(tmp, block, passes, act)
            np.copyto(block, tmp)
        else:
            work.whiten(block, tmp, passes, act, rows, means if dim == 1 else None)
            if weights is None:
                np.copyto(tmp, block)
        if weights is not None:
            view = (len(block), -1, weights.shape[-1])
            np.multiply(block.reshape(view), weights, out=tmp.reshape(view))
        fibres, weighted = _fibres(block, axes[dim - 1]), _fibres(tmp, axes[dim - 1])
        scatters[act] += np.matmul(fibres, weighted.swapaxes(2, 3)).sum(axis=1)
    return (scatters + scatters.transpose(0, 2, 1)) / 2.0


def log_density(x, params: MlndParams) -> float:
    """Log density of one observation under a multilinear normal law."""
    return float(log_density_batch(_as_array(x)[None], params)[0])


def log_density_batch(batch: np.ndarray, params: MlndParams) -> np.ndarray:
    """Log densities for a stacked batch of shape (N, n_1, ..., n_D), whose
    quadratic forms a fresh one-group workspace whitens from scratch."""
    batch = as_batch(batch)
    chols = [L[None] for L in params.chol_factors()]
    invs = [inv_lower(L) for L in chols]
    const = log_density_consts(chols)
    quad = SweepWorkspace(batch, 1).quad_matrix(params.mean[None], invs, const, chols)[:, 0]
    return const[0] - 0.5 * quad


def sample(params: MlndParams, rng, size: int | None = None):
    """Draw by colouring iid standard normals: u is multiplied in each mode
    d by L_d and shifted by the mean, which gives exactly the Kronecker
    vec-covariance.  ``rng`` needs only ``standard_normal(shape)``.  Returns
    one (n_1, ..., n_D) array when ``size`` is None, else (size, n_1, ...)."""
    n = 1 if size is None else int(size)
    u = np.asarray(rng.standard_normal((n,) + params.dims), dtype=np.float64)
    for d, L in enumerate(params.chol_factors()):
        u = multiply_axis(u, L, axis=d + 1)
    u += params.mean
    return u[0] if size is None else u
