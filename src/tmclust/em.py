"""EM fitting of finite mixtures of multilinear normal components.

The loop alternates a soft E-step (log-sum-exp responsibilities) with a
cyclic conditional M-step sweep — weights, then means, then the scale matrix
of each dimension in order by its family's update in :data:`FAMILIES`, every
update using the freshest estimates — so the observed log-likelihood is
monotone.  :data:`FAMILIES` is the one place a scale family is defined: its
update and singularity repair, parameter count and factor record.  A scale
stack is the only state of a fitted scale: a family's record (such as the
MCD families' T and delta) is derived from it, in one place, whenever a
:class:`MixtureModel` is built.  Stopping uses the Aitken estimate of the
asymptotic log-likelihood.  The Kronecker rescaling indeterminacy is
resolved once after convergence by rescaling every non-leading scale
matrix to a unit leading entry, one stack at a time for all groups.

The sweep whitens incrementally in one :class:`~tmclust.mlnd.SweepWorkspace`
per fit: 3D-2 mode passes per group and iteration instead of D^2, the last
giving the E-step's quadratic forms, and no temporary the size of the batch.
A group sweeps only the observations whose responsibility is not exactly
zero, since the others add nothing to its means and scatters; the E-step
whitens those once with the new factors, or not at all where a bound
carried from the last E-step proves that their responsibility underflows
to 0.0 (:meth:`~tmclust.mlnd.SweepWorkspace.quad_matrix`).  One
``_scatter_one`` call per dimension reads the state's factor stacks and
returns its (G, n_d, n_d) scatters.  The workspace holds observation-last
blocks, so the number of matrix products per pass does not grow with N.

The loop keeps its state as arrays: the weights, the (G, n_1, ..., n_D)
means and, per dimension, (G, n_d, n_d) stacks of the scales, their Cholesky
factors L — from the one batched Cholesky that checks each new stack — and
the inverses, beside the workspace.  :func:`e_step` takes that state or a
:class:`MixtureModel`, whose densities come from fresh workspaces, one per
component.  At exit the scale stacks are normalized and the
:class:`MixtureModel` is built from them, once per fit;
:func:`normalize_identifiability` runs the same normalization on a built
model's stacks.

A fit runs numpy's OpenBLAS on one thread (restoring the caller's count on
exit): its products are small, and a second BLAS thread only spins.  Its
k-means init steps on the N x N Gram matrix when N <= n*, so no product
of a Lloyd step reads the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._blas import one_blas_thread
from ._fields import _convert_field, _count, _integer, _items, _number
from .errors import EmptyComponentError, NotPositiveDefiniteError, SingularScaleError
from .mda import as_batch
from .mlnd import (
    MlndParams,
    SweepWorkspace,
    _scatter_one,
    chol_lower,
    inv_lower,
    log_density_batch,
    log_density_consts,
)
from .parsimony import (
    McdFactors,
    ScaleModel,
    SharedMcdFactors,
    gpcm_eee_update,
    gpcm_vvi_update,
    mcd_evi_update,
    mcd_vvi_update,
)

_EMPTY_FIT_TOL = 1e-6  # fit-level abort threshold on n_g / N
_MEMBER_RTOL = 1e-8  # a record rebuilds a member's scale to round-off (see _ldl_reach)


@dataclass(frozen=True)
class FitOptions:
    """Knobs for one EM run.

    The two counts are integers >= 1 and the two epsilons real numbers (a
    bool is neither).  ``seed`` feeds a ``numpy.random.SeedSequence`` (an
    integer >= 0 or a non-empty tuple of them, a list read as a tuple), so
    derived seeds for scans and simulation replicates stay counter-based and
    reproducible.  Counts and seeds may be numpy integers; they are stored
    as Python ints.
    """

    max_iterations: int = 500
    aitken_epsilon: float = 1e-5
    reg_epsilon: float = 1e-3
    kmeans_restarts: int = 10
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        for name in ("max_iterations", "kmeans_restarts"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("aitken_epsilon", "reg_epsilon"):
            _convert_field(self, name, "a number", _number, ValueError)
        if not self.aitken_epsilon > 0:
            raise ValueError("aitken_epsilon must be > 0")
        if not 0 < self.reg_epsilon <= 0.1:
            raise ValueError("reg_epsilon must lie in (0, 0.1]")
        listed = isinstance(self.seed, (list, tuple))
        try:
            parts = _items(self.seed) if listed else (_integer(self.seed),)
        except TypeError:
            parts = ()
        if not parts or min(parts) < 0:
            raise ValueError(f"seed must be one or more integers >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", parts if listed else parts[0])

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))


@dataclass(frozen=True)
class SingularEvent:
    """One repaired near-singular scale estimate; ``group`` is None when the
    matrix is shared across groups."""

    group: int | None
    dim: int
    iteration: int


@dataclass(eq=False)
class MixtureModel:
    """A fitted (or constructed) mixture of multilinear normal components.

    ``factors`` maps each dimension (1-based) whose family keeps a factor
    record to the record of its scale stack, derived from the scales by
    ``FAMILIES[spec].record`` on construction; the scales are the only state.
    A scale that is not a member of its family raises ValueError naming it.
    """

    weights: np.ndarray
    components: tuple[MlndParams, ...]
    specs: tuple[ScaleModel, ...] = ()
    factors: dict[int, object] = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.components = tuple(self.components)
        if self.weights.ndim != 1 or self.weights.size != len(self.components):
            raise ValueError("need one weight per component")
        if not (np.all(self.weights > 0) and abs(float(self.weights.sum()) - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to 1")  # NaN is not positive
        dims = self.components[0].dims
        if any(comp.dims != dims for comp in self.components):
            raise ValueError("all components must share the same dims")
        self.specs = tuple(ScaleModel(s) for s in (self.specs or [ScaleModel.VVV] * len(dims)))
        if len(self.specs) != len(dims):
            raise ValueError(f"got {len(self.specs)} specs for {len(dims)} dimensions")
        self.factors = {}
        for d0, spec in enumerate(self.specs):
            stack = np.stack([c.scales[d0] for c in self.components])
            try:
                record = FAMILIES[spec].record(stack)
            except ValueError as exc:
                raise ValueError(f"{spec.value} scale of dimension {d0 + 1}: {exc}") from None
            if record is not None:
                self.factors[d0 + 1] = record

    @property
    def n_groups(self) -> int:
        return len(self.components)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.components[0].dims


@dataclass
class FitReport:
    """Diagnostics of one EM run."""

    loglik_trace: np.ndarray
    converged: bool
    n_iterations: int
    singular_events: list[SingularEvent]
    rho: int
    bic: float
    labels: np.ndarray
    responsibilities: np.ndarray

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


# --- initialization ---------------------------------------------------------


def _group_count(n_groups, n_obs: int) -> int:
    """G by the one count rule, and at most N."""
    g = _count("n_groups", n_groups)
    if g > n_obs:
        raise ValueError(f"need 1 <= G <= N, got G={g}, N={n_obs}")
    return g


def init_kmeans(data, n_groups: int, options: FitOptions | None = None, rng=None) -> np.ndarray:
    """Hard (0/1) responsibilities from Lloyd's k-means on vectorizations.

    Runs ``options.kmeans_restarts`` restarts from random distinct
    observations and keeps the assignment with the lowest within-cluster sum
    of squares.  Deterministic given the generator state; ties keep the
    first-found solution.  Distances are |v|^2 - 2 v.c + |c|^2.  When
    N <= n*, the steps run on the N x N Gram matrix, computed once and no
    larger than the batch: a centre is a mean of rows, so its products with
    the rows are the same mean of Gram columns (kernel k-means with a linear
    kernel).  Otherwise the centres and the products come from GEMMs on the
    batch.  Either way no temporary is larger than the batch.
    """
    options = options or FitOptions()
    batch = as_batch(data)
    n = batch.shape[0]
    g = _group_count(n_groups, n)
    rng = rng if rng is not None else options.rng()
    v = batch.reshape(n, -1)
    # seed(rows) and step(one_hot, sizes) give the centres' products with
    # every row (N, G) and their squared norms (G,)
    if n <= v.shape[1]:
        gram = v @ v.T
        v_sq = gram.diagonal()

        def seed(rows):
            return gram[:, rows], v_sq[rows]

        def step(one_hot, sizes):
            member = one_hot / sizes
            cross = gram @ member
            return cross, np.einsum("ik,ik->k", member, cross)

    else:
        v_sq = np.einsum("ij,ij->i", v, v)

        def products(centers):
            return v @ centers.T, np.einsum("kj,kj->k", centers, centers)

        def seed(rows):
            return products(v[rows])

        def step(one_hot, sizes):
            return products((one_hot.T @ v) / sizes[:, None])

    best_inertia = np.inf
    best_labels = None
    for _ in range(options.kmeans_restarts):
        cross, c_sq = seed(rng.choice(n, size=g, replace=False))
        labels = None
        for _ in range(100):
            d2 = v_sq[:, None] - 2.0 * cross + c_sq
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
            cross, c_sq = step(np.eye(g)[labels], sizes)
        else:
            d2 = v_sq[:, None] - 2.0 * cross + c_sq
        inertia = float(d2[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    z = np.zeros((n, g))
    z[np.arange(n), best_labels] = 1.0
    return z


# --- E-step ------------------------------------------------------------------


@dataclass
class _Stacks:
    """The EM loop's state: weights (G,), means (G, n_1, ..., n_D), per
    dimension (G, n_d, n_d) stacks of the scales, their Cholesky factors L
    and the inverses L^{-1}, and the fit's sweep workspace."""

    weights: np.ndarray
    means: np.ndarray
    scales: list
    chols: list
    invs: list
    work: SweepWorkspace


def loglik_matrix(data, model: MixtureModel | _Stacks):
    """(N, G) matrix of log(pi_g) + per-component log densities.

    A :class:`MixtureModel`'s entries come from :func:`log_density_batch`,
    one fresh workspace per component.  Inside ``fit``, ``model`` is the
    loop's state, whose workspace lacks only the last mode's whitening of
    each group's support: one pass gives those quadratic forms, and only the
    rows of zero responsibility are centred and whitened from scratch, or
    skipped with entry -inf where their responsibility provably underflows
    to 0 (:meth:`~tmclust.mlnd.SweepWorkspace.quad_matrix`).
    """
    if isinstance(model, _Stacks):
        logw, consts = np.log(model.weights), log_density_consts(model.chols)
        quad = model.work.quad_matrix(model.means, model.invs, logw + consts, model.chols)
        return logw + (consts - 0.5 * quad)
    batch = as_batch(data)
    return np.log(model.weights) + np.column_stack(
        [log_density_batch(batch, comp) for comp in model.components]
    )


def e_step(data, model: MixtureModel | _Stacks):
    """Responsibilities and observed log-likelihood, evaluated in log space;
    ``model`` as in :func:`loglik_matrix`."""
    lm = loglik_matrix(data, model)
    top = lm.max(axis=1)
    top[~np.isfinite(top)] = 0.0  # a row of -inf then sums to log(0) = -inf
    with np.errstate(divide="ignore"):
        tot = top + np.log(np.exp(lm - top[:, None]).sum(axis=1))
    if not np.all(np.isfinite(tot)):
        bad = int(np.flatnonzero(~np.isfinite(tot))[0])
        raise FloatingPointError(
            f"observation {bad} has zero density under every component"
        )
    z = np.exp(lm - tot[:, None])
    return z, float(tot.sum())


# --- M-step ------------------------------------------------------------------


def aitken_stop(window: Sequence[float], epsilon: float) -> bool:
    """Aitken-accelerated stopping rule on the last three log-likelihoods.

    With window (a, b, c) the acceleration is (c-b)/(b-a) and the projected
    asymptote is b + (c-b)/(1-acc); stop when the projected remaining gain
    lies in [0, epsilon).  Degenerate windows (acc >= 1, zero denominator)
    continue, except an exact plateau, which stops.
    """
    a, b, c = (float(v) for v in window)
    if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(c)):
        raise ValueError("aitken_stop needs three finite log-likelihood values")
    if a == b == c:
        return True
    denom = b - a
    if denom == 0.0:
        return False
    acc = (c - b) / denom
    if acc >= 1.0:
        return False
    gap = (c - b) / (1.0 - acc)  # = projected asymptote - b
    return 0.0 <= gap < epsilon


def _factor(
    stack: np.ndarray, flags: np.ndarray, reg_epsilon: float, reset: np.ndarray | None = None
):
    """``(stack, L, flags)``, L the stack's lower Cholesky factors from one
    batched call.  If a matrix is flagged or the call fails, every matrix
    without a factor of its own is flagged too; the flagged ones get
    ``reg_epsilon * I`` added (or become ``reg_epsilon * reset``, if a
    ``reset`` matrix is given) in a copy, which is factored."""
    if not flags.any():
        try:
            return stack, chol_lower(stack), flags
        except NotPositiveDefiniteError:
            pass
    for k, mat in enumerate(stack):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            flags[k] = True
    stack = stack.copy()
    ridge = reg_epsilon * np.eye(stack.shape[-1])
    stack[flags] = reg_epsilon * reset if reset is not None else stack[flags] + ridge
    return stack, chol_lower(stack), flags


def regularize_and_check(
    stack: np.ndarray, reg_epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repair near-singular symmetric scale estimates with a ridge.

    ``stack`` is a (G, n, n) stack, checked with one batched SVD and one
    batched Cholesky.  A matrix whose inverse condition number
    (smallest/largest singular value) falls below machine epsilon — or whose
    Cholesky factorization fails outright — gets ``reg_epsilon * I`` added
    and its flag set.  Returns the stack, its Cholesky factors L and the (G,)
    bool flags; a repaired stack without factors raises :class:`SingularScaleError`.
    """
    stack = np.asarray(stack, dtype=np.float64)
    svals = np.linalg.svd(stack, compute_uv=False)
    smax = svals[:, 0]
    invcond = np.divide(svals[:, -1], smax, out=np.zeros_like(smax), where=smax > 0)
    flags = ~(invcond >= np.finfo(np.float64).eps)
    try:
        return _factor(stack, flags, reg_epsilon)
    except NotPositiveDefiniteError:
        raise SingularScaleError("scale matrix is not positive definite after regularization")


# --- scale families -------------------------------------------------------------


class _Family:
    """One scale family's M-step, parameter count and factor record.

    ``update(lams, counts, n_obs, n_star, previous, reg_epsilon)`` is the
    M-step of one dimension from the (G, n_d, n_d) scatters Lambda_g, the
    group sizes n_g and the dimension's previous (G, n_d, n_d) scale stack
    (the identity at first).  It returns ``(scales, chols, flagged)``: the
    stacks of new scales and of their Cholesky factors L from one batched
    call, and the repaired groups (group None for a shared matrix).
    ``n_params(n_d, G)`` counts free parameters.  ``record(scales)`` is the
    factor record of a scale stack, or None if the family keeps none: the
    family's own estimator run on the scales at n* = n_d, which returns a
    family member's own parameters, up to round-off; a scale that it does not
    reconstruct is not a member, and ValueError names its group.  The
    estimators and ``regularize_and_check`` are looked up in this module's
    globals at call time, so wrappers set on them see every call.
    """

    def record(self, scales):
        return None


def _require_members(scales: np.ndarray, members: np.ndarray, reach=None) -> None:
    """ValueError naming the first group whose scale misses ``members``, the
    family members its record describes, by more than _MEMBER_RTOL of its
    ``reach`` (G,), by default its largest entry."""
    miss = np.abs(members - scales).max(axis=(1, 2))
    reach = np.abs(scales).max(axis=(1, 2)) if reach is None else reach
    bad = np.flatnonzero(~(miss <= _MEMBER_RTOL * reach))
    if bad.size:
        raise ValueError(
            f"group {bad[0]} is not a member of the family (its record misses its scale "
            f"by {miss[bad[0]]:.2g}, beyond its tolerance {_MEMBER_RTOL * reach[bad[0]]:.2g})"
        )


def _ldl_reach(t: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The (G,) largest entries of delta |C| diag(g) |C|', C = T^{-1} and
    g_j = sum_k (|T| |C|)_jk^2: the LDL' backward-error scale delta |C| |C|'
    carried through the pivots.  Round-off E in a member's entries, at most
    eps delta |C| |C|', moves pivot j by (T E T')_jj, at most eps delta g_j,
    and the record, delta C C' with delta their mean, misses by
    C (D - delta I) C'.  The test suite's MCD members miss by at most 4.3e-16
    of this, 200 random 6 x 6 members (median condition number 5e9) by
    2.2e-15, and 2000 random SPD non-members by at least 7.8e-4."""
    c = np.abs(np.linalg.inv(t))
    g = ((np.abs(t) @ c) ** 2).sum(axis=-1)
    return deltas * ((c * g[..., None, :]) @ c.swapaxes(-1, -2)).max(axis=(-2, -1))


class _Vvv(_Family):
    def update(self, lams, counts, n_obs, n_star, previous, reg_epsilon):
        scales, chols, flags = regularize_and_check((lams.shape[1] / n_star) * lams, reg_epsilon)
        return scales, chols, np.flatnonzero(flags).tolist()

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_groups * n_d * (n_d + 1) // 2


class _Eee(_Family):
    def update(self, lams, counts, n_obs, n_star, previous, reg_epsilon):
        pooled = gpcm_eee_update(lams, counts, n_obs, n_star)
        new, chol, repaired = regularize_and_check(pooled[None], reg_epsilon)
        new, chol = (np.repeat(a, len(lams), axis=0) for a in (new, chol))
        return new, chol, [None] if repaired[0] else []

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_d * (n_d + 1) // 2


class _McdVvi(_Family):
    def update(self, lams, counts, n_obs, n_star, previous, reg_epsilon):
        _, deltas, shapes = mcd_vvi_update(lams, n_star)
        scales, chols, flags = _factor(
            deltas[:, None, None] * shapes, ~(deltas > 0), reg_epsilon, np.eye(lams.shape[1])
        )
        return scales, chols, np.flatnonzero(flags).tolist()

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_groups * (n_d * (n_d - 1) // 2 + 1)

    def record(self, scales):
        t, deltas, shapes = mcd_vvi_update(scales, scales.shape[1])
        _require_members(scales, deltas[:, None, None] * shapes, _ldl_reach(t, deltas))
        return tuple(McdFactors(tk, float(dk)) for tk, dk in zip(t, deltas))


class _McdEvi(_Family):
    def update(self, lams, counts, n_obs, n_star, previous, reg_epsilon):
        # a repaired group keeps the shared T, with delta_g = reg_epsilon
        _, deltas, shape = mcd_evi_update(lams, counts, previous[:, 0, 0], n_star)
        scales, chols, flags = _factor(
            deltas[:, None, None] * shape, ~(deltas > 0), reg_epsilon, shape
        )
        return scales, chols, np.flatnonzero(flags).tolist()

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_d * (n_d - 1) // 2 + n_groups

    def record(self, scales):
        ones = np.ones(len(scales))
        t, deltas, shape = mcd_evi_update(scales, ones, scales[:, 0, 0], scales.shape[1])
        _require_members(scales, deltas[:, None, None] * shape, _ldl_reach(t, deltas))
        return SharedMcdFactors(t=t, deltas=deltas)


class _GpcmVvi(_Vvv):
    def update(self, lams, counts, n_obs, n_star, previous, reg_epsilon):
        # the VVV update of the diagonal scatters
        diag = np.where(np.eye(lams.shape[1], dtype=bool), lams, 0.0)
        return super().update(diag, counts, n_obs, n_star, previous, reg_epsilon)

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_groups * n_d

    def record(self, scales):
        _require_members(scales, scales * np.eye(scales.shape[1]))
        return gpcm_vvi_update(scales, scales.shape[1])


FAMILIES = {
    ScaleModel.VVV: _Vvv(),
    ScaleModel.MCD_VVI: _McdVvi(),
    ScaleModel.MCD_EVI: _McdEvi(),
    ScaleModel.GPCM_EEE: _Eee(),
    ScaleModel.GPCM_VVI: _GpcmVvi(),
}


@dataclass(frozen=True)
class FreeParamCount:
    """Free-parameter tally: mixing weights, means, and per-dimension scales."""

    weights: int
    means: int
    per_dim: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.weights + self.means + sum(self.per_dim)


def free_params(specs: Sequence[ScaleModel], n_groups: int, dims: Sequence[int]) -> FreeParamCount:
    """Count free parameters for a (G, per-dimension spec) combination.

    Weights contribute G-1 and means G*n*; per-dimension scale contributions
    follow the table in :mod:`tmclust.parsimony`.  Redundant multiplicative
    constants across Kronecker factors are deliberately not subtracted.
    """
    dims = _items(dims, lambda n: _count("each dim", n))
    specs = tuple(specs)
    if len(specs) != len(dims):
        raise ValueError(f"got {len(specs)} specs for {len(dims)} dimensions")
    g = _count("n_groups", n_groups)
    per_dim = tuple(FAMILIES[s].n_params(n, g) for s, n in zip(specs, dims))
    return FreeParamCount(weights=g - 1, means=g * int(np.prod(dims)), per_dim=per_dim)


def bic(loglik: float, rho: int, n_obs: int) -> float:
    """Bayesian information criterion, 2*loglik - rho*log(N); larger is better."""
    if not np.isfinite(loglik):
        raise ValueError("loglik must be finite")
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    return 2.0 * float(loglik) - float(rho) * float(np.log(n_obs))


# --- identifiability ----------------------------------------------------------


def _normalize_stacks(scales: Sequence[np.ndarray]) -> list[np.ndarray]:
    """New per-dimension (G, n_d, n_d) scale stacks: every trailing stack
    divided by its groups' leading entries (pinned to exactly 1.0), the first
    multiplied by their product, taken in dimension order.  The first
    leading entry that is not positive (NaN included) in group-major order
    raises ValueError."""
    leads = np.stack([s[:, 0, 0] for s in scales[1:]], axis=1)  # (G, D-1)
    bad = np.argwhere(~(leads > 0))  # (group, dimension - 2) pairs, group-major; NaN too
    if bad.size:
        g, k = bad[0]
        raise ValueError(f"leading entry of scale {k + 2} in group {g} is not positive")
    out, prod = [], np.ones(len(leads))
    for stack, lead in zip(scales[1:], leads.T):
        out.append(stack / lead[:, None, None])
        out[-1][:, 0, 0] = 1.0
        prod = prod * lead
    return [scales[0] * prod[:, None, None]] + out


def _mixture(weights, means, scales, specs=()) -> MixtureModel:
    """The mixture of per-group means and per-dimension scale stacks, with
    the symmetry checks of :class:`MlndParams`."""
    components = tuple(
        MlndParams(mean, tuple(stack[k] for stack in scales)) for k, mean in enumerate(means)
    )
    return MixtureModel(weights, components, specs)


def normalize_identifiability(model: MixtureModel) -> MixtureModel:
    """Resolve the Kronecker rescaling indeterminacy.

    For every group and every dimension k >= 2, the scale matrix is divided
    by its leading entry (pinned to exactly 1.0) and the first dimension's
    matrix absorbs the product of those entries, leaving the Kronecker
    product — and therefore every density value — unchanged.  The factor
    records are derived from the new scales, as for any model.  Idempotent.
    """
    comps = model.components
    scales = _normalize_stacks([np.stack(dim) for dim in zip(*(c.scales for c in comps))])
    return _mixture(model.weights.copy(), [c.mean for c in comps], scales, model.specs)


# --- the full loop ------------------------------------------------------------


@one_blas_thread()
def fit(
    data,
    n_groups: int,
    specs: Sequence[ScaleModel | str] | None = None,
    options: FitOptions | None = None,
    init_z: np.ndarray | None = None,
) -> tuple[MixtureModel, FitReport]:
    """Fit a G-component mixture with per-dimension scale families.

    Parameters
    ----------
    data : ndarray (N, n_1, ..., n_D), or a sequence of N arrays of one shape
    n_groups : int
    specs : sequence of ScaleModel or tokens, optional
        One family per dimension; defaults to all-VVV.
    options : FitOptions, optional
    init_z : ndarray (N, G), optional
        Initial responsibilities, finite and non-negative with rows that sum
        to 1; defaults to k-means hard assignments.
        Mainly for symmetry tests and warm starts.

    Returns
    -------
    (MixtureModel, FitReport)
        The model is identifiability-normalized; the report carries the
        log-likelihood trace, convergence flag, singularity events, MAP
        labels, rho and BIC.
    """
    options = options or FitOptions()
    batch = as_batch(data)
    if not np.all(np.isfinite(batch)):
        raise ValueError("data contains non-finite values")
    n = batch.shape[0]
    dims = batch.shape[1:]
    d_count = len(dims)
    n_star = int(np.prod(dims))
    g = _group_count(n_groups, n)
    if specs is None:
        specs = [ScaleModel.VVV] * d_count
    specs = tuple(ScaleModel(s) if not isinstance(s, ScaleModel) else s for s in specs)
    if len(specs) != d_count:
        raise ValueError(f"got {len(specs)} specs for {d_count} dimensions")

    if init_z is None:
        z = init_kmeans(batch, g, options)
    else:
        z = np.asarray(init_z, dtype=np.float64)
        if z.shape != (n, g):
            raise ValueError(f"init_z must have shape {(n, g)}")
        if not (z.min() >= 0 and z.max() < np.inf):  # NaN fails both
            raise ValueError("init_z must hold finite, non-negative entries")

    eyes = [np.broadcast_to(np.eye(n_d), (g, n_d, n_d)) for n_d in dims]
    state = _Stacks(None, None, list(eyes), list(eyes), list(eyes), SweepWorkspace(batch, g))
    events: list[SingularEvent] = []
    trace: list[float] = []
    converged = False
    iteration = 0

    for iteration in range(1, options.max_iterations + 1):
        counts = z.sum(axis=0)
        if np.any(counts < _EMPTY_FIT_TOL * n):
            worst = int(counts.argmin())
            raise EmptyComponentError(
                f"component {worst} collapsed (effective size {counts[worst]:.3e}) "
                f"at iteration {iteration}",
                group=worst,
                iteration=iteration,
            )
        state.weights = counts / n
        if abs(float(state.weights.sum()) - 1.0) > 1e-12:  # an init_z whose rows do not sum to 1
            raise ValueError("weights must be positive and sum to 1")
        flat = batch.reshape(n, -1)
        state.means = means = ((z.T @ flat) / counts[:, None]).reshape((g,) + dims)

        for d0, spec in enumerate(specs):
            dim = d0 + 1
            raws = _scatter_one(state.work, dim, means, z, state.invs, state.chols)
            news, L, flagged = FAMILIES[spec].update(
                raws / counts[:, None, None], counts, n, n_star, state.scales[d0],
                options.reg_epsilon,
            )
            events.extend(SingularEvent(k, dim, iteration) for k in flagged)
            state.scales[d0], state.chols[d0], state.invs[d0] = news, L, inv_lower(L)

        z, ll = e_step(batch, state)
        trace.append(ll)
        if len(trace) >= 3 and aitken_stop(trace[-3:], options.aitken_epsilon):
            converged = True
            break

    model = _mixture(state.weights, state.means, _normalize_stacks(state.scales), specs)
    labels = z.argmax(axis=1)
    rho = free_params(specs, g, dims).total
    report = FitReport(
        loglik_trace=np.asarray(trace),
        converged=converged,
        n_iterations=iteration,
        singular_events=events,
        rho=rho,
        bic=bic(trace[-1], rho, n),
        labels=labels,
        responsibilities=z,
    )
    return model, report


__all__ = [
    "FAMILIES",
    "FitOptions",
    "FitReport",
    "FreeParamCount",
    "MixtureModel",
    "SingularEvent",
    "aitken_stop",
    "bic",
    "e_step",
    "fit",
    "free_params",
    "init_kmeans",
    "loglik_matrix",
    "normalize_identifiability",
    "regularize_and_check",
]
