"""EM fitting of finite mixtures of multilinear normal components.

The loop alternates a soft E-step (log-sum-exp responsibilities) with a
cyclic conditional M-step sweep — weights, then means, then the scale matrix
of each dimension in order by its family's update in :data:`FAMILIES`, every
update using the freshest estimates — so the observed log-likelihood is
monotone.  :data:`FAMILIES` is the one place a scale family is defined: its
estimate, parameter count and factor record; one step,
:func:`regularize_and_check`, repairs and factors every family's estimate.
A scale stack is the only state of a fitted scale: a family's record (such
as the MCD families' T and delta) is derived from it, in one place,
whenever a :class:`MixtureModel` is built.  Stopping uses the Aitken
estimate of the asymptotic log-likelihood.  The Kronecker rescaling
indeterminacy is resolved once after convergence by rescaling every
non-leading scale matrix to a unit leading entry, one stack at a time for
all groups.

The sweep whitens incrementally in one :class:`~tmclust.mlnd.SweepWorkspace`
per fit, as :mod:`tmclust.mlnd` describes: 3D-2 mode passes per iteration
instead of D^2 (fewer in the first, which skips its identity factors), each
one call for all groups, and no temporary the size of the batch.  One
``_scatter_one`` call per dimension returns its (G, n_d, n_d) scatters.

A :class:`MixtureModel` holds the loop's arrays; the loop adds the factors
L that :func:`regularize_and_check` returns, their inverses and the
workspace.  :func:`e_step` evaluates that state, or a model's stacks in a
fresh workspace.  A fit builds its model once, from the normalized stacks.

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
    _check_stacks,
    _scatter_one,
    chol_lower,
    inv_lower,
    log_density_batch,  # noqa: F401 -- unused; the benchmark tracer looks it up here
    log_density_consts,
)
from .parsimony import (
    McdFactors,
    ScaleModel,
    SharedMcdFactors,
    family_specs,
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
    """A fitted (or constructed) mixture of G multilinear normal components:
    (G,) ``weights``, (G, n_1, ..., n_D) ``means`` and per-dimension
    (G, n_d, n_d) ``scales`` stacks (or G matrices each), checked by the
    rules of :class:`MlndParams`; ``components`` views group k as one.

    ``factors`` maps each dimension (1-based) whose family keeps a factor
    record to the record of its scale stack, derived by
    ``FAMILIES[spec].record`` on construction; the scales are the only state.
    A scale that is not a member of its family raises ValueError naming it.
    """

    weights: np.ndarray
    means: np.ndarray
    scales: tuple[np.ndarray, ...]
    specs: tuple[ScaleModel, ...] | None = None
    factors: dict[int, object] = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means, self.scales = _check_stacks(self.means, self.scales)
        if self.weights.ndim != 1 or self.weights.size != len(self.means):
            raise ValueError("need one weight per component")
        if not (np.all(self.weights > 0) and abs(float(self.weights.sum()) - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to 1")  # NaN is not positive
        self.specs = family_specs(self.specs, len(self.scales))
        self.factors = {}
        for dim, (spec, stack) in enumerate(zip(self.specs, self.scales), 1):
            try:
                record = FAMILIES[spec].record(stack)
            except ValueError as exc:
                raise ValueError(f"{spec.value} scale of dimension {dim}: {exc}") from None
            if record is not None:
                self.factors[dim] = record

    @property
    def n_groups(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.means.shape[1:]

    @property
    def components(self) -> tuple[MlndParams, ...]:
        return tuple(MlndParams(m, [s[k] for s in self.scales]) for k, m in enumerate(self.means))


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
    first-found solution.  Distances are |v|^2 - 2 v.c + |c|^2.  The centres
    are (N, G) weights on the rows, one-hot at the seeds, then one-hot /
    sizes.  When N <= n*, their products with the rows come from the N x N
    Gram matrix, computed once and no larger than the batch (kernel k-means
    with a linear kernel); otherwise from GEMMs on the batch.  Either way no
    temporary is larger than the batch.
    """
    options = options or FitOptions()
    batch = as_batch(data)
    n = batch.shape[0]
    g = _group_count(n_groups, n)
    rng = rng if rng is not None else options.rng()
    v = batch.reshape(n, -1)
    gram = v @ v.T if n <= v.shape[1] else None
    v_sq = gram.diagonal() if gram is not None else np.einsum("ij,ij->i", v, v)

    def products(member):  # centres member.T @ v: (N, G) products with the rows, (G,) norms^2
        cross = gram @ member if gram is not None else v @ (member.T @ v).T
        return cross, np.einsum("ik,ik->k", member, cross)

    best_inertia = np.inf
    best_labels = None
    for _ in range(options.kmeans_restarts):
        seeds = rng.choice(n, size=g, replace=False)
        cross, c_sq = products((np.arange(n)[:, None] == seeds).astype(float))
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
            cross, c_sq = products(np.eye(g)[labels] / sizes)
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
    and inverses L^{-1} (None for identity scales), and the sweep workspace."""

    weights: np.ndarray
    means: np.ndarray
    scales: list
    chols: list
    invs: list
    work: SweepWorkspace


def loglik_matrix(data, model: MixtureModel | _Stacks):
    """(N, G) matrix of log(pi_g) + per-component log densities, from one
    :meth:`~tmclust.mlnd.SweepWorkspace.quad_matrix` call: a
    :class:`MixtureModel`'s in a fresh workspace, which whitens every pair;
    the loop's state in its own, which whitens the last mode of each support
    and the rests, but not where they provably underflow to 0 (entry -inf).
    """
    if isinstance(model, MixtureModel):
        chols = [chol_lower(stack, dim=d + 1) for d, stack in enumerate(model.scales)]
        invs, work = [inv_lower(L) for L in chols], SweepWorkspace(as_batch(data), model.n_groups)
        model = _Stacks(model.weights, model.means, model.scales, chols, invs, work)
    logw, consts = np.log(model.weights), log_density_consts(model.chols)
    quad = model.work.quad_matrix(model.means, model.invs, logw + consts, model.chols)
    return logw + (consts - 0.5 * quad)


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


def regularize_and_check(
    stack: np.ndarray, reg_epsilon: float, flags: np.ndarray | None = None, reset=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one repair step: a family's (G, n, n) scale estimates, repaired,
    and their Cholesky factors L, returned as ``(stack, L, flags)``.

    ``flags`` (G,) marks the estimates to repair; without it, one batched SVD
    flags each whose inverse condition number is below machine epsilon.  One
    batched Cholesky factors a stack with no flag; otherwise, or if it fails,
    a Cholesky of each matrix flags every one without a factor.  A flagged
    matrix gets ``reg_epsilon * I`` added, or becomes ``reg_epsilon * reset``,
    in a copy; a copy without factors raises :class:`SingularScaleError`.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if flags is None:
        svals = np.linalg.svd(stack, compute_uv=False)
        smax = svals[:, 0]
        invcond = np.divide(svals[:, -1], smax, out=np.zeros_like(smax), where=smax > 0)
        flags = ~(invcond >= np.finfo(np.float64).eps)
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
    try:
        return stack, chol_lower(stack), flags
    except NotPositiveDefiniteError:
        raise SingularScaleError("scale matrix is not positive definite after regularization")


# --- scale families -------------------------------------------------------------


class _Family:
    """One scale family's M-step, parameter count and factor record.

    ``update(lams, counts, n_obs, n_star, previous, reg_epsilon)`` is the
    M-step of one dimension from the (G, n_d, n_d) scatters Lambda_g, the
    group sizes n_g and the previous (G, n_d, n_d) scales (the identity at
    first).  The family only estimates: ``estimate`` takes the same
    arguments but the last and returns ``(stack, flags, reset)``, and
    :func:`regularize_and_check` repairs and factors it.  ``update`` returns
    the new scales, their Cholesky factors L and the repaired groups; a
    ``shared`` family's one matrix is repeated to the G groups, as group
    None.  ``n_params(n_d, G)`` counts free parameters.  ``record(scales)``
    is a scale stack's factor record, or None: the family's estimator run at
    n* = n_d, which gives a member's own parameters up to round-off, and
    ValueError names a group it does not reconstruct.  Estimators and the
    repair step are looked up in this module's globals at call time, so
    wrappers set on them see every call.
    """

    shared = False

    def update(self, lams, counts, n_obs, n_star, previous, reg_epsilon):
        stack, flags, reset = self.estimate(lams, counts, n_obs, n_star, previous)
        scales, chols, flags = regularize_and_check(stack, reg_epsilon, flags, reset)
        if self.shared:
            scales, chols = (np.repeat(a, len(lams), axis=0) for a in (scales, chols))
            return scales, chols, [None] if flags[0] else []
        return scales, chols, np.flatnonzero(flags).tolist()

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
    def estimate(self, lams, counts, n_obs, n_star, previous):
        return (lams.shape[1] / n_star) * lams, None, None

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_groups * n_d * (n_d + 1) // 2


class _Eee(_Family):
    shared = True

    def estimate(self, lams, counts, n_obs, n_star, previous):
        return gpcm_eee_update(lams, counts, n_obs, n_star)[None], None, None

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_d * (n_d + 1) // 2


class _McdVvi(_Family):
    def estimate(self, lams, counts, n_obs, n_star, previous):
        # a repaired group (delta_g = 0) becomes reg_epsilon * I
        _, deltas, shapes = mcd_vvi_update(lams, n_star)
        return deltas[:, None, None] * shapes, ~(deltas > 0), np.eye(lams.shape[1])

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_groups * (n_d * (n_d - 1) // 2 + 1)

    def record(self, scales):
        t, deltas, shapes = mcd_vvi_update(scales, scales.shape[1])
        _require_members(scales, deltas[:, None, None] * shapes, _ldl_reach(t, deltas))
        return tuple(McdFactors(tk, float(dk)) for tk, dk in zip(t, deltas))


class _McdEvi(_Family):
    def estimate(self, lams, counts, n_obs, n_star, previous):
        # a repaired group keeps the shared T, with delta_g = reg_epsilon
        _, deltas, shape = mcd_evi_update(lams, counts, previous[:, 0, 0], n_star)
        return deltas[:, None, None] * shape, ~(deltas > 0), shape

    def n_params(self, n_d: int, n_groups: int) -> int:
        return n_d * (n_d - 1) // 2 + n_groups

    def record(self, scales):
        ones = np.ones(len(scales))
        t, deltas, shape = mcd_evi_update(scales, ones, scales[:, 0, 0], scales.shape[1])
        _require_members(scales, deltas[:, None, None] * shape, _ldl_reach(t, deltas))
        return SharedMcdFactors(t=t, deltas=deltas)


class _GpcmVvi(_Vvv):
    def estimate(self, lams, counts, n_obs, n_star, previous):
        # the VVV estimate of the diagonal scatters
        diag = np.where(np.eye(lams.shape[1], dtype=bool), lams, 0.0)
        return super().estimate(diag, counts, n_obs, n_star, previous)

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
    specs = family_specs(specs, len(dims))
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


def normalize_identifiability(model: MixtureModel) -> MixtureModel:
    """Resolve the Kronecker rescaling indeterminacy.

    For every group and every dimension k >= 2, the scale matrix is divided
    by its leading entry (pinned to exactly 1.0) and the first dimension's
    matrix absorbs the product of those entries, leaving the Kronecker
    product — and therefore every density value — unchanged, a stack at a
    time; the records come from the new scales, as for any model.  Idempotent.
    """
    scales = _normalize_stacks(model.scales)
    return MixtureModel(model.weights.copy(), model.means, scales, model.specs)


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
        to 1; defaults to k-means hard assignments (ones when G = 1).
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
    n_star = int(np.prod(dims))
    g = _group_count(n_groups, n)
    specs = family_specs(specs, len(dims))

    if init_z is None:
        z = init_kmeans(batch, g, options) if g > 1 else np.ones((n, 1))
    else:
        z = np.asarray(init_z, dtype=np.float64)
        if z.shape != (n, g):
            raise ValueError(f"init_z must have shape {(n, g)}")
        if not (z.min() >= 0 and z.max() < np.inf):  # NaN fails both
            raise ValueError("init_z must hold finite, non-negative entries")
        if not np.all(np.abs(z.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("init_z rows must sum to 1")

    eyes = [np.broadcast_to(np.eye(n_d), (g, n_d, n_d)) for n_d in dims]
    state = _Stacks(None, None, eyes, list(eyes), [None] * len(dims), SweepWorkspace(batch, g))
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

    model = MixtureModel(state.weights, state.means, _normalize_stacks(state.scales), specs)
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
