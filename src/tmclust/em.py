"""EM fitting of finite mixtures of multilinear normal components.

The loop alternates a soft E-step (log-sum-exp responsibilities) with a
cyclic conditional M-step sweep — weights, then means, then the scale matrix
of each dimension in order, every update using the freshest available
estimates — so the observed log-likelihood is monotone.  Stopping uses the
Aitken acceleration estimate of the asymptotic log-likelihood; near-singular
scale estimates are repaired by an isotropic ridge and logged.  The
Kronecker rescaling indeterminacy is resolved once after convergence by
rescaling every non-leading scale matrix to a unit leading entry.

The sweep whitens incrementally in one :class:`~tmclust.mlnd.SweepWorkspace`
per fit: 3D-2 mode passes per group and iteration instead of D^2, the last
giving the E-step's quadratic forms, and no allocation the size of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyComponentError, SingularScaleError
from .mda import as_batch, matricize_mode1
from .mlnd import (
    MlndParams,
    SweepWorkspace,
    _scatter_one,
    chol_lower,
    inv_lower,
    log_density_batch,
)
from .parsimony import (
    GpcmVviFactors,
    McdFactors,
    ScaleModel,
    free_params,
    gpcm_vvi_update,
    mcd_evi_update,
    mcd_vvi_update,
)

_EMPTY_OP_TOL = 1e-8  # op-level flag threshold on n_g / N
_EMPTY_FIT_TOL = 1e-6  # fit-level abort threshold on n_g / N


@dataclass(frozen=True)
class FitOptions:
    """Knobs for one EM run.

    ``seed`` feeds a ``numpy.random.SeedSequence`` (an int or a tuple of
    ints), so derived seeds for scans and simulation replicates stay
    counter-based and reproducible.
    """

    max_iterations: int = 500
    aitken_epsilon: float = 1e-5
    reg_epsilon: float = 1e-3
    kmeans_restarts: int = 10
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.aitken_epsilon > 0:
            raise ValueError("aitken_epsilon must be > 0")
        if not 0 < self.reg_epsilon <= 0.1:
            raise ValueError("reg_epsilon must lie in (0, 0.1]")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be >= 1")

    def rng(self) -> np.random.Generator:
        seed = self.seed if isinstance(self.seed, int) else list(self.seed)
        return np.random.default_rng(np.random.SeedSequence(seed))


@dataclass(frozen=True)
class SingularEvent:
    """One repaired near-singular scale estimate; ``group`` is None when the
    matrix is shared across groups."""

    group: int | None
    dim: int
    iteration: int


@dataclass(eq=False)
class MixtureModel:
    """A fitted (or constructed) mixture of multilinear normal components."""

    weights: np.ndarray
    components: tuple[MlndParams, ...]
    specs: tuple[ScaleModel, ...] = ()
    factors: dict[int, object] = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.components = tuple(self.components)
        if self.weights.ndim != 1 or self.weights.size != len(self.components):
            raise ValueError("need one weight per component")
        if np.any(self.weights <= 0) or abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        dims = self.components[0].dims
        for comp in self.components:
            if comp.dims != dims:
                raise ValueError("all components must share the same dims")
        if not self.specs:
            self.specs = tuple(ScaleModel.VVV for _ in dims)
        self.specs = tuple(ScaleModel(s) for s in self.specs)
        if len(self.specs) != len(dims):
            raise ValueError(f"got {len(self.specs)} specs for {len(dims)} dimensions")

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


def init_kmeans(data, n_groups: int, options: FitOptions | None = None, rng=None) -> np.ndarray:
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
                break
            labels = new_labels
            centers = (np.eye(g)[labels].T @ v) / sizes[:, None]
        inertia = float(sq_dists(centers)[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    z = np.zeros((n, g))
    z[np.arange(n), best_labels] = 1.0
    return z


# --- E-step ------------------------------------------------------------------


def loglik_matrix(data, model: MixtureModel, work: SweepWorkspace | None = None):
    """(N, G) matrix of log(pi_g) + per-component log densities.

    In a fit, ``work`` lacks only the last mode's whitening; one pass then
    gives the quadratic forms, without re-centring or re-whitening the batch.
    """
    batch = as_batch(data)
    cols = []
    for g, comp in enumerate(model.components):
        quad = None if work is None else work.quad_forms(g, comp.inv_chol_factors()[-1])
        cols.append(np.log(model.weights[g]) + log_density_batch(batch, comp, quad))
    return np.column_stack(cols)


def e_step(data, model: MixtureModel, work: SweepWorkspace | None = None):
    """Responsibilities and observed log-likelihood, evaluated in log space;
    ``work`` as in :func:`loglik_matrix`."""
    lm = loglik_matrix(data, model, work)
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


def m_step_pi(z: np.ndarray) -> np.ndarray:
    """Weight update n_g / N; flags effectively empty components."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    counts = z.sum(axis=0)
    if np.any(counts < _EMPTY_OP_TOL * n):
        g = int(counts.argmin())
        raise EmptyComponentError(
            f"component {g} has effective size {counts[g]:.3e}", group=g
        )
    return counts / n


def m_step_mean(data, z: np.ndarray):
    """Per-group weighted mean matricizations."""
    batch = as_batch(data)
    z = np.asarray(z, dtype=np.float64)
    counts = z.sum(axis=0)
    if np.any(counts <= 0):
        raise ValueError("every group needs positive responsibility mass")
    flat = batch.reshape(batch.shape[0], -1)
    means = (z.T @ flat) / counts[:, None]
    dims = batch.shape[1:]
    return [matricize_mode1(means[g].reshape(dims)) for g in range(z.shape[1])]


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


def regularize_and_check(delta: np.ndarray, reg_epsilon: float) -> tuple[np.ndarray, bool]:
    """Repair a near-singular symmetric scale estimate with a ridge.

    If the inverse condition number (smallest/largest singular value) falls
    below machine epsilon — or the Cholesky factorization fails outright —
    ``reg_epsilon * I`` is added and the flag is returned True.  The result
    must pass a Cholesky check or :class:`SingularScaleError` is raised.
    """
    delta = np.asarray(delta, dtype=np.float64)
    svals = np.linalg.svd(delta, compute_uv=False)
    smax = float(svals[0])
    invcond = float(svals[-1]) / smax if smax > 0 else 0.0
    work = delta
    regularized = False
    if not np.isfinite(invcond) or invcond < np.finfo(np.float64).eps:
        work = delta + reg_epsilon * np.eye(delta.shape[0])
        regularized = True
    for _ in range(2):
        try:
            np.linalg.cholesky(work)
            return work, regularized
        except np.linalg.LinAlgError:
            if regularized:
                raise SingularScaleError(
                    "scale matrix is not positive definite after regularization"
                ) from None
            work = delta + reg_epsilon * np.eye(delta.shape[0])
            regularized = True
    raise AssertionError("unreachable")


# --- identifiability ----------------------------------------------------------


def _rescale_factor_record(record, multipliers: np.ndarray):
    """Apply per-group scale multipliers to a stored factor record."""
    if isinstance(record, tuple) and record and isinstance(record[0], McdFactors):
        return tuple(
            McdFactors(t=f.t, delta=f.delta * m) for f, m in zip(record, multipliers)
        )
    if isinstance(record, tuple) and record and isinstance(record[0], GpcmVviFactors):
        return tuple(
            GpcmVviFactors(scale=f.scale * m, shape=f.shape) for f, m in zip(record, multipliers)
        )
    if isinstance(record, SharedMcdFactors):
        return SharedMcdFactors(t=record.t, deltas=record.deltas * multipliers)
    raise TypeError(f"unknown factor record {type(record).__name__}")


@dataclass(frozen=True)
class SharedMcdFactors:
    """Shared unit-lower T with per-group innovation scales (EVI family)."""

    t: np.ndarray
    deltas: np.ndarray


def normalize_identifiability(model: MixtureModel) -> MixtureModel:
    """Resolve the Kronecker rescaling indeterminacy.

    For every group and every dimension k >= 2, the scale matrix is divided
    by its leading entry (pinned to exactly 1.0) and the first dimension's
    matrix absorbs the product of those entries, leaving the Kronecker
    product — and therefore every density value — unchanged.  Idempotent.
    """
    g_count = model.n_groups
    d_count = len(model.dims)
    multipliers = np.ones((g_count, d_count))
    new_components = []
    for g, comp in enumerate(model.components):
        scales = [s.copy() for s in comp.scales]
        prod = 1.0
        for k in range(1, d_count):
            lead = float(scales[k][0, 0])
            if lead <= 0:
                raise ValueError(
                    f"leading entry of scale {k + 1} in group {g} is not positive"
                )
            scales[k] /= lead
            scales[k][0, 0] = 1.0
            multipliers[g, k] = 1.0 / lead
            prod *= lead
        scales[0] *= prod
        multipliers[g, 0] = prod
        new_components.append(MlndParams(mean=comp.mean, scales=tuple(scales)))
    new_factors = {}
    for dim, record in model.factors.items():
        new_factors[dim] = _rescale_factor_record(record, multipliers[:, dim - 1])
    return MixtureModel(
        weights=model.weights.copy(),
        components=tuple(new_components),
        specs=model.specs,
        factors=new_factors,
    )


# --- the full loop ------------------------------------------------------------


def _positive_definite(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


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
    data : sequence of Mda or ndarray (N, n_1, ..., n_D)
    n_groups : int
    specs : sequence of ScaleModel or tokens, optional
        One family per dimension; defaults to all-VVV.
    options : FitOptions, optional
    init_z : ndarray (N, G), optional
        Initial responsibilities; defaults to k-means hard assignments.
        Mainly for symmetry tests and warm starts.

    Returns
    -------
    (MixtureModel, FitReport)
        The model is identifiability-normalized; the report carries the
        log-likelihood trace, convergence flag, singularity events, MAP
        labels, rho and BIC.
    """
    from .selection import bic as _bic  # local import: selection sits above em

    options = options or FitOptions()
    batch = as_batch(data)
    if not np.all(np.isfinite(batch)):
        raise ValueError("data contains non-finite values")
    n = batch.shape[0]
    dims = batch.shape[1:]
    d_count = len(dims)
    n_star = int(np.prod(dims))
    g = int(n_groups)
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= G <= N, got G={g}, N={n}")
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

    scales = [[np.eye(n_d) for n_d in dims] for _ in range(g)]
    chols = [[np.eye(n_d) for n_d in dims] for _ in range(g)]  # L per scale
    inv_chols = [[np.eye(n_d) for n_d in dims] for _ in range(g)]  # L^{-1} per scale
    evi_deltas = {d0: np.ones(g) for d0, s in enumerate(specs) if s is ScaleModel.MCD_EVI}
    factors: dict[int, object] = {}
    events: list[SingularEvent] = []
    trace: list[float] = []
    work = SweepWorkspace(batch, g)
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
        weights = counts / n
        flat = batch.reshape(n, -1)
        means = ((z.T @ flat) / counts[:, None]).reshape((g,) + dims)

        for d0, spec in enumerate(specs):
            dim = d0 + 1
            n_d = dims[d0]
            raws = np.stack(
                [
                    _scatter_one(work, k, dim, means[k], z[:, k], inv_chols[k], chols[k])
                    for k in range(g)
                ]
            )
            lams = raws / counts[:, None, None]
            news, facs = [], []  # new scales and factor records, per group

            if spec is ScaleModel.VVV:
                for k in range(g):
                    new, flagged = regularize_and_check(
                        (n_d / n_star) * lams[k], options.reg_epsilon
                    )
                    if flagged:
                        events.append(SingularEvent(k, dim, iteration))
                    news.append(new)

            elif spec is ScaleModel.MCD_VVI:
                for k in range(g):
                    fac = mcd_vvi_update(lams[k], n_star)
                    new = fac.scale() if fac.delta > 0 else None
                    if new is None or not _positive_definite(new):
                        new = options.reg_epsilon * np.eye(n_d)
                        fac = McdFactors(t=np.eye(n_d), delta=options.reg_epsilon)
                        events.append(SingularEvent(k, dim, iteration))
                    facs.append(fac)
                    news.append(new)
                factors[dim] = tuple(facs)

            elif spec is ScaleModel.MCD_EVI:
                t, deltas = mcd_evi_update(lams, counts, evi_deltas[d0], n_star)
                tinv = np.linalg.inv(t)
                base = tinv @ tinv.T
                base = (base + base.T) / 2.0
                fixed = deltas.copy()
                for k in range(g):
                    new = deltas[k] * base
                    if not deltas[k] > 0 or not _positive_definite(new):
                        new = options.reg_epsilon * np.eye(n_d)
                        fixed[k] = options.reg_epsilon
                        events.append(SingularEvent(k, dim, iteration))
                    news.append(new)
                evi_deltas[d0] = fixed
                factors[dim] = SharedMcdFactors(t=t, deltas=fixed)

            elif spec is ScaleModel.GPCM_EEE:
                pooled = (n_d / (n_star * n)) * np.einsum("k,kab->ab", counts, lams)
                pooled = (pooled + pooled.T) / 2.0
                new, flagged = regularize_and_check(pooled, options.reg_epsilon)
                if flagged:
                    events.append(SingularEvent(None, dim, iteration))
                news = [new] * g

            elif spec is ScaleModel.GPCM_VVI:
                for k in range(g):
                    raw_diag = (n_d / n_star) * np.diag(np.diag(lams[k]))
                    new, flagged = regularize_and_check(raw_diag, options.reg_epsilon)
                    if flagged:
                        events.append(SingularEvent(k, dim, iteration))
                    facs.append(gpcm_vvi_update(np.diag(np.diag(new)) * (n_star / n_d), n_star))
                    news.append(new)
                factors[dim] = tuple(facs)

            else:  # pragma: no cover
                raise ValueError(f"unhandled scale model {spec}")

            for k, new in enumerate(news):
                L = chol_lower(new, dim)
                scales[k][d0], chols[k][d0], inv_chols[k][d0] = new, L, inv_lower(L)

        model = MixtureModel(
            weights=weights,
            components=tuple(  # with the factors cached for the E-step
                MlndParams(means[k], tuple(scales[k]), tuple(chols[k]), tuple(inv_chols[k]))
                for k in range(g)
            ),
            specs=specs,
            factors=dict(factors),
        )
        z, ll = e_step(batch, model, work)
        trace.append(ll)
        if len(trace) >= 3 and aitken_stop(trace[-3:], options.aitken_epsilon):
            converged = True
            break

    model = normalize_identifiability(model)
    labels = z.argmax(axis=1)
    rho = free_params(specs, g, dims).total
    report = FitReport(
        loglik_trace=np.asarray(trace),
        converged=converged,
        n_iterations=iteration,
        singular_events=events,
        rho=rho,
        bic=_bic(trace[-1], rho, n),
        labels=labels,
        responsibilities=z,
    )
    return model, report


__all__ = [
    "FitOptions",
    "FitReport",
    "MixtureModel",
    "SharedMcdFactors",
    "SingularEvent",
    "aitken_stop",
    "e_step",
    "fit",
    "init_kmeans",
    "loglik_matrix",
    "m_step_mean",
    "m_step_pi",
    "normalize_identifiability",
    "regularize_and_check",
]
