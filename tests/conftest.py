"""Shared helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from tmclust.em import MixtureModel
from tmclust.mlnd import MlndParams, SweepWorkspace, _scatter_one, inv_lower


def random_spd(n: int, rng: np.random.Generator, jitter: float = 0.5) -> np.ndarray:
    """A well-conditioned random symmetric positive-definite matrix."""
    a = rng.standard_normal((n, n))
    s = a @ a.T / n + jitter * np.eye(n)
    return (s + s.T) / 2.0


def random_params(dims, rng: np.random.Generator) -> MlndParams:
    """Random component parameters with moderate condition numbers."""
    mean = rng.standard_normal(dims)
    scales = [random_spd(n, rng) for n in dims]
    return MlndParams(mean=mean, scales=tuple(scales))


def mixture(weights, components, specs=None) -> MixtureModel:
    """The mixture of the ``MlndParams`` ``components``, as stacks."""
    stacks = [np.stack(mats) for mats in zip(*(c.scales for c in components))]
    return MixtureModel(weights, np.stack([c.mean for c in components]), stacks, specs)


def spd_with_condition(n: int, cond: float, rng) -> np.ndarray:
    """SPD matrix with eigenvalues log-spaced over [1, cond] in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.logspace(0, np.log10(cond), n)) @ q.T
    return (m + m.T) / 2.0


def sweep_scatters(batch, z, comps, next_comps=None):
    """Drive the EM sweep of ``tmclust.mlnd`` through every dimension.

    Group k is centred on ``next_comps[k]``'s mean and starts from
    ``comps[k]``'s factors; after dimension d's scatters its factor d becomes
    ``next_comps[k]``'s, as in a fit (``next_comps`` defaults to ``comps``).
    Returns the unnormalized scatters, one (G, n_d, n_d) stack per
    dimension, and the (N, G) quadratic forms under the final factors.
    """
    next_comps = comps if next_comps is None else next_comps
    work = SweepWorkspace(batch, len(comps))
    chols = [np.stack(mats) for mats in zip(*(c.chol_factors() for c in comps))]
    invs = [inv_lower(L) for L in chols]
    means = np.stack([c.mean for c in next_comps])
    scatters = []
    for d0 in range(batch.ndim - 1):
        scatters.append(_scatter_one(work, d0 + 1, means, z, invs, chols))
        chols[d0] = np.stack([c.chol_factors()[d0] for c in next_comps])
        invs[d0] = inv_lower(chols[d0])
    return scatters, work.quad_matrix(means, invs, np.zeros(len(comps)), chols)


# a worker that dies is made by a patched module attribute, which only a
# forked worker inherits
forked = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="pool workers are not forked"
)


def dies_in_a_child(monkeypatch, module, name: str) -> None:
    """Patch ``module.name`` to end at once, without cleanup, any process but
    this one that calls it; this process still calls the original."""
    parent, inner = os.getpid(), getattr(module, name)

    def call(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, call)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
