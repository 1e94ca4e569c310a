"""Density, slicing, and sampling for the multilinear normal family.

The dense oracle evaluates the log density of vec(X) under the full
Kronecker covariance with generic numpy linear algebra (slogdet + solve),
sharing no code with the per-dimension slice route under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from tmclust import mlnd
from tmclust.errors import NotPositiveDefiniteError
from tmclust.mda import matricize_mode1
from tmclust.parsimony import ScaleModel
from tmclust.mlnd import (
    MlndParams,
    _solve_mode,
    chol_lower,
    inv_lower,
    log_density,
    log_density_batch,
    log_density_consts,
    sample,
)

import oracles
from conftest import random_params, random_spd, spd_with_condition, sweep_scatters
from oracles import dense_log_density, kron, quadratic_form, whiten_slices


def dense_quadratic(c: np.ndarray, params: MlndParams) -> float:
    """Quadratic form via the explicit Kronecker inverse."""
    sigma = kron(params.scales)
    v = c.reshape(-1)
    return float(v @ np.linalg.solve(sigma, v))


def test_standard_normal_scalar_cell():
    # 1x1 array, zero mean, unit scales: log density at 0 is -log(2*pi)/2
    p = MlndParams(mean=np.zeros((1, 1)), scales=(np.eye(1), np.eye(1)))
    assert log_density(np.zeros((1, 1)), p) == pytest.approx(
        -0.9189385332046727, abs=1e-12
    )


def test_identity_scales_reduce_to_univariate_sum(rng):
    dims = (2, 3, 2)
    mean = rng.standard_normal(dims)
    p = MlndParams(mean=mean, scales=tuple(np.eye(n) for n in dims))
    x = rng.standard_normal(dims)
    resid = (x - mean).reshape(-1)
    want = np.sum(-0.5 * np.log(2 * np.pi) - 0.5 * resid**2)
    assert log_density(x, p) == pytest.approx(want, abs=1e-10)


def test_log_density_matches_dense_oracle(rng):
    for dims in [(2, 2), (3, 2, 2), (2, 2, 2, 2), (4, 3)]:
        p = random_params(dims, rng)
        x = rng.standard_normal(dims)
        assert log_density(x, p) == pytest.approx(
            dense_log_density(x, p), abs=1e-8
        )


def test_log_density_batch_matches_scalar(rng):
    dims = (3, 2, 2)
    p = random_params(dims, rng)
    batch = rng.standard_normal((6,) + dims)
    got = log_density_batch(batch, p)
    want = [log_density(batch[i], p) for i in range(6)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)


def test_determinant_factorization(rng):
    # |kron(scales)| == prod_d |Delta_d|^(n*/n_d), checked through the
    # density constant
    dims = (2, 3)
    p = random_params(dims, rng)
    sigma = kron(p.scales)
    _, logdet = np.linalg.slogdet(sigma)
    n_star = int(np.prod(dims))
    const = log_density_consts([L[None] for L in p.chol_factors()])[0]
    assert const == pytest.approx(-0.5 * (n_star * np.log(2 * np.pi) + logdet), rel=1e-12)


def test_density_invariant_to_compensating_rescale(rng):
    # multiplying one scale by c and dividing another by c leaves the
    # Kronecker covariance, hence the density, unchanged
    dims = (2, 2, 3)
    p = random_params(dims, rng)
    x = rng.standard_normal(dims)
    base = log_density(x, p)
    for c in (0.25, 7.0):
        scales = (p.scales[0] / c, p.scales[1] * c, p.scales[2])
        q = MlndParams(mean=p.mean, scales=scales)
        assert log_density(x, q) == pytest.approx(base, abs=1e-10)


def test_non_pd_scale_names_dimension(rng):
    dims = (2, 3)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    p = MlndParams(mean=np.zeros(dims), scales=(bad, np.eye(3)))
    with pytest.raises(NotPositiveDefiniteError) as err:
        log_density(np.zeros(dims), p)
    assert err.value.dim == 1


def test_asymmetric_scale_rejected():
    with pytest.raises(ValueError):
        MlndParams(mean=np.zeros((2, 2)), scales=(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_scale_names_dimension(entry, value):
    """A NaN compares false with the symmetry tolerance, so it is checked first."""
    scale = np.eye(2)
    scale[entry] = scale[entry[::-1]] = value
    with pytest.raises(ValueError, match="^scale matrix for dimension 2 holds a NaN or infinite"):
        MlndParams(mean=np.zeros((3, 2)), scales=(np.eye(3), scale))


# --- whitening against the triangular-solve oracle --------------------------


def assert_matches_oracle(got, want):
    # rtol per entry; entries that cancel to near zero are held to the
    # array's scale instead
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("cond", [1.0, 1e6, 1e12])
@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 2), (2, 3, 4, 3)])
def test_whitening_matches_triangular_solve(dims, cond, rng):
    batch = rng.standard_normal((5,) + dims)
    # one mode pass on every axis of the (N, n_1, ..., n_D) batch, the first
    # and the last included
    for axis, n in enumerate(batch.shape):
        L = chol_lower(spd_with_condition(n, cond, rng))
        got = _solve_mode(batch, inv_lower(L), axis)
        assert_matches_oracle(got, oracles.solve_mode(batch, L, axis))
    # all modes, with the factors of the parameters
    p = MlndParams(
        mean=np.zeros(dims), scales=tuple(spd_with_condition(n, cond, rng) for n in dims)
    )
    got = batch
    for d, L in enumerate(p.chol_factors()):
        got = _solve_mode(got, inv_lower(L), d + 1)
    assert_matches_oracle(got, oracles.whiten_all_modes(batch, p.chol_factors()))


def family_scales(family, dims, cond, rng):
    """Scale tuples of two groups with the structure ``family`` gives every
    dimension, each matrix of condition number ``cond``."""
    per_dim = []
    for n in dims:
        if family is ScaleModel.GPCM_EEE:
            per_dim.append([spd_with_condition(n, cond, rng)] * 2)
        elif family is ScaleModel.MCD_EVI:
            base = spd_with_condition(n, cond, rng)
            per_dim.append([delta * base for delta in rng.uniform(0.5, 2.0, 2)])
        elif family is ScaleModel.GPCM_VVI:
            diag = np.logspace(0, np.log10(cond), n)
            per_dim.append([np.diag(rng.permutation(diag)) for _ in range(2)])
        else:  # VVV and MCD-VVI: group-specific full matrices
            per_dim.append([spd_with_condition(n, cond, rng) for _ in range(2)])
    return [tuple(mats[k] for mats in per_dim) for k in range(2)]


@pytest.mark.parametrize("block_rows", [None, 2])
@pytest.mark.parametrize("family", list(ScaleModel))
@pytest.mark.parametrize("cond", [1.0, 1e6, 1e12])
@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 2), (2, 3, 4, 3)])
def test_sweep_matches_from_scratch_scatter(dims, cond, family, block_rows, rng, monkeypatch):
    """Each incremental scatter equals the from-scratch one under the factors
    the sweep has reached (new below the dimension, old above it), and the
    finished tensors give the quadratic forms under the new factors.  With
    ``block_rows`` the passes run in blocks of two observations, the last
    block trimmed to one."""
    n = 9
    batch = rng.standard_normal((n,) + dims)
    if block_rows is not None:
        monkeypatch.setattr(mlnd, "_BLOCK_BYTES", block_rows * batch[0].nbytes)

    def params():
        return [
            MlndParams(mean=rng.standard_normal(dims), scales=scales)
            for scales in family_scales(family, dims, cond, rng)
        ]

    old, new = params(), params()
    z = rng.random((n, 2)) + 0.05
    scatters, quad = sweep_scatters(batch, z, old, new)
    for k in range(2):
        for d0 in range(len(dims)):
            chols = new[k].chol_factors()[:d0] + old[k].chol_factors()[d0:]
            want = oracles.scatter(batch, new[k].mean, z[:, k], chols, d0 + 1)
            assert_matches_oracle(scatters[d0][k], want)
        white = oracles.whiten_all_modes(batch - new[k].mean, new[k].chol_factors())
        assert_matches_oracle(quad[:, k], (white.reshape(n, -1) ** 2).sum(axis=1))


@pytest.mark.parametrize("block_rows", [None, 2])
@pytest.mark.parametrize("dims", [(4, 3), (2, 3, 4, 3)])
def test_sweep_skips_zero_weight_rows(dims, block_rows, rng, monkeypatch):
    """Rows whose weight is exactly zero are left out of a group's sweep but
    not out of its quadratic forms.  Group 0's support is one observation;
    group 1's support and its complement each span several blocks, some of
    consecutive rows and some not; group 2 is dense."""
    n = 13
    batch = rng.standard_normal((n,) + dims)
    if block_rows is not None:
        monkeypatch.setattr(mlnd, "_BLOCK_BYTES", block_rows * batch[0].nbytes)
    z = rng.random((n, 3)) + 0.05
    z[np.arange(n) != 6, 0] = 0.0
    z[[3, 4, 6, 9, 10, 12], 1] = 0.0
    support = np.count_nonzero(z)  # rows swept, summed over the groups
    columns = []  # observations per mode pass of the sweep

    def solve_mode(values, inv_factor, axis, out=None):
        columns.append(values.shape[-1])
        return _solve_mode(values, inv_factor, axis, out)

    monkeypatch.setattr(mlnd, "_solve_mode", solve_mode)
    old, new = ([random_params(dims, rng) for _ in range(3)] for _ in range(2))
    scatters, quad = sweep_scatters(batch, z, old, new)
    # 3D-3 passes over each support, then D passes over each complement and
    # one over each support for the quadratic forms
    d = len(dims)
    assert sum(columns) == (3 * d - 2) * support + d * (z.size - support)
    for k in range(3):
        for d0 in range(d):
            chols = new[k].chol_factors()[:d0] + old[k].chol_factors()[d0:]
            want = oracles.scatter(batch, new[k].mean, z[:, k], chols, d0 + 1)
            assert_matches_oracle(scatters[d0][k], want)
        white = oracles.whiten_all_modes(batch - new[k].mean, new[k].chol_factors())
        assert_matches_oracle(quad[:, k], (white.reshape(n, -1) ** 2).sum(axis=1))
    # before any sweep, every row is whitened from scratch
    inv = [inv_lower(L)[None] for L in new[2].chol_factors()]
    fresh = mlnd.SweepWorkspace(batch, 1).quad_matrix(new[2].mean[None], inv)
    assert_matches_oracle(fresh[:, 0], (white.reshape(n, -1) ** 2).sum(axis=1))


def test_a_forms_only_workspace_holds_no_batch_sized_array(rng, monkeypatch):
    """A workspace that never sweeps centres and whitens every block in its
    two block buffers: it holds no array larger than those two blocks, and
    the sweep's first ``restrict`` allocates the held rows."""
    n, dims = 13, (2, 3, 4)
    batch = rng.standard_normal((n,) + dims)
    monkeypatch.setattr(mlnd, "_BLOCK_BYTES", 2 * batch[0].nbytes)
    comps = [random_params(dims, rng) for _ in range(2)]
    means = np.stack([c.mean for c in comps])
    chols = [np.stack(mats) for mats in zip(*(c.chol_factors() for c in comps))]
    invs = [inv_lower(L) for L in chols]
    work = mlnd.SweepWorkspace(batch, 2)
    quad = work.quad_matrix(means, invs)
    assert work.held is None
    arrays = [v for v in vars(work).values() if isinstance(v, np.ndarray) and v is not batch]
    assert max(a.nbytes for a in arrays) <= 2 * 2 * batch[0].nbytes
    for k, comp in enumerate(comps):
        white = oracles.whiten_all_modes(batch - comp.mean, comp.chol_factors())
        assert_matches_oracle(quad[:, k], (white.reshape(n, -1) ** 2).sum(axis=1))
    mlnd._scatter_one(work, 1, means, rng.random((n, 2)), invs, chols)
    assert work.held.shape == (2, batch.size)


# --- slicing ---------------------------------------------------------------


def test_single_slice_for_unit_third_dim(rng):
    # D=3 with n_3=1: exactly one slice, the centered matricization scaled
    # by the inverse square root of the scalar third scale
    dims = (2, 3, 1)
    c = rng.standard_normal(dims)
    scale3 = np.array([[4.0]])
    p = MlndParams(
        mean=np.zeros(dims),
        scales=(random_spd(2, rng), random_spd(3, rng), scale3),
    )
    ws = whiten_slices(c, p)
    assert ws.slices.shape == (1, 3, 2)
    np.testing.assert_allclose(ws.slices[0], c[:, :, 0].T / 2.0, rtol=1e-14)


def test_identity_scales_give_raw_slices(rng):
    dims = (2, 3, 2, 2)
    c = rng.standard_normal(dims)
    p = MlndParams(
        mean=np.zeros(dims),
        scales=tuple(np.eye(n) for n in dims),
    )
    ws = whiten_slices(c, p)
    assert ws.slices.shape == (4, 3, 2)
    # slice j stacks the (i_1, i_2) face at the j-th folded index, C-ordered
    folded = c.reshape(2, 3, -1)
    for j in range(4):
        np.testing.assert_array_equal(ws.slices[j], folded[:, :, j].T)


def test_quadratic_form_routes_agree(rng):
    # dense Kronecker, standard slices, and every mode-swapped variant
    for dims in [(2, 2, 3), (2, 3, 2, 2), (3, 2, 2, 2, 2)]:
        p = random_params(dims, rng)
        c = rng.standard_normal(dims)
        dense = dense_quadratic(c, p)
        std = quadratic_form(c, p)
        assert std == pytest.approx(dense, rel=1e-10)
        for l in range(3, len(dims) + 1):
            swapped = quadratic_form(c, p, swap_with=l)
            assert swapped == pytest.approx(dense, rel=1e-10)
            assert swapped == pytest.approx(std, rel=1e-10)


def test_quadratic_form_order_two(rng):
    dims = (3, 4)
    p = random_params(dims, rng)
    c = rng.standard_normal(dims)
    assert quadratic_form(c, p) == pytest.approx(dense_quadratic(c, p), rel=1e-10)


def test_whiten_slices_shape_mismatch(rng):
    p = random_params((2, 2), rng)
    with pytest.raises(ValueError):
        whiten_slices(np.zeros((3, 2)), p)


# --- sampling --------------------------------------------------------------


class _ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_sample_degenerate_rng_returns_mean(rng):
    p = random_params((2, 3, 2), rng)
    x = sample(p, _ZeroRng())
    np.testing.assert_allclose(x, p.mean, atol=1e-14)


def test_sample_batch_matches_single_draws():
    # size=n colours one (n, ...) block of normals: the same stream and values
    # as n single draws
    for i, dims in enumerate([(2, 2), (3, 1, 2), (4, 3, 2), (3, 2, 2, 3)]):
        p = random_params(dims, np.random.default_rng(i))
        batched = sample(p, np.random.default_rng(i), size=9)
        rng = np.random.default_rng(i)
        assert batched.shape == (9,) + dims
        assert np.array_equal(batched, np.stack([sample(p, rng) for _ in range(9)]))


def test_sample_mean_recovery(rng):
    dims = (2, 2)
    p = random_params(dims, rng)
    k = 10_000
    draws = sample(p, rng, size=k)
    err = np.abs(draws.mean(axis=0) - p.mean)
    # entries have variance <= max diag of the Kronecker covariance
    sd = np.sqrt(np.max(np.diag(kron(p.scales))) / k)
    assert np.all(err < 4.5 * sd)


def test_sample_covariance_recovery(rng):
    dims = (2, 2)
    p = random_params(dims, rng)
    k = 50_000
    draws = sample(p, rng, size=k)
    vecs = draws.reshape(k, -1)
    emp = np.cov(vecs.T)
    sigma = kron(p.scales)
    # standard error of a sample covariance entry
    dd = np.diag(sigma)
    se = np.sqrt((np.outer(dd, dd) + sigma**2) / k)
    assert np.all(np.abs(emp - sigma) < 5.0 * se)
