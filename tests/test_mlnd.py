"""Density, slicing, and sampling for the multilinear normal family.

The dense oracle evaluates the log density of vec(X) under the full
Kronecker covariance with generic numpy linear algebra (slogdet + solve),
sharing no code with the per-dimension slice route under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from tmclust.errors import NotPositiveDefiniteError
from tmclust.mda import Mda, kron, matricize_mode1, vectorize
from tmclust.mlnd import (
    MlndParams,
    _solve_mode,
    chol_lower,
    inv_lower,
    log_density,
    log_density_batch,
    sample,
    whiten_all_modes,
)

import oracles
from conftest import random_params, random_spd
from oracles import quadratic_form, whiten_slices


def dense_log_density(x: np.ndarray, params: MlndParams) -> float:
    """Dense multivariate-normal oracle on the vectorized problem."""
    sigma = kron(params.scales)
    resid = x.reshape(-1) - vectorize(params.mean.to_mda())
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    quad = float(resid @ np.linalg.solve(sigma, resid))
    return -0.5 * (resid.size * np.log(2 * np.pi) + logdet + quad)


def dense_quadratic(c: np.ndarray, params: MlndParams) -> float:
    """Quadratic form via the explicit Kronecker inverse."""
    sigma = kron(params.scales)
    v = c.reshape(-1)
    return float(v @ np.linalg.solve(sigma, v))


def test_standard_normal_scalar_cell():
    # 1x1 array, zero mean, unit scales: log density at 0 is -log(2*pi)/2
    p = MlndParams(mean=np.zeros((1, 1)), scales=(np.eye(1), np.eye(1)))
    assert log_density(Mda(np.zeros((1, 1))), p) == pytest.approx(
        -0.9189385332046727, abs=1e-12
    )


def test_identity_scales_reduce_to_univariate_sum(rng):
    dims = (2, 3, 2)
    mean = rng.standard_normal(dims)
    p = MlndParams(mean=matricize_mode1(mean), scales=tuple(np.eye(n) for n in dims))
    x = rng.standard_normal(dims)
    resid = (x - mean).reshape(-1)
    want = np.sum(-0.5 * np.log(2 * np.pi) - 0.5 * resid**2)
    assert log_density(Mda(x), p) == pytest.approx(want, abs=1e-10)


def test_log_density_matches_dense_oracle(rng):
    for dims in [(2, 2), (3, 2, 2), (2, 2, 2, 2), (4, 3)]:
        p = random_params(dims, rng)
        x = rng.standard_normal(dims)
        assert log_density(Mda(x), p) == pytest.approx(
            dense_log_density(x, p), abs=1e-8
        )


def test_log_density_batch_matches_scalar(rng):
    dims = (3, 2, 2)
    p = random_params(dims, rng)
    batch = rng.standard_normal((6,) + dims)
    got = log_density_batch(batch, p)
    want = [log_density(Mda(batch[i]), p) for i in range(6)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)


def test_determinant_factorization(rng):
    # |kron(scales)| == prod_d |Delta_d|^(n*/n_d), checked through the
    # log-det term used by the density
    dims = (2, 3)
    p = random_params(dims, rng)
    sigma = kron(p.scales)
    _, logdet = np.linalg.slogdet(sigma)
    n_star = int(np.prod(dims))
    assert n_star * p.log_det_terms() == pytest.approx(logdet, rel=1e-12)


def test_density_invariant_to_compensating_rescale(rng):
    # multiplying one scale by c and dividing another by c leaves the
    # Kronecker covariance, hence the density, unchanged
    dims = (2, 2, 3)
    p = random_params(dims, rng)
    x = rng.standard_normal(dims)
    base = log_density(Mda(x), p)
    for c in (0.25, 7.0):
        scales = (p.scales[0] / c, p.scales[1] * c, p.scales[2])
        q = MlndParams(mean=p.mean, scales=scales)
        assert log_density(Mda(x), q) == pytest.approx(base, abs=1e-10)


def test_non_pd_scale_names_dimension(rng):
    dims = (2, 3)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    p = MlndParams(mean=np.zeros(dims), scales=(bad, np.eye(3)))
    with pytest.raises(NotPositiveDefiniteError) as err:
        log_density(Mda(np.zeros(dims)), p)
    assert err.value.dim == 1


def test_asymmetric_scale_rejected():
    with pytest.raises(ValueError):
        MlndParams(mean=np.zeros((2, 2)), scales=(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)))


# --- whitening against the triangular-solve oracle --------------------------


def spd_with_condition(n: int, cond: float, rng) -> np.ndarray:
    """SPD matrix with eigenvalues log-spaced over [1, cond] in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.logspace(0, np.log10(cond), n)) @ q.T
    return (m + m.T) / 2.0


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
    # all modes, with the factors the parameters cache
    p = MlndParams(
        mean=np.zeros(dims), scales=tuple(spd_with_condition(n, cond, rng) for n in dims)
    )
    got = whiten_all_modes(batch, p.inv_chol_factors())
    assert_matches_oracle(got, oracles.whiten_all_modes(batch, p.chol_factors()))


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
    np.testing.assert_allclose(x.array, p.mean_array, atol=1e-14)


def test_sample_mean_recovery(rng):
    dims = (2, 2)
    p = random_params(dims, rng)
    k = 10_000
    draws = sample(p, rng, size=k)
    stacked = np.stack([d.array for d in draws])
    err = np.abs(stacked.mean(axis=0) - p.mean_array)
    # entries have variance <= max diag of the Kronecker covariance
    sd = np.sqrt(np.max(np.diag(kron(p.scales))) / k)
    assert np.all(err < 4.5 * sd)


def test_sample_covariance_recovery(rng):
    dims = (2, 2)
    p = random_params(dims, rng)
    k = 50_000
    draws = sample(p, rng, size=k)
    vecs = np.stack([vectorize(d) for d in draws])
    emp = np.cov(vecs.T)
    sigma = kron(p.scales)
    # standard error of a sample covariance entry
    dd = np.diag(sigma)
    se = np.sqrt((np.outer(dd, dd) + sigma**2) / k)
    assert np.all(np.abs(emp - sigma) < 5.0 * se)
