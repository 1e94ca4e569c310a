"""Scale-family estimators: modified-Cholesky, shared/diagonal variants, counting."""

import numpy as np
import pytest

from tmclust.mda import mode_product
from tmclust.mlnd import MlndParams
from tmclust.parsimony import (
    ScaleModel,
    gpcm_eee_update,
    gpcm_vvi_update,
    mcd_evi_update,
    mcd_vvi_update,
)
from tmclust.em import FreeParamCount, fit, free_params
from tmclust.errors import EmptyComponentError

from conftest import random_spd, sweep_scatters
from oracles import eee_oracle, quadratic_form


# --- modified Cholesky, group-specific (MCD-VVI) -------------------------------


def test_mcd_vvi_fixture_exact():
    lam = np.array([[2.0, 1.0], [1.0, 2.0]])
    t, deltas, _ = mcd_vvi_update(lam[None], n_star=4)
    assert np.array_equal(t[0], np.array([[1.0, 0.0], [-0.5, 1.0]]))
    # T lam T' = diag(2, 1.5), trace 3.5
    assert deltas[0] == 3.5 / 4.0


def test_mcd_vvi_diagonal_input_gives_identity_t():
    t, deltas, _ = mcd_vvi_update(np.diag([3.0, 5.0, 7.0])[None], n_star=8)
    assert np.array_equal(t[0], np.eye(3))
    assert deltas[0] == pytest.approx(15.0 / 8.0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_mcd_t_decorrelates(rng, n):
    for _ in range(20):
        lam = random_spd(n, rng)
        t = mcd_vvi_update(lam[None], n_star=n)[0][0]
        d = t @ lam @ t.T
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(d))


def test_mcd_t_is_unit_lower(rng):
    lam = random_spd(4, rng)
    t = mcd_vvi_update(lam[None], n_star=4)[0][0]
    assert np.array_equal(np.diag(t), np.ones(4))
    assert np.array_equal(np.triu(t, 1), np.zeros((4, 4)))


def test_mcd_scale_reconstruction(rng):
    lam = random_spd(3, rng)
    (t,), (d,), (shape,) = mcd_vvi_update(lam[None], n_star=6)
    delta = d * shape
    # scale's inverse must factor as T' (delta I)^{-1} T
    expected_inv = t.T @ t / d
    assert np.allclose(np.linalg.inv(delta), expected_inv, rtol=0, atol=1e-10)
    np.linalg.cholesky(delta)  # SPD


def test_mcd_t_minimizes_whitened_trace(rng):
    """Among unit lower-triangular T, the returned one minimizes tr(T lam T')."""
    lam = random_spd(4, rng)
    (ft,), (fdelta,), _ = mcd_vvi_update(lam[None], n_star=4)
    base = np.trace(ft @ lam @ ft.T)
    for _ in range(200):
        t = np.eye(4)
        t[np.tril_indices(4, -1)] = rng.normal(scale=2.0, size=6)
        assert base <= np.trace(t @ lam @ t.T) + 1e-12
    assert fdelta == pytest.approx(base / 4.0, rel=1e-15)


# --- modified Cholesky, shared T (MCD-EVI) ---------------------------------------


def test_mcd_evi_single_group_matches_vvi(rng):
    lam = random_spd(3, rng)
    t, deltas, _ = mcd_evi_update([lam], counts=[17.0], deltas_prev=[1.0], n_star=6)
    (vvi_t,), (vvi_delta,), _ = mcd_vvi_update(lam[None], n_star=6)
    assert np.allclose(t, vvi_t, rtol=0, atol=1e-12)
    assert deltas[0] == pytest.approx(vvi_delta, rel=1e-14)


def test_mcd_evi_objective_nonincreasing_over_sweeps(rng):
    """Each (T, deltas) sweep is a conditional-maximization pair, so the
    complete-data objective it targets must not deteriorate."""
    n, n_star = 3, 6
    lams = [random_spd(n, rng) for _ in range(3)]
    counts = np.array([10.0, 20.0, 15.0])

    def objective(t, deltas):
        # up to constants: sum_g n_g [ n* log(delta_g) + tr(T lam_g T')/delta_g ]
        return sum(
            c * (n_star * np.log(d) + np.trace(t @ l @ t.T) / d)
            for c, d, l in zip(counts, deltas, lams)
        )

    deltas = np.ones(3)
    values = []
    for _ in range(6):
        t, deltas, _ = mcd_evi_update(lams, counts, deltas, n_star)
        values.append(objective(t, deltas))
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-10 * np.abs(values[:-1]))


def test_mcd_evi_rejects_nonpositive_prev():
    lam = np.eye(2)
    with pytest.raises(ValueError):
        mcd_evi_update([lam], [5.0], [0.0], n_star=4)


# --- shared full matrix (EEE) -----------------------------------------------------


def test_gpcm_eee_single_group_reduces_to_vvv(rng):
    lam = random_spd(3, rng)
    out = gpcm_eee_update([lam], counts=[40.0], n_obs=40, n_star=12)
    assert np.allclose(out, (3 / 12) * lam, rtol=0, atol=1e-12)


def test_gpcm_eee_matches_derivative_free_oracle(rng):
    for _ in range(5):
        lams = [random_spd(2, rng) for _ in range(3)]
        counts = rng.integers(5, 30, size=3).astype(float)
        n_obs = int(counts.sum())
        closed = gpcm_eee_update(lams, counts, n_obs, n_star=6)
        numeric = eee_oracle(lams, counts, n_obs, n_star=6)
        assert np.linalg.norm(closed - numeric) < 1e-6 * np.linalg.norm(closed)


# --- diagonal family (VVI-GPCM) ----------------------------------------------------


def test_gpcm_vvi_fixture():
    (fac,) = gpcm_vvi_update(np.array([[4.0, 1.0], [1.0, 9.0]])[None], n_star=8)
    assert fac.shape == pytest.approx([2.0 / 3.0, 3.0 / 2.0], rel=1e-12)
    assert fac.scale == pytest.approx((2.0 / 8.0) * 6.0, rel=1e-12)
    assert np.allclose(fac.scale * np.diag(fac.shape), np.diag([1.0, 2.25]), rtol=1e-12, atol=0)


def test_gpcm_vvi_shape_has_unit_geometric_mean(rng):
    for _ in range(20):
        lam = random_spd(4, rng)
        (fac,) = gpcm_vvi_update(lam[None], n_star=4)
        assert np.prod(fac.shape) == pytest.approx(1.0, rel=1e-12)


def test_gpcm_vvi_scale_homogeneous(rng):
    lam = random_spd(3, rng)
    (f1,) = gpcm_vvi_update(lam[None], n_star=9)
    (f2,) = gpcm_vvi_update(7.0 * lam[None], n_star=9)
    assert f2.scale == pytest.approx(7.0 * f1.scale, rel=1e-12)
    assert f2.shape == pytest.approx(f1.shape, rel=1e-12)


def test_gpcm_vvi_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        gpcm_vvi_update(np.array([[1.0, 0.0], [0.0, 0.0]])[None], n_star=4)


# --- scatter ------------------------------------------------------------------------


def _scatter_oracle(batch, comp, w, dim):
    """Mode-product reference: whiten all other dimensions, sum weighted Grams."""
    inv_l = [np.linalg.inv(l) for l in comp.chol_factors()]
    d = batch.ndim - 1
    n_d = batch.shape[dim]
    out = np.zeros((n_d, n_d))
    mean = comp.mean
    for i in range(batch.shape[0]):
        y = batch[i] - mean
        for k in range(1, d + 1):
            if k != dim:
                y = mode_product(y, inv_l[k - 1], k)
        m = np.moveaxis(y, dim - 1, 0).reshape(n_d, -1)
        out += w[i] * (m @ m.T)
    return out / w.sum()


def scatter_lambda(batch, z, comps, dim):
    """The sweep's per-group scatters Lambda_{g,dim}, stacked (G, n_d, n_d)."""
    scatters, _ = sweep_scatters(batch, z, comps)
    return scatters[dim - 1] / z.sum(axis=0)[:, None, None]


def test_scatter_matches_mode_product_oracle(rng):
    dims = (2, 3, 2)
    batch = rng.normal(size=(12,) + dims)
    comps = [
        MlndParams(mean=rng.normal(size=dims), scales=tuple(random_spd(n, rng) for n in dims))
        for _ in range(2)
    ]
    z = rng.random((12, 2)) + 0.05
    z /= z.sum(axis=1, keepdims=True)
    for dim in (1, 2, 3):
        lam = scatter_lambda(batch, z, comps, dim)
        for g, comp in enumerate(comps):
            oracle = _scatter_oracle(batch, comp, z[:, g], dim)
            assert np.allclose(lam[g], oracle, rtol=0, atol=1e-10)


def test_scatter_trace_equals_weighted_quadratic_forms(rng):
    """tr(Delta_d^{-1} sum_i w_i scatter_i) equals the weighted sum of full
    quadratic forms, whichever dimension is left unwhitened."""
    dims = (3, 2, 2)
    batch = rng.normal(size=(8,) + dims)
    comp = MlndParams(
        mean=rng.normal(size=dims), scales=tuple(random_spd(n, rng) for n in dims)
    )
    z = rng.random((8, 1)) + 0.1
    q = np.array(
        [quadratic_form(batch[i] - comp.mean, comp) for i in range(8)]
    )
    expected = float(z[:, 0] @ q)
    for dim in (1, 2, 3):
        lam = scatter_lambda(batch, z, [comp], dim)[0] * z[:, 0].sum()
        inv = np.linalg.inv(comp.scales[dim - 1])
        assert np.trace(inv @ lam) == pytest.approx(expected, rel=1e-10)


def test_scatter_requires_positive_mass(rng):
    """A group without responsibility mass gets no scatter: the fit stops."""
    batch = rng.normal(size=(4, 2, 2))
    z = np.zeros((4, 2))
    z[:, 0] = 1.0
    with pytest.raises(EmptyComponentError):
        fit(batch, 2, init_z=z)


# --- tokens and counting --------------------------------------------------------------


def test_scale_model_tokens_round_trip():
    for model in ScaleModel:
        assert ScaleModel.from_token(model.value) is model
    assert ScaleModel.from_token(" VVV ") is ScaleModel.VVV
    with pytest.raises(ValueError, match="unknown scale-model token"):
        ScaleModel.from_token("VII")


def test_free_params_all_vvv_fixture():
    count = free_params([ScaleModel.VVV] * 4, n_groups=3, dims=(4, 4, 4, 4))
    assert count.weights == 2
    assert count.means == 3 * 256
    assert count.per_dim == (30, 30, 30, 30)
    assert count.total == 890


def test_free_params_small_table():
    assert free_params([ScaleModel.VVV] * 2, 1, (2, 2)).total == 10
    # 1 weight + 12 means + (2*1+2) + (3+2)
    assert free_params([ScaleModel.MCD_VVI, ScaleModel.MCD_EVI], 2, (2, 3)).total == 22
    # 1 weight + 8 means + 2*2 diag + 3 shared
    assert free_params([ScaleModel.GPCM_VVI, ScaleModel.GPCM_EEE], 2, (2, 2)).total == 16
    assert free_params([ScaleModel.GPCM_EEE] * 3, 4, (2, 2, 2)).total == 3 + 32 + 9


def test_free_params_is_dataclass_total():
    count = FreeParamCount(weights=1, means=4, per_dim=(2, 3))
    assert count.total == 10


def test_free_params_spec_length_mismatch():
    with pytest.raises(ValueError):
        free_params([ScaleModel.VVV], 2, (2, 2))


@pytest.mark.parametrize("dims", [(3.7, True), (3, True), (3, 2.0), (0, 2), (3, -1)])
def test_free_params_dims_follow_the_integer_rule(dims):
    with pytest.raises(ValueError, match="each dim must be an integer >= 1"):
        free_params([ScaleModel.VVV] * 2, 2, dims)


def test_free_params_accepts_numpy_dims():
    assert free_params([ScaleModel.VVV] * 2, 2, np.array([3, 4])).per_dim == (12, 20)
