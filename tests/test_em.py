"""EM loop pieces (init, E-step, M-steps, stopping, repair) and full fits."""

import numpy as np
import pytest
from scipy.special import logsumexp

from tmclust.em import (
    FitOptions,
    MixtureModel,
    SingularEvent,
    aitken_stop,
    e_step,
    fit,
    init_kmeans,
    loglik_matrix,
    m_step_delta,
    m_step_mean,
    m_step_pi,
    normalize_identifiability,
    regularize_and_check,
)
from tmclust.errors import EmptyComponentError, SingularScaleError
from tmclust.mda import kron, mode_product
from tmclust.metrics import adjusted_rand_index
from tmclust.mlnd import MlndParams, log_density_batch, sample
from tmclust.parsimony import McdFactors, ScaleModel

from conftest import random_spd

ALL_SPECS = [
    ScaleModel.VVV,
    ScaleModel.MCD_VVI,
    ScaleModel.MCD_EVI,
    ScaleModel.GPCM_EEE,
    ScaleModel.GPCM_VVI,
]


def separated_batch(rng, dims=(3, 2, 2), n=60, g=2, gap=6.0):
    """Block-labelled draws from g unit-scale components far apart."""
    scales = tuple(np.eye(m) for m in dims)
    labels = np.repeat(np.arange(g), n // g)
    batch = np.stack(
        [
            sample(MlndParams(mean=np.full(dims, gap * k), scales=scales), rng).array
            for k in labels
        ]
    )
    return batch, labels


# --- initialization --------------------------------------------------------------


def test_kmeans_single_group(rng):
    batch = rng.normal(size=(10, 2, 2))
    z = init_kmeans(batch, 1, rng=rng)
    assert np.array_equal(z, np.ones((10, 1)))


def test_kmeans_recovers_separated_groups(rng):
    batch, labels = separated_batch(rng, g=3, n=60)
    z = init_kmeans(batch, 3, rng=rng)
    assert adjusted_rand_index(z.argmax(axis=1), labels) == 1.0


def test_kmeans_one_cluster_per_point(rng):
    batch = rng.normal(size=(4, 2, 2))
    z = init_kmeans(batch, 4, rng=rng)
    assert np.array_equal(z.sum(axis=0), np.ones(4))
    assert np.array_equal(z.sum(axis=1), np.ones(4))


def test_kmeans_rejects_too_many_groups(rng):
    with pytest.raises(ValueError):
        init_kmeans(rng.normal(size=(3, 2, 2)), 4, rng=rng)


# --- E-step ------------------------------------------------------------------------


def test_e_step_single_component(rng):
    batch = rng.normal(size=(7, 2, 3))
    comp = MlndParams(mean=np.zeros((2, 3)), scales=(np.eye(2), np.eye(3)))
    model = MixtureModel(weights=[1.0], components=(comp,))
    z, ll = e_step(batch, model)
    assert np.array_equal(z, np.ones((7, 1)))
    assert ll == pytest.approx(float(log_density_batch(batch, comp).sum()), rel=1e-14)


def test_e_step_identical_components_split_evenly(rng):
    batch = rng.normal(size=(6, 2, 2))
    comp = MlndParams(mean=np.zeros((2, 2)), scales=(np.eye(2), np.eye(2)))
    model = MixtureModel(weights=[0.5, 0.5], components=(comp, comp))
    z, ll = e_step(batch, model)
    assert np.allclose(z, 0.5, rtol=0, atol=1e-14)
    # log(1/2 e^l + 1/2 e^l) = l
    assert ll == pytest.approx(float(log_density_batch(batch, comp).sum()), rel=1e-12)


def test_e_step_extreme_separation_is_hard(rng):
    dims = (2, 2)
    comps = tuple(
        MlndParams(mean=np.full(dims, 60.0 * k), scales=(0.01 * np.eye(2), np.eye(2)))
        for k in range(2)
    )
    model = MixtureModel(weights=[0.5, 0.5], components=comps)
    batch = np.stack([comps[0].mean_array, comps[1].mean_array])
    z, _ = e_step(batch, model)
    assert z[0, 0] > 1.0 - 1e-12
    assert z[1, 1] > 1.0 - 1e-12


def test_e_step_log_sum_exp_matches_scipy(rng):
    dims = (3, 2)
    comps = tuple(
        MlndParams(
            mean=rng.normal(size=dims) * 3.0, scales=(random_spd(3, rng), random_spd(2, rng))
        )
        for _ in range(3)
    )
    model = MixtureModel(weights=[0.2, 0.3, 0.5], components=comps)
    batch = rng.normal(size=(40,) + dims) * 4.0
    lm = loglik_matrix(batch, model)
    want = logsumexp(lm, axis=1)
    z, ll = e_step(batch, model)
    np.testing.assert_allclose(z, np.exp(lm - want[:, None]), rtol=1e-12, atol=0)
    assert ll == pytest.approx(float(want.sum()), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_e_step_names_observation_with_zero_density(rng):
    dims = (2, 2)
    comps = tuple(
        MlndParams(mean=np.full(dims, float(k)), scales=(np.eye(2), np.eye(2))) for k in range(2)
    )
    model = MixtureModel(weights=[0.5, 0.5], components=comps)
    batch = rng.normal(size=(5,) + dims)
    batch[3] = 1e200  # squared Mahalanobis norm overflows to inf under every component
    with np.errstate(over="ignore"):
        assert np.all(np.isneginf(loglik_matrix(batch, model)[3]))
        with pytest.raises(FloatingPointError, match="observation 3 "):
            e_step(batch, model)


def test_loglik_matrix_shape(rng):
    batch = rng.normal(size=(5, 2, 2))
    comp = MlndParams(mean=np.zeros((2, 2)), scales=(np.eye(2), np.eye(2)))
    model = MixtureModel(weights=[0.25, 0.75], components=(comp, comp))
    lm = loglik_matrix(batch, model)
    assert lm.shape == (5, 2)
    assert np.allclose(lm[:, 1] - lm[:, 0], np.log(3.0), rtol=0, atol=1e-12)


# --- M-steps -----------------------------------------------------------------------


def test_m_step_pi_hard_counts():
    z = np.zeros((8, 2))
    z[:6, 0] = 1.0
    z[6:, 1] = 1.0
    assert np.array_equal(m_step_pi(z), np.array([0.75, 0.25]))


def test_m_step_pi_soft():
    z = np.tile([0.3, 0.7], (10, 1))
    assert np.allclose(m_step_pi(z), [0.3, 0.7], rtol=0, atol=1e-15)


def test_m_step_pi_flags_empty():
    z = np.ones((10, 2))
    z[:, 1] = 1e-9
    with pytest.raises(EmptyComponentError):
        m_step_pi(z)


def test_m_step_mean_matches_group_averages(rng):
    batch = rng.normal(size=(9, 2, 3))
    z = np.zeros((9, 2))
    z[:4, 0] = 1.0
    z[4:, 1] = 1.0
    means = m_step_mean(batch, z)
    assert np.allclose(means[0].to_array(), batch[:4].mean(axis=0), rtol=0, atol=1e-14)
    assert np.allclose(means[1].to_array(), batch[4:].mean(axis=0), rtol=0, atol=1e-14)
    assert means[0].matrix.shape == (3, 2)


def test_m_step_mean_soft_weights(rng):
    batch = rng.normal(size=(5, 2, 2))
    w = rng.random(5) + 0.1
    z = w[:, None]
    mean = m_step_mean(batch, z)[0].to_array()
    expected = np.tensordot(w, batch, axes=(0, 0)) / w.sum()
    assert np.allclose(mean, expected, rtol=0, atol=1e-14)


def test_m_step_delta_scalar_variance(rng):
    """With all extents 1 the update collapses to a weighted variance."""
    batch = rng.normal(size=(20, 1, 1))
    w = rng.random(20) + 0.1
    comp = MlndParams(mean=np.full((1, 1), 0.3), scales=(np.eye(1), np.eye(1)))
    out = m_step_delta(batch, w[:, None], [comp], 1)[0]
    expected = np.average((batch[:, 0, 0] - 0.3) ** 2, weights=w)
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)


def test_m_step_delta_matches_mode_product_oracle(rng):
    dims = (2, 2, 2)
    batch = rng.normal(size=(15,) + dims)
    comp = MlndParams(
        mean=rng.normal(size=dims), scales=tuple(random_spd(n, rng) for n in dims)
    )
    z = (rng.random(15) + 0.05)[:, None]
    n_star = 8
    for dim in (1, 2, 3):
        out = m_step_delta(batch, z, [comp], dim)[0]
        inv_l = [np.linalg.inv(l) for l in comp.chol_factors()]
        acc = np.zeros((dims[dim - 1],) * 2)
        for i in range(15):
            y = batch[i] - comp.mean_array
            for k in (1, 2, 3):
                if k != dim:
                    y = mode_product(y, inv_l[k - 1], k).array
            m = np.moveaxis(y, dim - 1, 0).reshape(dims[dim - 1], -1)
            acc += z[i, 0] * (m @ m.T)
        expected = (dims[dim - 1] / (n_star * z.sum())) * acc
        assert np.allclose(out, expected, rtol=0, atol=1e-10)


def test_m_step_delta_swapped_data_consistency(rng):
    """Updating dimension l equals updating dimension 2 of the swapped data
    with correspondingly swapped scale matrices."""
    dims = (2, 3, 4)
    batch = rng.normal(size=(10,) + dims)
    scales = tuple(random_spd(n, rng) for n in dims)
    mean = rng.normal(size=dims)
    comp = MlndParams(mean=mean, scales=scales)
    out3 = m_step_delta(batch, np.ones((10, 1)), [comp], 3)[0]

    swapped = np.swapaxes(batch, 2, 3)
    comp_swapped = MlndParams(
        mean=np.swapaxes(mean, 1, 2), scales=(scales[0], scales[2], scales[1])
    )
    out2 = m_step_delta(swapped, np.ones((10, 1)), [comp_swapped], 2)[0]
    assert np.allclose(out3, out2, rtol=0, atol=1e-12)


# --- stopping and repair ---------------------------------------------------------------


def test_aitken_keeps_going_on_steady_gains():
    # acceleration 0.5, projected remaining gain 5 >= epsilon
    assert aitken_stop((-110.0, -105.0, -102.5), epsilon=1e-5) is False


def test_aitken_stops_on_plateau():
    assert aitken_stop((-100.0, -100.0, -100.0), epsilon=1e-5) is True


def test_aitken_stops_when_projection_is_tiny():
    assert aitken_stop((-100.0 - 1e-3, -100.0 - 1e-8, -100.0), epsilon=1e-5) is True


def test_aitken_continues_when_not_contracting():
    assert aitken_stop((0.0, 1.0, 3.0), epsilon=1e-5) is False  # acc = 2
    assert aitken_stop((0.0, 0.0, 1.0), epsilon=1e-5) is False  # zero denominator


def test_aitken_rejects_non_finite():
    with pytest.raises(ValueError):
        aitken_stop((np.nan, 0.0, 0.0), epsilon=1e-5)


def test_regularize_leaves_good_matrix_alone(rng):
    delta = random_spd(3, rng)
    out, flagged = regularize_and_check(delta, 1e-3)
    assert flagged is False
    assert np.array_equal(out, delta)


def test_regularize_repairs_rank_deficiency():
    v = np.array([[1.0], [2.0]])
    delta = v @ v.T
    out, flagged = regularize_and_check(delta, 1e-3)
    assert flagged is True
    assert np.allclose(out, delta + 1e-3 * np.eye(2), rtol=0, atol=0)
    np.linalg.cholesky(out)


def test_regularize_repairs_zero_matrix():
    out, flagged = regularize_and_check(np.zeros((2, 2)), 1e-3)
    assert flagged is True
    assert np.allclose(out, 1e-3 * np.eye(2), rtol=0, atol=0)


def test_regularize_gives_up_on_hopeless_input():
    # a large negative eigenvalue a tiny ridge cannot fix
    with pytest.raises(SingularScaleError):
        regularize_and_check(np.diag([1.0, -5.0]), 1e-3)


# --- identifiability -----------------------------------------------------------------


def _toy_model(rng, dims=(2, 2, 3), g=2, specs=None):
    comps = tuple(
        MlndParams(
            mean=rng.normal(size=dims), scales=tuple(random_spd(n, rng) for n in dims)
        )
        for _ in range(g)
    )
    return MixtureModel(
        weights=np.full(g, 1.0 / g), components=comps, specs=specs or ()
    )


def test_normalize_two_dim_fixture():
    comp = MlndParams(mean=np.zeros((2, 2)), scales=(2.0 * np.eye(2), 3.0 * np.eye(2)))
    model = MixtureModel(weights=[1.0], components=(comp,))
    out = normalize_identifiability(model)
    assert np.array_equal(out.components[0].scales[0], 6.0 * np.eye(2))
    assert np.array_equal(out.components[0].scales[1], np.eye(2))


def test_normalize_preserves_kron_and_loglik(rng):
    model = _toy_model(rng)
    batch = rng.normal(size=(6,) + model.dims)
    before = e_step(batch, model)[1]
    out = normalize_identifiability(model)
    after = e_step(batch, out)[1]
    assert after == pytest.approx(before, rel=1e-10)
    for c_in, c_out in zip(model.components, out.components):
        assert np.allclose(
            kron(list(c_in.scales)), kron(list(c_out.scales)), rtol=1e-12, atol=1e-12
        )
    for comp in out.components:
        for k in (1, 2):
            assert comp.scales[k][0, 0] == 1.0


def test_normalize_is_idempotent(rng):
    once = normalize_identifiability(_toy_model(rng))
    twice = normalize_identifiability(once)
    for a, b in zip(once.components, twice.components):
        for s1, s2 in zip(a.scales, b.scales):
            assert np.array_equal(s1, s2)


def test_normalize_rescales_factor_records(rng):
    dims = (2, 3)
    lam = random_spd(3, rng)
    from tmclust.parsimony import mcd_vvi_update

    fac = mcd_vvi_update(lam, n_star=6)
    comp = MlndParams(mean=np.zeros(dims), scales=(random_spd(2, rng), fac.scale()))
    model = MixtureModel(
        weights=[1.0],
        components=(comp,),
        specs=(ScaleModel.VVV, ScaleModel.MCD_VVI),
        factors={2: (fac,)},
    )
    out = normalize_identifiability(model)
    new_fac = out.factors[2][0]
    assert isinstance(new_fac, McdFactors)
    assert np.allclose(new_fac.scale(), out.components[0].scales[1], rtol=1e-12, atol=1e-14)


# --- full fits ----------------------------------------------------------------------


def test_fit_single_group_matches_sample_moments(rng):
    batch = rng.normal(size=(40, 2, 2))
    model, report = fit(batch, 1, options=FitOptions(seed=1))
    assert report.converged
    assert np.array_equal(report.labels, np.zeros(40, dtype=np.int64))
    assert np.allclose(
        model.components[0].mean_array, batch.mean(axis=0), rtol=0, atol=1e-10
    )
    # a dense-covariance Gaussian MLE bounds any Kronecker-structured fit
    flat = batch.reshape(40, -1)
    s = np.cov(flat.T, bias=True)
    _, logdet = np.linalg.slogdet(s)
    bound = -0.5 * 40 * (4 * np.log(2 * np.pi) + logdet + 4)
    assert report.loglik <= bound + 1e-6


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fit_recovers_separated_groups(rng, spec):
    batch, labels = separated_batch(rng, n=60, g=2)
    model, report = fit(batch, 2, specs=[spec] * 3, options=FitOptions(seed=2))
    assert report.converged
    assert adjusted_rand_index(report.labels, labels) == 1.0
    tr = report.loglik_trace
    assert np.all(np.diff(tr) >= -1e-8 * np.abs(tr[:-1]))
    assert not report.singular_events
    # weights recover the balanced design
    assert np.allclose(np.sort(model.weights), [0.5, 0.5], rtol=0, atol=0.05)


def test_fit_is_deterministic(rng):
    batch, _ = separated_batch(rng, n=30, g=2)
    _, r1 = fit(batch, 2, options=FitOptions(seed=9))
    _, r2 = fit(batch, 2, options=FitOptions(seed=9))
    assert np.array_equal(r1.loglik_trace, r2.loglik_trace)
    assert np.array_equal(r1.labels, r2.labels)


def test_fit_init_z_column_permutation_symmetry(rng):
    batch, _ = separated_batch(rng, n=30, g=2)
    z0 = init_kmeans(batch, 2, rng=np.random.default_rng(0))
    _, r1 = fit(batch, 2, init_z=z0, options=FitOptions(seed=0))
    _, r2 = fit(batch, 2, init_z=z0[:, ::-1], options=FitOptions(seed=0))
    assert r1.loglik == pytest.approx(r2.loglik, rel=1e-10)
    assert adjusted_rand_index(r1.labels, r2.labels) == 1.0


def test_fit_duplicated_data_doubles_loglik(rng):
    batch, _ = separated_batch(rng, n=20, g=2)
    z0 = init_kmeans(batch, 2, rng=np.random.default_rng(1))
    _, r1 = fit(batch, 2, init_z=z0, options=FitOptions(seed=0, max_iterations=6))
    doubled = np.concatenate([batch, batch])
    _, r2 = fit(
        doubled, 2, init_z=np.tile(z0, (2, 1)), options=FitOptions(seed=0, max_iterations=6)
    )
    m = min(len(r1.loglik_trace), len(r2.loglik_trace))
    assert np.allclose(
        r2.loglik_trace[:m], 2.0 * r1.loglik_trace[:m], rtol=1e-10, atol=0
    )


def test_fit_aborts_on_collapsed_component(rng):
    batch = rng.normal(size=(10, 2, 2))
    z0 = np.ones((10, 2))
    z0[:, 1] = 1e-8
    z0[:, 0] = 1.0 - 1e-8
    with pytest.raises(EmptyComponentError) as exc_info:
        fit(batch, 2, init_z=z0)
    assert exc_info.value.iteration == 1


def test_fit_rejects_bad_shapes(rng):
    batch = rng.normal(size=(10, 2, 2))
    with pytest.raises(ValueError):
        fit(batch, 0)
    with pytest.raises(ValueError):
        fit(batch, 2, specs=[ScaleModel.VVV])
    with pytest.raises(ValueError):
        fit(batch, 2, init_z=np.ones((10, 3)))
    with pytest.raises(ValueError):
        fit(np.full((10, 2, 2), np.nan), 1)


def test_fit_reports_bic_consistent_with_rho(rng):
    batch, _ = separated_batch(rng, n=30, g=2)
    _, report = fit(batch, 2, options=FitOptions(seed=4))
    expected = 2 * report.loglik - report.rho * np.log(30)
    assert report.bic == pytest.approx(expected, rel=1e-14)


def test_singular_event_fields():
    e = SingularEvent(group=None, dim=2, iteration=7)
    assert e.group is None and e.dim == 2 and e.iteration == 7
