"""EM loop pieces (init, E-step, M-steps, stopping, repair) and full fits."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from tmclust import em, mlnd
from tmclust.em import (
    FAMILIES,
    FitOptions,
    MixtureModel,
    SingularEvent,
    aitken_stop,
    e_step,
    fit,
    free_params,
    init_kmeans,
    loglik_matrix,
    normalize_identifiability,
    regularize_and_check,
)
from tmclust.errors import (
    DataFormatError,
    EmptyComponentError,
    SingularScaleError,
    TmclustError,
)
from tmclust.io import read_result, result_document, write_result
from tmclust.mda import mode_product
from tmclust.metrics import adjusted_rand_index
from tmclust.mlnd import MlndParams, log_density, log_density_batch, sample
from tmclust.parsimony import GpcmVviFactors, McdFactors, ScaleModel, SharedMcdFactors
from tmclust.selection import ScanGrid, scan
from tmclust.simulate import SimConfig, generate_dataset, random_scale_matrix

import oracles
from conftest import random_spd, sweep_scatters

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
            sample(MlndParams(mean=np.full(dims, gap * k), scales=scales), rng)
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


DUPLICATE_BATCHES = [
    # one array of ones, seven of zeros: the revival used to empty a
    # cluster it had already checked
    (np.concatenate([np.ones((1, 2, 2)), np.zeros((7, 2, 2))]), 6),
    (np.repeat(np.eye(3)[:, None, :] * np.arange(1, 4)[:, None, None], 5, axis=0), 5),
    (np.concatenate([np.zeros((9, 2, 3)), np.full((2, 2, 3), 2.0)]), 4),
]


@pytest.mark.parametrize("batch, g", DUPLICATE_BATCHES)
def test_kmeans_duplicates_leave_no_cluster_empty(batch, g):
    for seed in range(40):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = init_kmeans(batch, g, rng=np.random.default_rng(seed))
        assert np.all(z.sum(axis=0) >= 1)
        assert np.array_equal(z.sum(axis=1), np.ones(len(batch)))


# the paper's study dims at one sample size each, and the 8x6x5 scan cell;
# every one has N <= n*, so init_kmeans takes its Gram-matrix route
GRAM_CELLS = [((4, 4, 4, 4), 60), ((5, 5, 5, 5), 120), ((6, 6, 6, 6), 90),
              ((7, 7, 7, 7), 180), ((8, 6, 5), 150)]


@pytest.mark.parametrize("dims, n", GRAM_CELLS)
def test_kmeans_gram_route_matches_direct_partitions(dims, n):
    config = SimConfig(n_obs=n, dims=dims, n_groups=3)
    batch, _, _ = generate_dataset(config, np.random.default_rng(n))
    for g in range(1, 6):
        for seed in range(8):
            want = oracles.kmeans_direct(batch, g, rng=np.random.default_rng(seed))
            got = init_kmeans(batch, g, rng=np.random.default_rng(seed))
            assert np.array_equal(got, want), (g, seed)


@pytest.mark.parametrize("batch, g", DUPLICATE_BATCHES)
def test_kmeans_gram_route_matches_direct_on_duplicates(batch, g):
    # zero columns keep every distance and tie, and make N <= n*
    padded = np.concatenate([batch, np.zeros(batch.shape[:-1] + (len(batch),))], axis=-1)
    for data in (batch, padded):
        for seed in range(40):
            want = oracles.kmeans_direct(data, g, rng=np.random.default_rng(seed))
            assert np.array_equal(init_kmeans(data, g, rng=np.random.default_rng(seed)), want)


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
    batch = np.stack([comps[0].mean, comps[1].mean])
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


def first_m_step(batch, z):
    """The model after one EM iteration from responsibilities ``z``."""
    model, _ = fit(batch, z.shape[1], init_z=z, options=FitOptions(max_iterations=1))
    return model


def test_m_step_pi_hard_counts(rng):
    z = np.zeros((8, 2))
    z[:6, 0] = 1.0
    z[6:, 1] = 1.0
    model = first_m_step(rng.normal(size=(8, 2, 2)), z)
    assert np.array_equal(model.weights, np.array([0.75, 0.25]))


def test_m_step_pi_soft(rng):
    z = np.tile([0.3, 0.7], (10, 1))
    model = first_m_step(rng.normal(size=(10, 2, 2)), z)
    assert np.allclose(model.weights, [0.3, 0.7], rtol=0, atol=1e-15)


def test_m_step_pi_flags_empty(rng):
    z = np.ones((10, 2))
    z[:, 1] = 1e-9
    with pytest.raises(EmptyComponentError):
        first_m_step(rng.normal(size=(10, 2, 2)), z)


def test_m_step_mean_matches_group_averages(rng):
    batch = rng.normal(size=(9, 2, 3))
    z = np.zeros((9, 2))
    z[:4, 0] = 1.0
    z[4:, 1] = 1.0
    means = [comp.mean for comp in first_m_step(batch, z).components]
    assert np.allclose(means[0], batch[:4].mean(axis=0), rtol=0, atol=1e-14)
    assert np.allclose(means[1], batch[4:].mean(axis=0), rtol=0, atol=1e-14)
    assert means[0].shape == (2, 3)


def test_m_step_mean_soft_weights(rng):
    batch = rng.normal(size=(5, 2, 2))
    w = 0.1 + 0.8 * rng.random(5)  # responsibilities: every row of z sums to one
    z = np.column_stack([w, 1.0 - w])
    model = first_m_step(batch, z)
    for comp, weights in zip(model.components, z.T):
        expected = np.tensordot(weights, batch, axes=(0, 0)) / weights.sum()
        assert np.allclose(comp.mean, expected, rtol=0, atol=1e-14)


def m_step_delta(batch, z, comps, dim):
    """The sweep's unconstrained update (n_d / (n* n_g)) * scatter_g for ``dim``."""
    dims = batch.shape[1:]
    scatters, _ = sweep_scatters(batch, z, comps)
    return [
        (dims[dim - 1] / (np.prod(dims) * z[:, g].sum())) * s
        for g, s in enumerate(scatters[dim - 1])
    ]


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
            y = batch[i] - comp.mean
            for k in (1, 2, 3):
                if k != dim:
                    y = mode_product(y, inv_l[k - 1], k)
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


def assert_factors(chols, scales):
    """The factors a check returns are numpy's Cholesky of its scales, bit for bit."""
    assert np.array_equal(chols, np.linalg.cholesky(scales))


def test_regularize_leaves_good_matrix_alone(rng):
    delta = random_spd(3, rng)
    out, chols, flagged = regularize_and_check(delta[None], 1e-3)
    assert flagged.tolist() == [False]
    assert np.array_equal(out[0], delta)
    assert_factors(chols, out)


def test_regularize_repairs_rank_deficiency():
    v = np.array([[1.0], [2.0]])
    delta = v @ v.T
    out, chols, flagged = regularize_and_check(delta[None], 1e-3)
    assert flagged.tolist() == [True]
    assert np.allclose(out[0], delta + 1e-3 * np.eye(2), rtol=0, atol=0)
    assert_factors(chols, out)


def test_regularize_repairs_zero_matrix():
    out, chols, flagged = regularize_and_check(np.zeros((1, 2, 2)), 1e-3)
    assert flagged.tolist() == [True]
    assert np.allclose(out[0], 1e-3 * np.eye(2), rtol=0, atol=0)
    assert_factors(chols, out)


def test_regularize_stack_repairs_only_the_singular_group(rng):
    v = rng.standard_normal((3, 1))
    stack = np.stack([random_spd(3, rng), v @ v.T, random_spd(3, rng), random_spd(3, rng)])
    out, chols, flags = regularize_and_check(stack, 1e-3)
    assert flags.tolist() == [False, True, False, False]
    assert_factors(chols, out)
    for got, got_chol, flag, mat in zip(out, chols, flags, stack):
        want, want_chol, want_flag = regularize_and_check(mat[None], 1e-3)
        assert flag == want_flag[0]
        assert np.array_equal(got, want[0])
        assert np.array_equal(got_chol, want_chol[0])


def test_check_flags_a_well_conditioned_indefinite_matrix(rng):
    """A matrix the SVD passes but the batched Cholesky rejects is found
    matrix by matrix and repaired, by a ridge or, as the MCD families do, by
    a reset; its neighbour keeps its own factor."""
    good = random_spd(2, rng)
    bad = np.array([[1.0, 0.0], [0.0, -1e-4]])  # condition 1e4, indefinite
    out, chols, flags = regularize_and_check(np.stack([good, bad]), 1e-3)
    assert flags.tolist() == [False, True]
    assert np.array_equal(out[0], good)
    assert np.array_equal(out[1], bad + 1e-3 * np.eye(2))
    assert_factors(chols, out)
    out, chols, flags = em._factor(np.stack([good, bad]), np.zeros(2, bool), 1e-3, reset=np.eye(2))
    assert flags.tolist() == [False, True]
    assert np.array_equal(out[0], good)
    assert np.array_equal(out[1], 1e-3 * np.eye(2))
    assert_factors(chols, out)


def test_regularize_gives_up_on_hopeless_input():
    # a large negative eigenvalue a tiny ridge cannot fix
    with pytest.raises(SingularScaleError):
        regularize_and_check(np.diag([1.0, -5.0])[None], 1e-3)


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
            oracles.kron(c_in.scales), oracles.kron(c_out.scales), rtol=1e-12, atol=1e-12
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


@pytest.mark.parametrize(
    "leads, message",
    [
        ({(1, 2): -1.0, (2, 1): 0.0}, "scale 3 in group 1"),
        ({(1, 1): 0.0, (1, 2): -2.0}, "scale 2 in group 1"),
        ({(0, 0): -1.0, (2, 2): -0.5}, "scale 3 in group 2"),
    ],
)
def test_normalize_rejects_a_non_positive_leading_entry(rng, leads, message):
    """The first bad (group, dimension k >= 2) in group-major order is
    named; the first dimension's leading entry is never checked."""
    model = _toy_model(rng, g=3)
    for (g, d0), lead in leads.items():
        scale = model.components[g].scales[d0]
        scale[0, 0] = lead
    with pytest.raises(ValueError, match=f"^leading entry of {message} is not positive$"):
        normalize_identifiability(model)


@pytest.mark.parametrize(
    "entry, message",
    [
        ((0, 0), "^leading entry of scale 2 in group 0 is not positive$"),
        ((1, 1), "^scale matrix for dimension 2 holds a NaN or infinite entry$"),
    ],
)
def test_normalize_rejects_a_nan_scale(entry, message):
    """A NaN written into a scale is named by its dimension, not spread
    over the first scale."""
    comp = MlndParams(mean=np.zeros((2, 2)), scales=(np.eye(2), np.eye(2)))
    model = MixtureModel(weights=[1.0], components=(comp,))
    comp.scales[1][entry] = np.nan
    with pytest.raises(ValueError, match=message):
        normalize_identifiability(model)


def test_fit_builds_one_model(rng, monkeypatch):
    """The fit normalizes its scale stacks and builds its model once."""
    calls = []
    post_init = MixtureModel.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(MixtureModel, "__post_init__", counted)
    batch, _ = separated_batch(rng, n=40, g=2)
    model, _ = fit(batch, 2, specs=[ScaleModel.MCD_VVI, ScaleModel.VVV, ScaleModel.MCD_EVI])
    assert calls == [model]
    for comp in model.components:
        assert comp.scales[1][0, 0] == 1.0 and comp.scales[2][0, 0] == 1.0


def test_normalize_matches_the_per_group_loop():
    """The stacked normalization gives the per-group loop's scales exactly,
    on random models with condition numbers up to 1e8."""
    rng = np.random.default_rng(18)
    for _ in range(60):
        dims = tuple(int(n) for n in rng.integers(1, 5, size=rng.integers(2, 5)))
        cap = 10.0 ** rng.uniform(0, 8)
        comps = tuple(
            MlndParams(
                rng.standard_normal(dims),
                tuple(random_scale_matrix(n, cap, rng) * 10.0 ** rng.uniform(-3, 3) for n in dims),
            )
            for _ in range(rng.integers(1, 5))
        )
        model = MixtureModel(np.full(len(comps), 1.0 / len(comps)), comps)
        out = normalize_identifiability(model)
        for comp, want in zip(out.components, oracles.normalized_scales(comps)):
            assert all(np.array_equal(a, b) for a, b in zip(comp.scales, want))


def test_normalize_rescales_factor_records(rng):
    dims = (2, 3)
    lam = random_spd(3, rng)
    from tmclust.parsimony import mcd_vvi_update

    _, (delta,), (shape,) = mcd_vvi_update(lam[None], n_star=6)
    comp = MlndParams(mean=np.zeros(dims), scales=(random_spd(2, rng), delta * shape))
    model = MixtureModel(
        weights=[1.0], components=(comp,), specs=(ScaleModel.VVV, ScaleModel.MCD_VVI)
    )
    out = normalize_identifiability(model)
    new_fac = out.factors[2][0]
    assert isinstance(new_fac, McdFactors)
    scale = oracles.record_scale(out.factors[2], 0)
    assert np.allclose(scale, out.components[0].scales[1], rtol=1e-12, atol=1e-14)


def assert_records_reconstruct(record, scales):
    """Group k's scale is the one its factor record reconstructs."""
    for k, scale in enumerate(scales):
        np.testing.assert_allclose(
            oracles.record_scale(record, k), scale, rtol=1e-12, atol=1e-15
        )


@pytest.mark.parametrize(
    "spec, singular",
    [(spec, False) for spec in ALL_SPECS] + [(ScaleModel.MCD_EVI, True)],
    ids=[spec.value for spec in ALL_SPECS] + ["MCD-EVI-singular"],
)
def test_normalize_keeps_every_record_consistent(rng, spec, singular):
    """After the fit's normalization each stored record still gives its
    group's (rescaled) scale matrix, on every dimension, also where the
    last iteration repaired a group (a 4x3x5, N=36, G=5 fit of noise)."""
    if singular:
        batch = np.random.default_rng(3).standard_normal((36, 4, 3, 5))
        model, report = fit(batch, 5, specs=[spec] * 3, options=FitOptions(seed=3))
        assert any(e.iteration == report.n_iterations for e in report.singular_events)
    else:
        batch, _ = separated_batch(rng, n=40, g=2)
        model, _ = fit(batch, 2, specs=[spec] * 3, options=FitOptions(seed=3))
    has_record = spec in (ScaleModel.MCD_VVI, ScaleModel.MCD_EVI, ScaleModel.GPCM_VVI)
    assert sorted(model.factors) == ([1, 2, 3] if has_record else [])
    for dim, record in model.factors.items():
        assert_records_reconstruct(record, [comp.scales[dim - 1] for comp in model.components])


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_family_update_repairs_zero_scatter(spec):
    """An all-zero scatter leaves every group at reg_epsilon * I, flagged
    one by one, or once with group None for the shared matrix."""
    g, n_d, reg = 3, 4, 1e-3
    scales, chols, flagged = FAMILIES[spec].update(
        np.zeros((g, n_d, n_d)), np.array([5.0, 7.0, 8.0]), 20, 12,
        np.broadcast_to(np.eye(n_d), (g, n_d, n_d)), reg,
    )
    assert len(scales) == g
    for new in scales:
        assert np.array_equal(new, reg * np.eye(n_d))
    assert_factors(chols, scales)
    assert flagged == ([None] if spec is ScaleModel.GPCM_EEE else [0, 1, 2])
    record = FAMILIES[spec].record(scales)
    if record is not None:
        for k in range(g):
            np.testing.assert_allclose(
                oracles.record_scale(record, k), reg * np.eye(n_d), rtol=1e-12
            )


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_family_update_records_describe_a_partial_collapse(rng, spec):
    """With one of three scatters zero, the repaired group's new scale is,
    like its neighbours', the one its record reconstructs: an MCD-EVI group
    keeps the shared T, with delta = reg_epsilon."""
    g, n_d, reg = 3, 4, 1e-3
    lams = np.stack([random_spd(n_d, rng), np.zeros((n_d, n_d)), random_spd(n_d, rng)])
    eye = np.broadcast_to(np.eye(n_d), (g, n_d, n_d))
    counts = np.array([5.0, 7.0, 8.0])
    scales, chols, flagged = FAMILIES[spec].update(lams, counts, 20, 12, eye, reg)
    assert_factors(chols, scales)
    assert flagged == ([] if spec is ScaleModel.GPCM_EEE else [1])
    record = FAMILIES[spec].record(scales)
    assert (record is None) == (spec in (ScaleModel.VVV, ScaleModel.GPCM_EEE))
    if record is not None:
        assert_records_reconstruct(record, scales)
    if spec is ScaleModel.MCD_EVI:
        assert record.deltas[1] == pytest.approx(reg, rel=1e-12)


@pytest.mark.parametrize("spec", [ScaleModel.MCD_VVI, ScaleModel.MCD_EVI, ScaleModel.GPCM_VVI])
def test_record_of_a_family_member_is_its_parameters(rng, spec):
    """A scale stack built from random parameters of the family gives those
    parameters back as its record."""
    g, n_d = 3, 4
    deltas = rng.uniform(0.5, 2.0, g)
    ts = np.eye(n_d) + np.tril(0.5 * rng.standard_normal((g, n_d, n_d)), -1)
    if spec is ScaleModel.MCD_VVI:
        want = tuple(McdFactors(t, d) for t, d in zip(ts, deltas))
    elif spec is ScaleModel.MCD_EVI:
        want = SharedMcdFactors(ts[0], deltas)
    else:
        shapes = rng.uniform(0.5, 2.0, (g, n_d))
        shapes /= np.exp(np.log(shapes).mean(axis=1, keepdims=True))
        want = tuple(GpcmVviFactors(d, shape) for d, shape in zip(deltas, shapes))
    scales = np.stack([oracles.record_scale(want, k) for k in range(g)])
    got = FAMILIES[spec].record(scales)
    assert type(got) is type(want)
    for a, b in zip(want, got) if isinstance(want, tuple) else [(want, got)]:
        for f in dataclasses.fields(a):
            np.testing.assert_allclose(
                getattr(b, f.name), getattr(a, f.name), rtol=1e-12, atol=1e-12
            )


@pytest.mark.parametrize("spec", [ScaleModel.MCD_VVI, ScaleModel.MCD_EVI, ScaleModel.GPCM_VVI])
def test_non_member_scales_are_rejected(rng, tmp_path, spec):
    """A fit of the family builds its model, but a random SPD scale in place
    of one of its groups' scales is not a member: the model and the result
    reader reject it, naming the dimension and a group."""
    batch, _ = separated_batch(rng, n=40, g=2)
    specs = (spec, ScaleModel.VVV, spec)
    options = FitOptions(seed=3)
    model, report = fit(batch, 2, specs=specs, options=options)
    bad = random_spd(3, rng)
    comps = list(model.components)
    comps[1] = MlndParams(comps[1].mean, (bad,) + comps[1].scales[1:])
    match = f"{spec.value} scale of dimension 1: group [01] is not a member of the family"
    with pytest.raises(ValueError, match=match):
        MixtureModel(model.weights, comps, specs)
    doc = result_document(model, report, options)
    doc["groups"][1]["scales"][0] = bad.tolist()
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=match):
        read_result(path)


def test_ill_conditioned_mcd_members_are_accepted(tmp_path):
    """Scales C C', C unit lower with N(0, 8^2) entries (median condition
    number 5e9), are MCD-VVI members: the model and the result reader accept
    each of 200.  Measured against the largest entry instead of the LDL'
    backward-error scale, 4 of them missed by up to 5.7e-8."""
    specs = (ScaleModel.MCD_VVI, ScaleModel.VVV)
    options = FitOptions(max_iterations=2)
    model, report = fit(np.random.default_rng(1).standard_normal((14, 6, 2)), 1, specs, options)
    rng = np.random.default_rng(0)
    doc = result_document(model, report, options)
    path = tmp_path / "result.json"
    for _ in range(200):
        c = np.tril(rng.normal(0.0, 8.0, (6, 6)), -1) + np.eye(6)
        scale = c @ c.T
        MixtureModel([1.0], [MlndParams(np.zeros((6, 2)), (scale, np.eye(2)))], specs)
        doc["groups"][0]["scales"][0] = scale.tolist()
        path.write_text(json.dumps(doc))
        assert np.array_equal(read_result(path)[0].components[0].scales[0], scale)


# --- full fits ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fit_factors_each_new_stack_once(rng, spec, monkeypatch):
    """Without repairs, each dimension update of a fit makes one batched
    Cholesky call: the check's factors are the L the fit keeps."""
    batch, _ = separated_batch(rng, n=40, g=2)
    shapes = []
    cholesky = np.linalg.cholesky

    def counted(mat):
        shapes.append(np.shape(mat))
        return cholesky(mat)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _, report = fit(batch, 2, specs=[spec] * 3, options=FitOptions(seed=2, max_iterations=4))
    assert not report.singular_events
    assert len(shapes) == 3 * report.n_iterations
    assert all(len(shape) == 3 for shape in shapes)


def test_fit_single_group_matches_sample_moments(rng):
    batch = rng.normal(size=(40, 2, 2))
    model, report = fit(batch, 1, options=FitOptions(seed=1))
    assert report.converged
    assert np.array_equal(report.labels, np.zeros(40, dtype=np.int64))
    assert np.allclose(
        model.components[0].mean, batch.mean(axis=0), rtol=0, atol=1e-10
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["every row twice", "a group of one repeated row"])
def test_duplicate_observations_fit_and_scan_without_a_traceback(rng, kind):
    """On a batch of repeated rows, every fit and scan cell converges, raises
    a typed error (a failed cell in the scan), or runs to the iteration cap.
    A group of one repeated row makes the likelihood unbounded: its scales
    shrink every iteration until a repaired scale is no longer positive
    definite (SingularScaleError), or, under an MCD or EEE first dimension,
    to about 1e-30 in 200 iterations with no singular event.  A fit that ran
    to the cap is not selectable."""
    batch, _ = separated_batch(rng, n=20, g=2)
    if kind == "every row twice":
        batch = np.repeat(batch, 2, axis=0)
    else:
        batch = np.concatenate([batch, np.repeat(batch[:1] + 30.0, 5, axis=0)])
    families = [s.value for s in ALL_SPECS]
    grid = ScanGrid(groups=(1, 2, 3), spec_candidates=(families, ["VVV"], ["VVV"]),
                    options=FitOptions(max_iterations=200))
    result = scan(batch, grid, keep_models=True)
    for row in result.rows:
        try:
            _, report = fit(batch, row.g, row.specs, row.options)
        except TmclustError as exc:
            assert row.error == f"{type(exc).__name__}: {exc}"
            continue
        assert row.error is None
        assert np.array_equal(row.report.loglik_trace, report.loglik_trace)
        assert report.converged or report.n_iterations == 200
        assert row.selectable == report.converged
    assert result.best is not None


def test_fit_aborts_on_collapsed_component(rng):
    batch = rng.normal(size=(10, 2, 2))
    z0 = np.ones((10, 2))
    z0[:, 1] = 1e-8
    z0[:, 0] = 1.0 - 1e-8
    with pytest.raises(EmptyComponentError) as exc_info:
        fit(batch, 2, init_z=z0)
    assert exc_info.value.iteration == 1


def test_fit_rejects_init_z_whose_rows_do_not_sum_to_one(rng):
    batch = rng.standard_normal((20, 3, 2))
    with pytest.raises(ValueError, match="sum to 1"):
        fit(batch, 2, init_z=np.full((20, 2), 0.6), options=FitOptions(max_iterations=3))


@pytest.mark.parametrize(
    "init_z",
    [np.full((20, 2), np.nan), np.tile([-10.0, 11.0], (20, 1)), np.tile([np.inf, 0.5], (20, 1))],
    ids=["nan", "negative", "inf"],
)
def test_fit_rejects_a_bad_init_z(rng, init_z):
    batch = rng.standard_normal((20, 3, 2))
    with pytest.raises(ValueError, match="init_z must hold finite, non-negative entries"):
        fit(batch, 2, init_z=init_z, options=FitOptions(max_iterations=3))


@pytest.mark.parametrize("n_groups", [True, 2.0, 2.9, "2"])
def test_group_counts_follow_the_integer_rule(rng, n_groups):
    """``fit``, ``init_kmeans`` and ``free_params`` read G by the one integer
    rule: a bool, a float or a string is not a count."""
    batch = rng.standard_normal((12, 3, 2))
    calls = [
        lambda: fit(batch, n_groups, options=FitOptions(max_iterations=2)),
        lambda: init_kmeans(batch, n_groups),
        lambda: free_params((ScaleModel.VVV,) * 2, n_groups, (3, 2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"n_groups must be an integer >= 1, got {n_groups!r}"):
            call()


def test_group_counts_accept_numpy_integers(rng):
    batch = rng.standard_normal((12, 3, 2))
    _, report = fit(batch, np.int64(2), options=FitOptions(max_iterations=2))
    assert report.responsibilities.shape == (12, 2)
    assert init_kmeans(batch, np.int32(3)).shape == (12, 3)
    specs = (ScaleModel.VVV,) * 2
    assert free_params(specs, np.int64(2), (3, 2)) == free_params(specs, 2, (3, 2))


def test_mixture_and_component_reject_non_finite_values():
    comps = [MlndParams(mean=np.zeros((3, 2)), scales=(np.eye(3), np.eye(2)))] * 2
    for weights in ([np.nan, 0.5], [np.inf, 0.5], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="weights must be positive and sum to 1"):
            MixtureModel(weights, comps)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="the mean holds a NaN or infinite entry"):
            MlndParams(mean=np.full((3, 2), bad), scales=(np.eye(3), np.eye(2)))


@pytest.mark.parametrize("seed", [-1, True, (1, "a"), (2, -3), (), [], 1.0, "7"])
def test_fit_options_reject_a_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be"):
        FitOptions(seed=seed)


def test_fit_options_accept_numpy_integers(tmp_path, rng):
    """numpy counts and seeds are stored as Python ints, so a fit with them
    writes the same result bytes as one with the Python ints."""
    options = FitOptions(seed=np.int64(3), max_iterations=np.int64(5))
    assert type(options.seed) is int and type(options.max_iterations) is int
    assert FitOptions(seed=[np.int32(2), np.uint8(0)]).seed == (2, 0)
    batch = rng.standard_normal((20, 3, 2))
    written = []
    for opts in (options, FitOptions(seed=3, max_iterations=5)):
        path = tmp_path / f"result{len(written)}.json"
        write_result(result_document(*fit(batch, 2, options=opts), opts), path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"max_iterations": 2.5}, "max_iterations must be an integer >= 1, got 2.5"),
        ({"max_iterations": True}, "max_iterations must be an integer >= 1, got True"),
        ({"max_iterations": 0}, "max_iterations must be an integer >= 1, got 0"),
        ({"max_iterations": "5"}, "max_iterations must be an integer >= 1, got '5'"),
        ({"kmeans_restarts": 1.5}, "kmeans_restarts must be an integer >= 1, got 1.5"),
        ({"kmeans_restarts": False}, "kmeans_restarts must be an integer >= 1, got False"),
        ({"kmeans_restarts": 0}, "kmeans_restarts must be an integer >= 1, got 0"),
        ({"aitken_epsilon": True}, "aitken_epsilon must be a number, got True"),
        ({"aitken_epsilon": "1"}, "aitken_epsilon must be a number, got '1'"),
        ({"aitken_epsilon": 0.0}, "aitken_epsilon must be > 0"),
        ({"aitken_epsilon": float("nan")}, "aitken_epsilon must be > 0"),
        ({"reg_epsilon": True}, "reg_epsilon must be a number, got True"),
        ({"reg_epsilon": "0.01"}, "reg_epsilon must be a number, got '0.01'"),
        ({"reg_epsilon": 0.5}, r"reg_epsilon must lie in \(0, 0.1\]"),
    ],
)
def test_fit_options_reject_bad_counts_and_epsilons(kwargs, match):
    """Counts are ints >= 1 and epsilons real numbers; a bool is neither,
    so nothing reaches ``range`` or a comparison as the wrong type."""
    with pytest.raises(ValueError, match=match):
        FitOptions(**kwargs)


def test_fit_options_accept_ints_and_reals():
    options = FitOptions(
        max_iterations=3, kmeans_restarts=1, aitken_epsilon=1, reg_epsilon=np.float64(0.01)
    )
    assert (options.max_iterations, options.kmeans_restarts) == (3, 1)
    assert (options.aitken_epsilon, options.reg_epsilon) == (1, 0.01)


def test_fit_options_keep_a_seed_list_as_a_tuple():
    assert FitOptions(seed=[2, 0, 5]).seed == (2, 0, 5)
    assert FitOptions(seed=(7,)).seed == (7,)
    assert FitOptions(seed=0).seed == 0


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


def test_zero_extent_arrays_raise_value_error():
    grid = ScanGrid(groups=(1,), spec_candidates=((ScaleModel.VVV,), (ScaleModel.VVV,)))
    params = MlndParams(mean=np.zeros((3, 2)), scales=(np.eye(3), np.eye(2)))
    for empty in (np.zeros((4, 0, 2)), np.zeros((0, 3, 2))):
        for call in (fit, init_kmeans):
            with pytest.raises(ValueError, match="at least one entry"):
                call(empty, 1)
        with pytest.raises(ValueError, match="at least one entry"):
            scan(empty, grid)
    with pytest.raises(ValueError, match="at least one entry"):
        log_density(np.zeros((3, 0)), params)


def _one_constant_cell(rng):
    batch = rng.normal(size=(30, 4, 3, 2))
    batch[:, 1, 2, 0] = 3.0
    return batch


@pytest.mark.parametrize(
    "make_batch, g, singular",
    [
        (_one_constant_cell, 1, False),
        (_one_constant_cell, 2, False),
        (lambda rng: rng.normal(size=(2, 6, 5, 4)), 1, False),
        (lambda rng: rng.normal(size=(2, 6, 5, 4)), 2, True),
        (lambda rng: np.full((10, 3, 3), 1.5), 2, True),
    ],
    ids=["constant-cell-g1", "constant-cell-g2", "n2-g1", "n2-g2", "all-constant-g2"],
)
def test_degenerate_inputs_fit_with_finite_loglik(rng, make_batch, g, singular):
    """A constant cell, N = 2 < n_d and an all-constant batch all fit.

    The Kronecker scales pool every cell, so only the cases with one
    observation per group (or none varying) need the ridge repair, and they
    record it as singular events.
    """
    model, report = fit(make_batch(rng), g, options=FitOptions(seed=0))
    assert report.converged
    assert np.isfinite(report.loglik) and np.isfinite(report.bic)
    assert np.all(np.isfinite(report.responsibilities))
    assert bool(report.singular_events) == singular
    assert model.n_groups == g


def test_fit_reports_bic_consistent_with_rho(rng):
    batch, _ = separated_batch(rng, n=30, g=2)
    _, report = fit(batch, 2, options=FitOptions(seed=4))
    expected = 2 * report.loglik - report.rho * np.log(30)
    assert report.bic == pytest.approx(expected, rel=1e-14)


def test_singular_event_fields():
    e = SingularEvent(group=None, dim=2, iteration=7)
    assert e.group is None and e.dim == 2 and e.iteration == 7


# --- the incremental sweep inside fits ----------------------------------------------


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fit_sweep_matches_from_scratch_oracle(spec, rng, monkeypatch):
    """In fits of order 2, 3 and 4, every scatter of the sweep and every
    E-step quadratic form equals the from-scratch triangular-solve route
    under the factors the fit holds at that moment.  Ill-conditioned factors
    are covered by the sweep test in ``test_mlnd.py``: fitted to such data,
    three factors of condition 1e11-1e12 leave even the from-scratch routes
    disagreeing in the second digit."""
    checked = {"scatter": 0, "quad": 0}
    sweep_step, quad_matrix, inv_lower = (
        em._scatter_one, mlnd.SweepWorkspace.quad_matrix, em.inv_lower
    )
    held = []  # every L stack the fit keeps, in update order: dimension 1 to D

    def scatter(work, dim, means, z, invs, chols):
        got = sweep_step(work, dim, means, z, invs, chols)
        for k, mean in enumerate(means):
            want = oracles.scatter(work.batch, mean, z[:, k], [L[k] for L in chols], dim)
            assert_matches_oracle(got[k], want)
            checked["scatter"] += 1
        return got

    def inv(L):
        held.append(L)
        return inv_lower(L)

    def quads(work, means, invs, offsets, fit_chols):
        got = quad_matrix(work, means, invs, offsets, fit_chols)
        chols = held[-(means.ndim - 1):]  # the last sweep's D stacks
        want = np.empty_like(got)
        for k, mean in enumerate(means):
            white = oracles.whiten_all_modes(work.batch - mean, [L[k] for L in chols])
            want[:, k] = (white.reshape(len(white), -1) ** 2).sum(axis=1)
        # a skipped pair's form is +inf, and its entry lies past exp's underflow
        skipped = np.isinf(got)
        entries = offsets - 0.5 * want
        assert np.all((entries < entries.max(axis=1, keepdims=True) - 745.2)[skipped])
        for k in range(len(means)):
            assert_matches_oracle(got[~skipped[:, k], k], want[~skipped[:, k], k])
            checked["quad"] += 1
        return got

    monkeypatch.setattr(em, "_scatter_one", scatter)
    monkeypatch.setattr(em, "inv_lower", inv)
    monkeypatch.setattr(mlnd.SweepWorkspace, "quad_matrix", quads)
    for dims in [(3, 2), (2, 3, 2), (2, 2, 3, 2)]:
        held.clear()
        comps = [
            MlndParams(
                mean=np.full(dims, 3.0 * k),
                scales=tuple(random_spd(n, rng) for n in dims),
            )
            for k in range(2)
        ]
        batch = np.stack([sample(comps[i % 2], rng) for i in range(40)])
        _, report = fit(batch, 2, specs=(spec,) * len(dims), options=FitOptions(max_iterations=3))
        assert report.n_iterations == 3
    assert checked == {"scatter": 2 * 3 * (2 + 3 + 4), "quad": 2 * 3 * 3}


# --- allocation guards on the benchmark cell (7^4, N=180, G=3) ----------------------


@pytest.fixture(scope="module")
def cell_7x4():
    rng = np.random.default_rng(7)
    dims = (7, 7, 7, 7)
    scales = tuple(np.eye(7) for _ in dims)
    comps = [MlndParams(mean=np.full(dims, 2.0 * k), scales=scales) for k in range(3)]
    return np.stack([sample(comps[i % 3], rng) for i in range(180)])


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_peak_is_at_most_one_batch(cell_7x4):
    peak = traced_peak(init_kmeans, cell_7x4, 3, FitOptions(kmeans_restarts=2))
    assert peak <= cell_7x4.nbytes


def test_fit_peak_is_the_workspace(cell_7x4):
    """The sweep holds G partly whitened batches plus one block buffer; the
    EM loop allocates nothing else of the batch's size."""
    z = init_kmeans(cell_7x4, 3, rng=np.random.default_rng(0))
    peak = traced_peak(fit, cell_7x4, 3, init_z=z, options=FitOptions(max_iterations=3))
    assert peak <= 4 * cell_7x4.nbytes + 2**20


def test_public_loglik_peak_is_one_workspace(cell_7x4):
    """A model's densities whiten each component in a fresh one-group
    workspace, every block in its two block buffers: no public route
    allocates anything of the batch's size."""
    z = init_kmeans(cell_7x4, 3, rng=np.random.default_rng(0))
    model, _ = fit(cell_7x4, 3, init_z=z, options=FitOptions(max_iterations=1))
    for fn, arg in [
        (loglik_matrix, model), (e_step, model), (log_density_batch, model.components[0]),
    ]:
        assert traced_peak(fn, cell_7x4, arg) <= 0.4 * cell_7x4.nbytes, fn.__name__


def test_fit_skips_the_e_step_pairs_it_rules_out(cell_7x4, monkeypatch):
    """On these separated groups the E-steps after the first whiten no rest
    pair, the carried bound ruling each out, and the fit is bit for bit the
    one that whitens every pair (a floor of +inf nats)."""
    z = init_kmeans(cell_7x4, 3, rng=np.random.default_rng(0))
    columns = []  # observations per mode pass
    solve_mode = mlnd._solve_mode

    def counted(values, inv_factor, axis, out=None):
        columns.append(values.shape[-1])
        return solve_mode(values, inv_factor, axis, out)

    monkeypatch.setattr(mlnd, "_solve_mode", counted)
    runs = []
    for floor in (mlnd._SKIP_NATS, np.inf):
        monkeypatch.setattr(mlnd, "_SKIP_NATS", floor)
        columns.clear()
        _, report = fit(cell_7x4, 3, init_z=z, options=FitOptions(max_iterations=4))
        runs.append((report, sum(columns)))
    (pruned, cols), (full, full_cols) = runs
    for field in ("loglik_trace", "responsibilities", "labels"):
        assert np.array_equal(getattr(pruned, field), getattr(full, field))
    assert np.count_nonzero(full.responsibilities == 0) == 2 * 180
    assert full_cols - cols == 4 * 3 * 2 * 180  # D passes, E-steps 2 to 4, the rest pairs
