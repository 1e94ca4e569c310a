"""Property-based tests: generated inputs instead of hand-picked fixtures.

Each test is derandomized with a fixed example budget, so a run is
reproducible and its cost is bounded.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from tmclust import mlnd  # noqa: E402
from tmclust.em import FAMILIES, FitOptions, MixtureModel, fit, loglik_matrix  # noqa: E402
from tmclust.errors import DataFormatError, TmclustError  # noqa: E402
from tmclust.io import _load_csv_long, _parse_csv_long, _scan_csv_long  # noqa: E402
from tmclust.mlnd import MlndParams  # noqa: E402
from tmclust.parsimony import ScaleModel, mcd_evi_update, mcd_vvi_update  # noqa: E402

from conftest import spd_with_condition  # noqa: E402
from oracles import dense_log_density, mcd_rowwise  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


# --- the long-CSV reader -------------------------------------------------------------

# tokens the row scan accepts, rejects, or reads differently from np.loadtxt
TOKENS = st.sampled_from(
    ["1", "2", "0", "-1", "+1", " 1", "1 ", "01", "1.0", "1.", "1e0", "1_0", "١", "1\x1c",
     "1ᅰ", "\t2", "", " ", "nan", "inf", "-0", "0.5", "1e-320", "1e400", '"1"', "#", "x"]
)

# characters around a token: int() and float() strip only some of them
SPACING = st.text(alphabet=[" ", "\t", "\x0b", "\x1c", "\x1f", "\xa0", "\u1170", "_", "0"],
                  max_size=2)


@st.composite
def csv_long_files(draw):
    """A valid csv-long file of a small batch, then a few mutations."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    n_obs = draw(st.integers(1, 3))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=n_obs * int(np.prod(dims)), max_size=n_obs * int(np.prod(dims)),
        )
    )
    rows = [
        [str(i + 1)] + [str(j + 1) for j in idx] + [repr(values[c])]
        for c, (i, idx) in enumerate(
            (i, idx) for i in range(n_obs) for idx in np.ndindex(*dims)
        )
    ]
    rows = draw(st.permutations(rows))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token"] * 4 + ["drop", "duplicate", "blank", "raw"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "token" and lines:
            fields = lines[at].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.one_of(TOKENS, st.builds(
                "{}{}{}".format, SPACING, st.just(fields[j]), SPACING)))
            lines[at] = ",".join(fields)
        elif kind == "drop" and lines:
            del lines[at]
        elif kind == "duplicate" and lines:
            lines.insert(at, lines[at])
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\r"])))
        elif kind == "raw":
            lines.insert(at, draw(st.text(alphabet="0123456789,.e- \t\"#", max_size=12)))
    header = ",".join(["obs_id"] + [f"i{k + 1}" for k in range(len(dims))] + ["value"])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return dims, n_obs, end.join([header] + lines) + draw(st.sampled_from(["", end, end * 2]))


def outcome(load, path, dims, n_obs):
    try:
        return load(path, dims, n_obs)
    except DataFormatError as exc:
        return str(exc)


@PROPERTY
@given(csv_long_files())
def test_csv_long_fast_path_agrees_with_the_row_scan(case):
    """The chunked parse gives the row scan's array bit for bit, or the row
    scan's error; whatever it accepts, the row scan accepts too."""
    dims, n_obs, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arrays.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = outcome(_scan_csv_long, path, dims, n_obs)
        got = outcome(_load_csv_long, path, dims, n_obs)
        fast = _parse_csv_long(path, dims, n_obs)
    if isinstance(want, str):
        assert got == want
        assert fast is None
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert fast is None or np.array_equal(fast.view(np.int64), want.view(np.int64))


# --- the density's one whitening route --------------------------------------------------


@st.composite
def density_cases(draw):
    """Components of a mixture and a batch to evaluate them on.

    Each scale matrix has condition number 10**e_d, the exponents summing to
    at most 6: the dense oracle solves with the Kronecker covariance, whose
    condition number is their product, so its own error grows with it.  The
    batch repeats rows and comes C-ordered, Fortran-ordered or strided.
    """
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    exps = np.array(draw(st.lists(st.floats(0, 6), min_size=len(dims), max_size=len(dims))))
    exps *= min(1.0, 6.0 / max(exps.sum(), 1e-300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = [
        MlndParams(
            rng.standard_normal(dims),
            tuple(spd_with_condition(n, 10.0**e, rng) for n, e in zip(dims, exps)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    rows = rng.standard_normal((draw(st.integers(1, 6)),) + dims)
    batch = rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12))]
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        batch = np.asfortranarray(batch)
    elif layout == "strided":
        batch = np.repeat(batch, 2, axis=0)[::2]
    return comps, batch, draw(st.sampled_from([None, 1, 2, 3]))


@PROPERTY
@given(density_cases())
def test_densities_match_the_dense_oracle(case):
    """``log_density_batch`` and the columns of a model's ``loglik_matrix``
    equal the dense oracle, also when the workspace carves several blocks."""
    comps, batch, block_rows = case
    weights = np.arange(1.0, len(comps) + 1) / sum(range(1, len(comps) + 1))
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(mlnd, "_BLOCK_BYTES", block_rows * batch[0].nbytes)
        matrix = loglik_matrix(batch, MixtureModel(weights, comps))
        for k, comp in enumerate(comps):
            want = [dense_log_density(x, comp) for x in batch]
            np.testing.assert_allclose(mlnd.log_density_batch(batch, comp), want, rtol=1e-9)
            np.testing.assert_allclose(matrix[:, k], np.log(weights[k]) + want, rtol=1e-9)


# --- the MCD families' one LDL' --------------------------------------------------------


@st.composite
def scatter_stacks(draw):
    """A (G, n, n) stack of B_g B_g' times a power of two, with small-integer
    B_g of r_g columns: full rank, rank-deficient (r_g < n) or all zero.  A
    zero row of B_g gives a zero pivot."""
    n, g = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    mats = []
    for _ in range(g):
        r = draw(st.integers(0, n + 2))
        b = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * r, max_size=n * r)))
        mats.append(b.reshape(n, r) @ b.reshape(n, r).T)
    return np.stack(mats).astype(np.float64) * 2.0 ** draw(st.integers(-20, 20))


@PROPERTY
@given(scatter_stacks())
def test_mcd_ldl_decorrelates_and_flags_zero_pivots(lams):
    """T is unit lower and decorrelates every matrix; T and delta match the
    row-wise oracle wherever every pivot is clear of round-off (a pivot at
    round-off leaves T undetermined); a matrix with a zero pivot gets
    delta = 0, with no jitter, and the EM update repairs and flags it; a
    zero pivot of the pooled matrix flags every MCD-EVI group."""
    g, n, _ = lams.shape
    t, deltas, _ = mcd_vvi_update(lams, n_star=n)
    assert np.array_equal(np.diagonal(t, axis1=1, axis2=2), np.ones((g, n)))
    assert not np.triu(t, 1).any()
    rotated = t @ lams @ t.transpose(0, 2, 1)
    zero_pivot = (np.diagonal(lams, axis1=1, axis2=2) == 0).any(axis=1)
    for k in range(g):
        pivots = rotated[k].diagonal()
        assert np.abs(rotated[k] - np.diag(pivots)).max() <= 1e-10 * np.abs(rotated[k]).max()
        if (pivots > 1e-8 * lams[k].diagonal().max()).all():
            t_ref, delta_ref = mcd_rowwise(lams[k], n)
            np.testing.assert_allclose(t[k], t_ref, rtol=0, atol=1e-9 * np.abs(t_ref).max())
            assert deltas[k] == pytest.approx(delta_ref, rel=1e-9)
        elif deltas[k] > 0:
            assert deltas[k] == pytest.approx(pivots.sum() / n, rel=1e-9, abs=0)
        if zero_pivot[k]:
            assert deltas[k] == 0.0
        if not lams[k].any():
            assert np.array_equal(t[k], np.eye(n))
    reg, eye = 1e-3, np.broadcast_to(np.eye(n), lams.shape)
    scales, _, flagged = FAMILIES[ScaleModel.MCD_VVI].update(lams, np.ones(g), g, n, eye, reg)
    assert set(np.flatnonzero(deltas == 0)) <= set(flagged)
    for k in np.flatnonzero(deltas == 0):
        assert np.array_equal(scales[k], reg * np.eye(n))
    if (np.diagonal(lams.sum(axis=0)) == 0).any():
        assert not mcd_evi_update(lams, np.ones(g), np.ones(g), n)[1].any()
        _, _, flagged = FAMILIES[ScaleModel.MCD_EVI].update(lams, np.ones(g), g, n, eye, reg)
        assert flagged == list(range(g))


# --- the E-step's skipped pairs ----------------------------------------------------------


@st.composite
def mixture_fits(draw):
    """A batch drawn from G <= 4 components of order D in {2, 3, 4}, whose
    scales have per-dimension condition numbers up to 1e8 and whose means lie
    0.3 to 300 units apart, with a family per dimension and a fit seed."""
    d = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.integers(2, 5 - d // 2), min_size=d, max_size=d)))
    g = draw(st.integers(1, 4))
    specs = tuple(draw(st.lists(st.sampled_from(list(ScaleModel)), min_size=d, max_size=d)))
    exps = draw(st.lists(st.floats(0, 8), min_size=d, max_size=d))
    gap = 10.0 ** draw(st.floats(-0.5, 2.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = np.concatenate([
        mlnd.sample(
            MlndParams(
                gap * rng.standard_normal(dims),
                tuple(spd_with_condition(n, 10.0**e, rng) for n, e in zip(dims, exps)),
            ),
            rng,
            size=draw(st.integers(3, 12)),
        )
        for _ in range(g)
    ])
    return batch, g, specs, draw(st.integers(0, 2**16))


def fit_outcome(batch, g, specs, seed):
    """A fit's trace, responsibilities and labels, or the error it raised."""
    try:
        _, report = fit(batch, g, specs, FitOptions(max_iterations=30, seed=seed))
    except (ArithmeticError, ValueError, TmclustError) as exc:
        return repr(exc)
    return report.loglik_trace, report.responsibilities, report.labels


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(mixture_fits())
def test_skipped_e_step_pairs_leave_fits_bit_for_bit(case):
    """A fit whose E-steps skip the pairs the carried bound rules out gives
    the trace, responsibilities and labels of the same fit computing every
    pair (a floor of +inf nats skips none), bit for bit, or the same error."""
    skipped = []
    quad_matrix = mlnd.SweepWorkspace.quad_matrix

    def counted(work, *args):
        quad = quad_matrix(work, *args)
        skipped.append(int(np.isinf(quad).sum()))
        return quad

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mlnd.SweepWorkspace, "quad_matrix", counted)
        got = fit_outcome(*case)
        event(f"skipped pairs: {'some' if sum(skipped) else 'none'}")
        mp.setattr(mlnd, "_SKIP_NATS", np.inf)
        skipped.clear()
        want = fit_outcome(*case)
        assert sum(skipped) == 0
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
