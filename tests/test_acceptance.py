"""Acceptance gate: end-to-end numerical guarantees for the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances
are part of the contract and must not be loosened.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from tmclust.cli import main
from tmclust.em import (
    FitOptions,
    MixtureModel,
    e_step,
    fit,
    normalize_identifiability,
)
from tmclust.mda import Mda, kron, vectorize
from tmclust.metrics import adjusted_rand_index
from tmclust.mlnd import MlndParams, log_density, sample
from tmclust.parsimony import (
    ScaleModel,
    free_params,
    gpcm_eee_update,
    mcd_vvi_update,
)
from tmclust.simulate import SimConfig, run_study

from conftest import random_params, random_spd
from oracles import quadratic_form


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {criterion:>2}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. slice-decomposition log density == dense normal-on-vec oracle
# ---------------------------------------------------------------------------


def _dense_log_density(x: np.ndarray, params: MlndParams) -> float:
    sigma = kron(params.scales)
    resid = x.reshape(-1) - vectorize(params.mean.to_mda())
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    quad = float(resid @ np.linalg.solve(sigma, resid))
    return -0.5 * (resid.size * np.log(2 * np.pi) + logdet + quad)


def test_criterion_1_density_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for i in range(200):
        order = 2 + i % 3
        dims = tuple(int(rng.integers(1, 5)) for _ in range(order))
        params = random_params(dims, rng)
        x = rng.standard_normal(dims)
        got = log_density(Mda(x), params)
        want = _dense_log_density(x, params)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"200 instances, max |log-density diff| = {worst:.3e} (<= 1e-8), "
        f"{elapsed:.2f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. the three quadratic-form routes agree pairwise
# ---------------------------------------------------------------------------


def test_criterion_2_quadratic_form_routes():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(200):
        order = 3 + i % 2
        dims = tuple(int(rng.integers(1, 5)) for _ in range(order))
        params = random_params(dims, rng)
        x = rng.standard_normal(dims)
        centered = Mda(x - params.mean_array)

        sigma = kron(params.scales)
        v = (x - params.mean_array).reshape(-1)
        routes = [float(v @ np.linalg.solve(sigma, v))]
        routes.append(quadratic_form(centered, params))
        for swap in range(3, order + 1):
            routes.append(quadratic_form(centered, params, swap_with=swap))
        for a in routes:
            for b in routes:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    _verdict(
        2,
        worst <= 1e-10,
        f"200 instances incl. every swap route, max pairwise rel diff = "
        f"{worst:.3e} (<= 1e-10)",
    )


# ---------------------------------------------------------------------------
# 3. EM never decreases the observed log likelihood
# ---------------------------------------------------------------------------


def test_criterion_3_em_monotone():
    rng = np.random.default_rng(303)
    families = list(ScaleModel)
    per_family = {f: 0 for f in families}
    n_events = 0
    worst_drop = 0.0
    for i in range(50):
        family = families[i % len(families)]
        dims = (2, 3)
        means = [np.zeros(dims), np.full(dims, 2.0)]
        scales = [
            tuple(random_spd(n, rng) for n in dims),
            tuple(random_spd(n, rng) for n in dims),
        ]
        batch = np.stack(
            [
                sample(MlndParams(mean=means[k % 2], scales=scales[k % 2]), rng).array
                for k in range(40)
            ]
        )
        options = FitOptions(max_iterations=80, seed=i)
        _, report = fit(batch, 2, specs=(family, family), options=options)
        if report.singular_events:
            n_events += 1
            continue
        per_family[family] += 1
        trace = np.asarray(report.loglik_trace)
        drops = trace[:-1] - trace[1:]
        worst_drop = max(worst_drop, float(np.max(drops / np.abs(trace[:-1]))))
    coverage = min(per_family.values())
    _verdict(
        3,
        worst_drop <= 1e-8 and coverage >= 10,
        f"50 fits ({n_events} skipped for regularization events), every family "
        f">= {coverage} times, worst relative decrease = {worst_drop:.3e} (<= 1e-8)",
    )


# ---------------------------------------------------------------------------
# 4 & 5. simulation recovery and singularity rate on the reference cell
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_cell():
    config = SimConfig(
        n_obs=60,
        dims=(4, 4, 4, 4),
        n_groups=3,
        replicates=25,
        snr=1.0,
        condition_cap=10.0,
        base_seed=7,
        g_scan=(2, 3, 4, 5),
    )
    return run_study([config], workers=1)


def test_criterion_4_simulation_recovery(reference_cell):
    cell = reference_cell.cells[0]
    mean_ari = cell.ari_all["mean"]
    share = cell.share_true_g
    _verdict(
        4,
        cell.n_failed == 0 and mean_ari >= 0.95 and share >= 0.90,
        f"25 replicates: mean ARI = {mean_ari:.4f} (>= 0.95), "
        f"G=3 selected in {share:.0%} (>= 90%)",
    )


def test_criterion_5_singularity_rate(reference_cell):
    cell = reference_cell.cells[0]
    n_singular = sum(1 for r in reference_cell.records if r.singular)
    rate = n_singular / cell.n_replicates
    worst_err = max(cell.rel_err_mean_by_group)
    _verdict(
        5,
        rate <= 0.10 and worst_err < 1.0,
        f"singular replicates = {n_singular}/25 ({rate:.0%} <= 10%), worst "
        f"per-group mean relative error of the mean matricization = "
        f"{worst_err:.3f} (< 1)",
    )


# ---------------------------------------------------------------------------
# 6. identifiability normalization is lossless, pinning, and idempotent
# ---------------------------------------------------------------------------


def test_criterion_6_normalization():
    rng = np.random.default_rng(606)
    worst_kron = 0.0
    worst_ll = 0.0
    pinned = True
    idempotent = True
    for i in range(100):
        g = 1 + i % 3
        order = 2 + i % 2
        dims = tuple(int(rng.integers(1, 4)) for _ in range(order))
        comps = [random_params(dims, rng) for _ in range(g)]
        weights = rng.dirichlet(np.ones(g))
        model = MixtureModel(weights=weights, components=comps)
        batch = rng.standard_normal((8,) + dims)
        _, ll_before = e_step(batch, model)

        norm = normalize_identifiability(model)
        _, ll_after = e_step(batch, norm)
        worst_ll = max(worst_ll, abs(ll_after - ll_before))
        for before, after in zip(model.components, norm.components):
            diff = np.abs(kron(before.scales) - kron(after.scales))
            worst_kron = max(worst_kron, float(diff.max()))
        for comp in norm.components:
            for scale in comp.scales[1:]:
                if scale[0, 0] != 1.0:
                    pinned = False
        again = normalize_identifiability(norm)
        for a, b in zip(norm.components, again.components):
            if not all(np.array_equal(s, t) for s, t in zip(a.scales, b.scales)):
                idempotent = False
    _verdict(
        6,
        worst_kron <= 1e-12 and worst_ll <= 1e-10 and pinned and idempotent,
        f"100 models: max kron-product drift = {worst_kron:.3e} (<= 1e-12), "
        f"max loglik drift = {worst_ll:.3e} (<= 1e-10), leading entries pinned "
        f"exactly = {pinned}, idempotent = {idempotent}",
    )


# ---------------------------------------------------------------------------
# 7. free-parameter counts on an enumerated table
# ---------------------------------------------------------------------------


def test_criterion_7_parameter_counts():
    V, MV, ME, EE, GV = (
        ScaleModel.VVV,
        ScaleModel.MCD_VVI,
        ScaleModel.MCD_EVI,
        ScaleModel.GPCM_EEE,
        ScaleModel.GPCM_VVI,
    )
    # expected values are hand-summed: (G-1) mixing weights, G * n_star mean
    # entries, then per-dimension scale counts for the chosen family
    table = [
        (3, (4, 4, 4, 4), (V, V, V, V), 890),
        (1, (2,), (V,), 5),
        (2, (3, 2), (V, EE), 28),
        (2, (3, 2), (MV, MV), 25),
        (4, (2, 2, 2), (EE, EE, EE), 44),
        (3, (4, 3), (ME, GV), 56),
        (2, (2, 2), (GV, ME), 16),
        (1, (2, 2), (ME, EE), 9),
        (5, (3, 3, 3), (MV, MV, MV), 199),
        (2, (2, 3, 4), (V, MV, EE), 73),
    ]
    mismatches = [
        (g, dims, [s.value for s in specs], free_params(specs, g, dims).total, want)
        for g, dims, specs, want in table
        if free_params(specs, g, dims).total != want
    ]
    _verdict(
        7,
        not mismatches,
        f"{len(table)} enumerated (G, dims, family) cases match exactly"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


# ---------------------------------------------------------------------------
# 8. adjusted Rand index fixtures
# ---------------------------------------------------------------------------


def test_criterion_8_ari_fixtures():
    rng = np.random.default_rng(808)
    same = adjusted_rand_index([0, 1, 1, 2, 0], [5, 3, 3, 9, 5])
    crossed = adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2])
    draws = [
        adjusted_rand_index(rng.integers(0, 3, 60), rng.integers(0, 3, 60))
        for _ in range(1000)
    ]
    mean_random = float(np.mean(draws))
    _verdict(
        8,
        same == 1.0 and crossed == -0.5 and abs(mean_random) <= 0.05,
        f"identical -> {same}, crossed quartet -> {crossed} (exact), mean over "
        f"1000 random labelings = {mean_random:+.4f} (|.| <= 0.05)",
    )


# ---------------------------------------------------------------------------
# 9. modified-Cholesky and pooled-scale estimators
# ---------------------------------------------------------------------------


def _eee_oracle(lams, counts, n_obs, n_star):
    def unpack(p):
        a, b, c = p
        low = np.array([[np.exp(a), 0.0], [b, np.exp(c)]])
        return low @ low.T

    def objective(p):
        delta = unpack(p)
        sign, logdet = np.linalg.slogdet(delta)
        if sign <= 0:
            return np.inf
        inv = np.linalg.inv(delta)
        return (n_obs * n_star / 2) * logdet + sum(
            n * np.trace(inv @ l) for n, l in zip(counts, lams)
        )

    closed = gpcm_eee_update(lams, counts, n_obs, n_star)
    l0 = np.linalg.cholesky(closed)
    x0 = np.array([np.log(l0[0, 0]) + 0.05, l0[1, 0] + 0.05, np.log(l0[1, 1]) - 0.05])
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    return unpack(res.x)


def test_criterion_9_factor_estimators():
    factors = mcd_vvi_update(np.array([[2.0, 1.0], [1.0, 2.0]]), n_star=1)
    fixture_ok = (
        np.array_equal(factors.t, [[1.0, 0.0], [-0.5, 1.0]]) and factors.delta == 3.5
    )

    rng = np.random.default_rng(909)
    worst_offdiag = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        lam = random_spd(n, rng)
        t = mcd_vvi_update(lam, n_star=n).t
        rotated = t @ lam @ t.T
        off = rotated - np.diag(np.diag(rotated))
        worst_offdiag = max(worst_offdiag, float(np.abs(off).max()))

    worst_eee = 0.0
    for _ in range(20):
        lams = [random_spd(2, rng) for _ in range(3)]
        counts = rng.integers(5, 30, size=3).astype(float)
        n_obs = int(counts.sum())
        closed = gpcm_eee_update(lams, counts, n_obs, n_star=6)
        numeric = _eee_oracle(lams, counts, n_obs, n_star=6)
        rel = np.linalg.norm(closed - numeric) / np.linalg.norm(closed)
        worst_eee = max(worst_eee, float(rel))

    _verdict(
        9,
        fixture_ok and worst_offdiag <= 1e-10 and worst_eee <= 1e-6,
        f"2x2 fixture exact = {fixture_ok}, max |offdiag of T*L*T'| over 100 "
        f"random matrices = {worst_offdiag:.3e} (<= 1e-10), pooled-scale vs "
        f"derivative-free oracle rel err = {worst_eee:.3e} (<= 1e-6)",
    )


# ---------------------------------------------------------------------------
# 10. report files are byte-identical across worker counts
# ---------------------------------------------------------------------------


def test_criterion_10_thread_determinism(tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(
        json.dumps(
            {"n_obs": 24, "dims": [2, 3], "n_groups": 3, "replicates": 2,
             "base_seed": 10, "g_scan": [2, 3]}
        )
    )
    out1 = tmp_path / "report_t1.json"
    out2 = tmp_path / "report_t2.json"
    code1 = main(["simulate", "--config", str(config), "--threads", "1",
                  "--out", str(out1)])
    code2 = main(["simulate", "--config", str(config), "--threads", "2",
                  "--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    _verdict(
        10,
        code1 == 0 and code2 == 0 and identical,
        f"simulate --threads 1 vs 2: exit codes ({code1}, {code2}), report "
        f"bytes identical = {identical}",
    )
