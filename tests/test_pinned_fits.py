"""Fits pinned to recorded results.

Rewrites of the EM sweep may reorder floating-point sums, so fitted values
can move by round-off.  The stated tolerance: on these fits the final
log-likelihood and BIC stay within rtol 1e-9 of the recorded values, and the
labels and iteration counts are exactly the recorded ones.  The values were
recorded with the observation-first sweep, before the observation-last block
layout replaced it.
"""

import numpy as np
import pytest

from tmclust import mlnd
from tmclust.em import FitOptions, fit
from tmclust.mlnd import MlndParams, sample
from tmclust.parsimony import ScaleModel as S

from conftest import random_spd

# name: (dims, N, G, specs, rows per block or None for the default budget)
CASES = {
    "d2": ((5, 4), 48, 2, (S.VVV, S.MCD_VVI), None),
    "d3": ((4, 3, 3), 60, 3, (S.GPCM_VVI, S.GPCM_EEE, S.MCD_EVI), None),
    "d4": ((3, 4, 2, 3), 72, 2, (S.MCD_EVI, S.VVV, S.GPCM_VVI, S.MCD_VVI), None),
    "d4-blocks": ((3, 4, 2, 3), 72, 2, (S.MCD_EVI, S.VVV, S.GPCM_VVI, S.MCD_VVI), 5),
}

# name: (loglik, BIC, n_iterations, labels as one digit per observation)
PINNED = {
    "d2": (
        -1472.3052224143248, -3273.6625307558206, 15,
        "101101100001111010001111001000100010101001010100",
    ),
    "d3": (
        -4067.46043468522, -8683.563040708203, 34,
        "222222212212222122212212222222202220222122222212021121222222",
    ),
    "d4": (
        -9997.181461263868, -20772.716156188657, 8,
        "101100100100000001101100111011011101100011100111000010010101101110001011",
    ),
    "d4-blocks": (
        -9997.181461263868, -20772.716156188657, 8,
        "101100100100000001101100111011011101100011100111000010010101101110001011",
    ),
}


def pinned_fit(name, monkeypatch):
    dims, n, g, specs, block_rows = CASES[name]
    rng = np.random.default_rng(sum(dims) * 1000 + n)
    comps = [
        MlndParams(mean=np.full(dims, 0.3 * k), scales=tuple(random_spd(m, rng) for m in dims))
        for k in range(g)
    ]
    batch = np.concatenate([sample(c, rng, size=n // g) for c in comps])
    batch = batch[rng.permutation(n)]
    if block_rows is not None:
        monkeypatch.setattr(mlnd, "_BLOCK_BYTES", block_rows * batch[0].nbytes)
    return fit(batch, g, specs=specs, options=FitOptions(seed=3))


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_matches_pinned_results(name, monkeypatch):
    _, report = pinned_fit(name, monkeypatch)
    loglik, bic, iterations, labels = PINNED[name]
    np.testing.assert_allclose(report.loglik_trace[-1], loglik, rtol=1e-9, atol=0)
    np.testing.assert_allclose(report.bic, bic, rtol=1e-9, atol=0)
    assert report.n_iterations == iterations
    assert "".join(map(str, report.labels)) == labels
