"""Partition agreement indices and Frobenius recovery errors."""

import itertools

import numpy as np
import pytest

from tmclust.metrics import (
    adjusted_rand_index,
    kron_relative_error,
    rand_index,
    relative_error,
)

from conftest import random_spd
from oracles import kron, kron_relative_error_dense


def pair_oracle(a, b):
    """O(N^2) literal pair count: (agreements/total, chance-corrected)."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.size
    same_both = same_a = same_b = agree = 0
    total = 0
    for i, j in itertools.combinations(range(n), 2):
        total += 1
        sa, sb = a[i] == a[j], b[i] == b[j]
        same_a += sa
        same_b += sb
        same_both += sa and sb
        agree += sa == sb
    ri = agree / total
    expected = same_a * same_b / total
    max_index = (same_a + same_b) / 2
    den = max_index - expected
    ari = 1.0 if den == 0 else (same_both - expected) / den
    return ri, ari


def test_identical_partitions():
    labels = [0, 0, 1, 2, 2, 1]
    assert rand_index(labels, labels) == 1.0
    assert adjusted_rand_index(labels, labels) == 1.0


def test_relabelled_partitions_are_identical():
    a = [0, 0, 1, 1, 2, 2]
    b = [5, 5, 9, 9, 7, 7]
    assert adjusted_rand_index(a, b) == 1.0


def test_crossed_pairs_fixture_is_exactly_minus_half():
    assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == -0.5
    assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(1 / 3, rel=1e-15)


def test_matches_literal_pair_count(rng):
    for _ in range(20):
        n = int(rng.integers(5, 30))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        ri, ari = pair_oracle(a, b)
        assert rand_index(a, b) == pytest.approx(ri, abs=1e-12)
        assert adjusted_rand_index(a, b) == pytest.approx(ari, abs=1e-12)


def test_symmetry(rng):
    a = rng.integers(0, 3, size=40)
    b = rng.integers(0, 5, size=40)
    assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)
    assert rand_index(a, b) == rand_index(b, a)


def test_random_labels_average_near_zero(rng):
    total = 0.0
    for _ in range(1000):
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 3, size=50)
        total += adjusted_rand_index(a, b)
    assert abs(total / 1000) <= 0.05


def test_pair_mismatch_distance_satisfies_triangle(rng):
    """1 - RI is a per-pair Hamming distance, so the triangle inequality holds."""
    for _ in range(30):
        a = rng.integers(0, 3, size=25)
        b = rng.integers(0, 4, size=25)
        c = rng.integers(0, 2, size=25)
        dab = 1.0 - rand_index(a, b)
        dbc = 1.0 - rand_index(b, c)
        dac = 1.0 - rand_index(a, c)
        assert dac <= dab + dbc + 1e-12


def test_degenerate_partitions():
    # both trivial: the chance-correction denominator vanishes
    assert adjusted_rand_index([1, 1, 1], [2, 2, 2]) == 1.0
    assert rand_index([1, 1, 1], [2, 2, 2]) == 1.0
    # single pair of singletons
    assert rand_index([1], [1]) == 1.0
    assert adjusted_rand_index([1], [1]) == 1.0


def test_label_vectors_validated():
    with pytest.raises(ValueError):
        rand_index([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        adjusted_rand_index([], [])


def test_relative_error_basics():
    assert relative_error(np.eye(2), np.eye(2)) == 0.0
    assert relative_error([[2.0]], [[1.0]]) == 1.0
    assert relative_error([[0.0, 3.0]], [[4.0, 0.0]]) == 1.25
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        relative_error(np.eye(2), np.eye(3))


def test_kron_relative_error_matches_dense(rng):
    for _ in range(10):
        est = [random_spd(2, rng), random_spd(3, rng)]
        truth = [random_spd(2, rng), random_spd(3, rng)]
        fast = kron_relative_error(est, truth)
        dense = kron_relative_error_dense(est, truth)
        assert fast == pytest.approx(dense, abs=1e-10)


def test_kron_relative_error_three_factors(rng):
    est = [random_spd(n, rng) for n in (2, 2, 3)]
    truth = [random_spd(n, rng) for n in (2, 2, 3)]
    assert kron_relative_error(est, truth) == pytest.approx(
        relative_error(kron(est), kron(truth)), abs=1e-10
    )


def test_kron_relative_error_identical_is_zero(rng):
    mats = [random_spd(2, rng), random_spd(4, rng)]
    assert kron_relative_error(mats, [m.copy() for m in mats]) == 0.0


def test_kron_relative_error_validates_shapes(rng):
    with pytest.raises(ValueError):
        kron_relative_error([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        kron_relative_error([np.eye(2)], [np.eye(3)])
