"""Partition agreement and parameter recovery measures."""

from __future__ import annotations

import numpy as np


def _pair_counts(labels_a, labels_b):
    """Exact pair-concordance sums from the contingency table of two labelings.

    Returns Python ints (total pairs, same-in-both, same-in-a, same-in-b
    pair counts) so downstream ratios can be formed without float rounding.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"label vectors must have equal length, got {a.size} and {b.size}")
    n = a.size
    if n == 0:
        raise ValueError("label vectors must be nonempty")
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    def choose2(v) -> int:
        v = np.asarray(v, dtype=np.int64)
        return int((v * (v - 1) // 2).sum())

    total = n * (n - 1) // 2
    sum_ij = choose2(table)
    sum_a = choose2(table.sum(axis=1))
    sum_b = choose2(table.sum(axis=0))
    return total, sum_ij, sum_a, sum_b


def rand_index(labels_a, labels_b) -> float:
    """Fraction of observation pairs on which two partitions agree."""
    total, sum_ij, sum_a, sum_b = _pair_counts(labels_a, labels_b)
    if total == 0:
        return 1.0
    return (total + 2 * sum_ij - sum_a - sum_b) / total


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Rand index corrected for chance agreement.

    Computed with integer arithmetic so fixture values come out exact;
    the degenerate 0/0 case (e.g. both partitions trivial) returns 1.0.
    """
    total, sum_ij, sum_a, sum_b = _pair_counts(labels_a, labels_b)
    num = 2 * (total * sum_ij - sum_a * sum_b)
    den = total * (sum_a + sum_b) - 2 * sum_a * sum_b
    if den == 0:
        return 1.0
    return num / den


def relative_error(estimate, truth) -> float:
    """Frobenius-norm error of ``estimate`` relative to ``truth``."""
    est = np.asarray(estimate, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    denom = np.linalg.norm(tru)
    if denom == 0.0:
        raise ValueError("truth has zero norm; relative error undefined")
    return float(np.linalg.norm(est - tru) / denom)


def kron_relative_error(estimate_scales, truth_scales) -> float:
    """Relative Frobenius error between two Kronecker products of scale lists.

    Uses trace identities (||A (x) B||_F^2 factorizes over the factors) so the
    products are never materialized; a dense evaluation would be cubic in the
    total array size.
    """
    est = [np.asarray(m, dtype=np.float64) for m in estimate_scales]
    tru = [np.asarray(m, dtype=np.float64) for m in truth_scales]
    if len(est) != len(tru):
        raise ValueError("scale lists must have equal length")
    for a, b in zip(est, tru):
        if a.shape != b.shape:
            raise ValueError(f"factor shape mismatch: {a.shape} vs {b.shape}")
    ee = float(np.prod([np.sum(a * a) for a in est]))
    tt = float(np.prod([np.sum(b * b) for b in tru]))
    et = float(np.prod([np.sum(a * b) for a, b in zip(est, tru)]))
    if tt == 0.0:
        raise ValueError("truth has zero norm; relative error undefined")
    diff_sq = max(ee - 2.0 * et + tt, 0.0)
    return float(np.sqrt(diff_sq) / np.sqrt(tt))


__all__ = [
    "adjusted_rand_index",
    "kron_relative_error",
    "rand_index",
    "relative_error",
]
