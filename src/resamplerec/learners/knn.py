"""k-nearest-neighbors scorer: fraction of the k nearest training points labelled 1."""

from __future__ import annotations

import numpy as np

_TAKEN = np.iinfo(np.int64).max  # above the bits of every non-negative double, +inf included


def _squared_distances(train_x: np.ndarray, query: np.ndarray) -> np.ndarray:
    """(q, n) squared Euclidean distances, built one feature at a time.

    The per-feature terms are added in the order numpy's pairwise summation
    uses for `.sum(axis=-1)` over a contiguous axis of length d, so the
    result is bit-identical to `((query[:, None] - train_x[None]) ** 2).sum(axis=2)`
    without its (q, n, d) temporary.
    """
    def term(j: int) -> np.ndarray:
        diff = query[:, j, None] - train_x[:, j]
        return np.multiply(diff, diff, out=diff)

    def pairwise(lo: int, count: int) -> np.ndarray:
        if count < 8:
            acc = np.zeros((query.shape[0], train_x.shape[0]))
            for j in range(lo, lo + count):
                acc += term(j)
            return acc
        if count <= 128:
            lanes = [term(lo + j) for j in range(8)]
            end = lo + count - count % 8
            for base in range(lo + 8, end, 8):
                for j in range(8):
                    lanes[j] += term(base + j)
            acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) \
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
            for j in range(end, lo + count):
                acc += term(j)
            return acc
        half = count // 2
        half -= half % 8
        return pairwise(lo, half) + pairwise(lo + half, count - half)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an infinite distance
        return pairwise(0, train_x.shape[1])


def knn_scores(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Euclidean neighbors; distance ties broken by lower training index.

    The k neighbours are taken by k rounds of `argmin` over each query's
    distances, which returns the lowest index among equal values, so they
    come out in the order of a stable sort without sorting any row.
    """
    k = min(k, train_x.shape[0])
    # non-negative doubles order like their bit patterns
    bits = _squared_distances(train_x, query).view(np.int64)
    rows = np.arange(query.shape[0])
    neighbors = np.empty((query.shape[0], k), dtype=np.intp)
    for r in range(k):
        taken = bits.argmin(axis=1)
        neighbors[:, r] = taken
        bits[rows, taken] = _TAKEN
    return train_y[neighbors].mean(axis=1)
