"""Hot numeric kernels: admissible-word enumeration, batch Birkhoff sums, Karp DP."""

import numpy as np


def word_matrix(trans, length):
    """All admissible words of the given length, lexicographic, shape (count, length) uint8.

    Grows column by column: np.nonzero walks rows in order and allowed
    successors in ascending order, so lexicographic order is preserved.
    """
    A = trans.shape[0]
    out = np.arange(A, dtype=np.uint8).reshape(A, 1)
    for _ in range(length - 1):
        allowed = trans[out[:, -1].astype(np.intp)]
        rows, nxt = np.nonzero(allowed)
        out = np.concatenate([out[rows], nxt.astype(np.uint8).reshape(-1, 1)], axis=1)
    return out


def birkhoff_kernel(words, n, memory, values_flat, A):
    """Per-row sum of values_flat[block index] over the n shifted memory-blocks."""
    count = words.shape[0]
    idx = np.zeros((count, n), dtype=np.int64)
    for j in range(memory):
        idx = idx * A + words[:, j : j + n].astype(np.int64)
    return np.add.reduce(values_flat[idx], axis=1)


def karp_kernel(n_vertices, src, dst, weight):
    """Max mean cycle weight via Karp's DP table, numpy per-level updates.

    d[k][v] is the heaviest k-step walk from vertex 0 to v; the answer is
    max over v of min over k of (d[n][v] - d[k][v]) / (n - k).
    """
    n = n_vertices
    NEG = -np.inf
    d = np.full((n + 1, n), NEG)
    d[0][0] = 0.0
    for k in range(1, n + 1):
        prev = d[k - 1][src]
        cand = np.where(prev > NEG, prev + weight, NEG)
        np.maximum.at(d[k], dst, cand)
    worst = np.full(n, np.inf)
    for k in range(n):
        reached = d[k] > NEG
        worst[reached] = np.minimum(worst[reached], (d[n][reached] - d[k][reached]) / (n - k))
    closed = d[n] > NEG
    return float(worst[closed].max()) if closed.any() else NEG
