"""Hot numeric kernels: admissible-word enumeration, batch Birkhoff sums, Karp DP."""

import numpy as np


_BLOCK_ROWS = 8192  # rows per Birkhoff block; it bounds the (rows, n) temporaries


def word_matrix(trans, length):
    """All admissible words of the given length, lexicographic, shape (count, length) uint8.

    Fills a preallocated matrix column by column: tails[m][a] counts the words
    of length m + 1 starting at a, and column j repeats the last symbols of the
    length-(j + 1) prefixes once per completion. np.nonzero walks rows in order
    and allowed successors in ascending order, so rows stay lexicographic.
    """
    tails = [np.ones(trans.shape[0], dtype=np.int64)]
    for _ in range(length - 1):
        tails.append(trans.astype(np.int64) @ tails[-1])
    out = np.empty((int(tails[-1].sum()), length), dtype=np.uint8)
    last = np.arange(trans.shape[0])
    for j in range(length):
        out[:, j] = np.repeat(last, tails[length - 1 - j][last])
        if j + 1 < length:
            last = np.nonzero(trans[last])[1]
    return out


def birkhoff_kernel(words, n, memory, values_flat, A):
    """Per-row sum of values_flat[block index] over the n shifted memory-blocks,
    in blocks of _BLOCK_ROWS rows; each row's reduction is the one the whole
    matrix would get, so results do not depend on the block size."""
    out = np.empty(words.shape[0], dtype=values_flat.dtype)
    for start in range(0, words.shape[0], _BLOCK_ROWS):
        block = words[start : start + _BLOCK_ROWS]
        idx = np.zeros((block.shape[0], n), dtype=np.int64)
        for j in range(memory):
            idx = idx * A + block[:, j : j + n].astype(np.int64)
        np.add.reduce(values_flat[idx], axis=1, out=out[start : start + _BLOCK_ROWS])
    return out


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
