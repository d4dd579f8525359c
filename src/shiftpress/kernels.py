"""Hot numeric kernels: admissible-word enumeration, rows and memory-1 weight
classes joined from word halves, the memory-1 Birkhoff sums read from rows
of symbol counts, batch Birkhoff sums, Karp DP."""

import numpy as np


_BLOCK_ROWS = 8192  # rows per Birkhoff, weight-class or running-sum block; it bounds the temporaries


def _tails(trans, length):
    """tails[m][a] counts the admissible words of length m + 1 starting at a."""
    tails = [np.ones(trans.shape[0], dtype=np.int64)]
    for _ in range(length - 1):
        tails.append(trans.astype(np.int64) @ tails[-1])
    return tails


def word_matrix(trans, length):
    """All admissible words of the given length, lexicographic, shape (count, length) uint8.

    Fills a preallocated matrix column by column: column j repeats the last
    symbols of the length-(j + 1) prefixes once per completion, as counted by
    _tails. np.nonzero walks rows in order and allowed successors in ascending
    order, so rows stay lexicographic.
    """
    tails = _tails(trans, length)
    out = np.empty((int(tails[-1].sum()), length), dtype=np.uint8)
    last = np.arange(trans.shape[0])
    for j in range(length):
        out[:, j] = np.repeat(last, tails[length - 1 - j][last])
        if j + 1 < length:
            last = np.nonzero(trans[last])[1]
    return out


def _halves(trans, length):
    """Split the admissible words of a length >= 2 into heads, their first
    length - length // 2 symbols, and tails, their last length // 2.

    Returns (heads, tails, locate): the head and tail word matrices, and
    locate(rows), the head rows and tail rows of the given word_matrix(trans,
    length) row indices. In word_matrix order the words below a head ending
    at a are its tails starting at each successor b of a, b ascending, and
    the tails starting at b are one run of consecutive tail rows.
    """
    heads = word_matrix(trans, length - length // 2)
    tails = word_matrix(trans, length // 2)
    per_first = np.bincount(tails[:, 0], minlength=trans.shape[0])  # tail rows starting at each symbol
    # the below[a] tail rows allowed after a, in order, end at runs[run_end[a]]
    _, b = np.nonzero(trans)
    size = per_first[b]
    runs = np.repeat(np.cumsum(per_first)[b] - np.cumsum(size), size) + np.arange(int(size.sum()))
    below = trans.astype(np.int64) @ per_first
    run_end = np.cumsum(below)
    last = heads[:, -1]
    ends = np.cumsum(below[last])  # where the words below each head end

    def locate(rows):
        left = np.searchsorted(ends, rows, side="right")
        return left, runs[run_end[last[left]] - ends[left] + rows]

    return heads, tails, locate


def word_rows(trans, length, index):
    """The rows of word_matrix(trans, length) at the given row indices, without
    the matrix: each row is the head row and the tail row that _halves
    locates for its index, side by side."""
    if length == 1:
        return word_matrix(trans, 1)[index]
    heads, tails, locate = _halves(trans, length)
    left, right = locate(np.asarray(index, dtype=np.int64))
    return np.concatenate((heads[left], tails[right]), axis=1)


def _counts(words, A):
    """The (rows, A) int64 symbol counts of a word matrix's rows, 1 added per
    column through a flat view: a row has one symbol per column, so no index repeats."""
    counts = np.zeros((words.shape[0], A), dtype=np.int64)
    flat, row = counts.reshape(-1), np.arange(0, counts.size, A)
    for col in words.T:
        flat[row + col] += 1
    return counts


def rank_weights(scores, multiplicity=None):
    """(weights, rank, sizes): the distinct scores in descending order, each
    score's position among them in the narrowest unsigned dtype that holds
    it, and how many scores, each counted multiplicity times, share each."""
    weights, rank = np.unique(-scores, return_inverse=True)
    sizes = np.bincount(rank, weights=multiplicity, minlength=weights.size).astype(np.int64)
    return -weights, rank.astype(np.min_scalar_type(weights.size - 1)), sizes


def weight_classes(trans, length, values):
    """(weights, key, sizes): the admissible words of the given length in
    classes of equal count_sums weight, by descending weight: weights[c] is
    the weight, bitwise, of each of the sizes[c] words of class c, and key[i]
    the class of word_matrix row i. A word's counts are its head's plus its
    tail's (see _halves), so each joined pair of head and tail ids is scored
    once, for all its words, in blocks sized as in count_birkhoff; the keys
    are filled in blocks of _BLOCK_ROWS."""
    A = trans.shape[0]
    if length == 1:
        return rank_weights(count_sums(np.eye(A, dtype=np.int64), values))
    heads, tails, locate = _halves(trans, length)
    # ids of distinct (counts, last symbol) heads and (counts, first symbol) tails
    ids = {"axis": 0, "return_inverse": True, "return_counts": True}
    head, hid, n_head = np.unique(np.column_stack((_counts(heads, A), heads[:, -1])), **ids)
    tail, tid, n_tail = np.unique(np.column_stack((_counts(tails, A), tails[:, 0])), **ids)
    i, j = np.nonzero(trans[head[:, -1:], tail[:, -1]])  # the pairs some word joins
    scores, step = np.empty(i.size), _BLOCK_ROWS * 16 // max(A, 16)
    for start in range(0, i.size, step):
        pair = slice(start, start + step)
        scores[pair] = count_sums(head[i[pair], :-1] + tail[j[pair], :-1], values)
    weights, rank, sizes = rank_weights(scores, n_head[i] * n_tail[j])
    table = np.zeros((head.shape[0], tail.shape[0]), dtype=rank.dtype)
    table[i, j] = rank
    key = np.empty(int(sizes.sum()), dtype=rank.dtype)
    for start in range(0, key.size, _BLOCK_ROWS):
        left, right = locate(np.arange(start, min(start + _BLOCK_ROWS, key.size)))
        key[start : start + left.size] = table[hid[left], tid[right]]
    return weights, key, sizes


def count_sums(counts, values):
    """counts[:, a] * values[a] added over the symbols a in order, from 0.0.

    This is the Birkhoff sum of a memory-1 potential with symbol values
    `values` over a word whose symbol counts are a row of counts, so words
    with the same symbols in any order get bitwise-equal sums. A symbol that
    does not occur adds a zero, which leaves the sum unchanged.
    """
    out = np.zeros(counts.shape[0])
    for a, v in enumerate(values.tolist()):
        out += counts[:, a] * v
    return out


def count_birkhoff(words, n, values):
    """count_sums over the first n symbols of each row: the memory-1 Birkhoff
    sums of a word matrix, in blocks of _BLOCK_ROWS rows, fewer past 16
    symbols, so that no block holds more than 16 * _BLOCK_ROWS counts."""
    A = values.shape[0]
    out, step = np.empty(words.shape[0]), _BLOCK_ROWS * 16 // max(A, 16)
    for start in range(0, words.shape[0], step):
        out[start : start + step] = count_sums(_counts(words[start : start + step, :n], A), values)
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
