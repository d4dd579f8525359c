"""Hot numeric kernels: admissible-word enumeration, rows and symbol-count
codes joined from word halves, the memory-1 Birkhoff sums read from the
codes, batch Birkhoff sums, Karp DP."""

import numpy as np


_BLOCK_ROWS = 8192  # rows per Birkhoff or count-code block; it bounds the temporaries
_CODE_LIMIT = 2**63  # a count-code column holds values below this


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


def _code_layout(length, A):
    """How a count code stores the symbol counts of a length-`length` word over
    A symbols: count c_a is digit a % per, in base length + 1, of int64 column
    a // per, with per as large as keeps every column below _CODE_LIMIT.
    Returns (base, per, placed), placed[col, a] the place value of symbol a in
    its column and 0 in the others, so a word's code is the sum of placed
    over its symbols."""
    base = length + 1
    per = 1
    while base ** (per + 1) <= _CODE_LIMIT:
        per += 1
    a = np.arange(A)
    placed = np.zeros((-(-A // per), A), dtype=np.int64)
    placed[a // per, a] = [base ** int(d) for d in a % per]
    return base, per, placed


def word_codes(trans, length):
    """Count codes (see _code_layout) of all admissible words of the given
    length, in word_matrix row order, shape (columns, count) int64.

    A word's code is the sum of the codes of its head and its tail (see
    _halves) under the full-length place values. The codes are joined in
    blocks of _BLOCK_ROWS words, so no temporary is longer than a block.
    """
    _, _, placed = _code_layout(length, trans.shape[0])
    if length == 1:
        return placed
    heads, tails, locate = _halves(trans, length)
    head, tail = placed[:, heads].sum(axis=2), placed[:, tails].sum(axis=2)
    out = np.empty((placed.shape[0], int(_tails(trans, length)[-1].sum())), dtype=np.int64)
    for start in range(0, out.shape[1], _BLOCK_ROWS):
        left, right = locate(np.arange(start, min(start + _BLOCK_ROWS, out.shape[1])))
        np.add(head[:, left], tail[:, right], out=out[:, start : start + left.size])
    return out


def count_sums(codes, length, values):
    """sum_a c_a * values[a] for each count code, added in symbol order from 0.0.

    This is the Birkhoff sum of a memory-1 potential with symbol values
    `values` over a word with c_a copies of each symbol a, so words with the
    same symbols in any order get bitwise-equal sums. A symbol that does not
    occur adds a zero, which leaves the sum unchanged.
    """
    base, per, _ = _code_layout(length, values.shape[0])
    out = np.zeros(codes.shape[1])
    for col, rem in enumerate(codes):
        *head, last = values[col * per : (col + 1) * per].tolist()
        for v in head:
            rem, count = np.divmod(rem, base)
            out += count * v
        out += rem * last  # the highest digit of a column is what remains
    return out


def count_birkhoff(words, n, values):
    """count_sums over the first n symbols of each row, in blocks of
    _BLOCK_ROWS rows: the memory-1 Birkhoff sums of a word matrix."""
    _, _, placed = _code_layout(n, values.shape[0])
    out = np.empty(words.shape[0])
    for start in range(0, words.shape[0], _BLOCK_ROWS):
        block = words[start : start + _BLOCK_ROWS, :n]
        codes = placed[:, block].sum(axis=2)
        out[start : start + _BLOCK_ROWS] = count_sums(codes, n, values)
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
