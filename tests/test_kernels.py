"""The numeric kernels against independent references: itertools enumeration,
direct per-row sums and brute-force closed walks."""

import itertools
import math

import numpy as np

from shiftpress import kernels
from shiftpress.core import count_words, is_admissible

from conftest import random_sft


GOLDEN = np.array([[1, 1], [1, 0]], dtype=np.uint8)


def reference_words(sys, length):
    """Admissible words by filtering the full product, in lexicographic order."""
    return [
        w
        for w in itertools.product(range(sys.alphabet_size), repeat=length)
        if is_admissible(sys, w)
    ]


def brute_max_cycle_mean(n_vertices, src, dst, weight):
    """Best mean weight over closed edge walks of length <= n_vertices,
    by exhaustive extension of every walk from every vertex."""
    out = [[] for _ in range(n_vertices)]
    for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
        out[u].append((v, w))
    best = -math.inf
    for start in range(n_vertices):
        walks = [(start, 0.0)]
        for length in range(1, n_vertices + 1):
            walks = [(v, total + w) for u, total in walks for v, w in out[u]]
            for v, total in walks:
                if v == start:
                    best = max(best, total / length)
    return best


class TestWordEnumeration:
    def test_backends_agree_bitwise(self):
        """The kernel matches the filtered product, row for row."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sys = random_sft(rng, int(rng.integers(2, 5)))
            trans = sys.transitions.astype(np.uint8)
            for length in (1, 3, 6):
                words = kernels.word_matrix(trans, length)
                assert words.dtype == np.uint8
                assert [tuple(int(s) for s in r) for r in words] == reference_words(sys, length)

    def test_count_admissible_distinct(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            sys = random_sft(rng, int(rng.integers(2, 6)), density=0.5)
            for length in (1, 2, 5, 8):
                words = kernels.word_matrix(sys.transitions.astype(np.uint8), length)
                rows = [tuple(int(s) for s in r) for r in words]
                assert words.shape == (count_words(sys, length), length)
                assert all(is_admissible(sys, w) for w in rows)
                assert len(set(rows)) == len(rows)

    def test_lexicographic(self):
        words = kernels.word_matrix(GOLDEN, 5)
        as_tuples = [tuple(r) for r in words]
        assert as_tuples == sorted(as_tuples)


class TestBirkhoffKernel:
    def test_backends_agree(self):
        """The kernel matches a direct per-row sum of the block values."""
        rng = np.random.default_rng(3)
        words = kernels.word_matrix(GOLDEN, 9)
        for m in (1, 2, 3):
            vals = rng.random(2**m)
            got = kernels.birkhoff_kernel(words, 10 - m, m, vals, 2)
            for row, value in zip(words.tolist(), got):
                blocks = [int("".join(map(str, row[k : k + m])), 2) for k in range(10 - m)]
                assert abs(value - math.fsum(vals[b] for b in blocks)) < 1e-12


class TestKarpKernel:
    def test_backends_agree(self):
        """The kernel matches the best mean over closed walks of length <= A."""
        rng = np.random.default_rng(9)
        for _ in range(10):
            sys = random_sft(rng, int(rng.integers(2, 6)), density=0.5)
            src, dst = np.nonzero(sys.transitions)
            wgt = rng.random(src.shape[0])
            got = kernels.karp_kernel(sys.alphabet_size, src, dst, wgt)
            assert abs(got - brute_max_cycle_mean(sys.alphabet_size, src, dst, wgt)) < 1e-12
