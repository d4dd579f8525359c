"""The numeric kernels against independent references: itertools enumeration,
direct per-row sums and brute-force closed walks."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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


def unblocked_birkhoff(words, n, memory, values_flat, A):
    """The Birkhoff kernel on the whole matrix at once: one (count, n) index,
    gathered and reduced in one call."""
    idx = np.zeros((words.shape[0], n), dtype=np.int64)
    for j in range(memory):
        idx = idx * A + words[:, j : j + n].astype(np.int64)
    return np.add.reduce(values_flat[idx], axis=1)


def brute_words(trans, length):
    """Rows of itertools.product over the alphabet whose every step is allowed."""
    A = trans.shape[0]
    return [
        w
        for w in itertools.product(range(A), repeat=length)
        if all(trans[a, b] for a, b in zip(w, w[1:]))
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

    def test_matches_product_brute_force(self):
        """Random 1-4 symbol transition matrices, rows without successors
        included, match the filtered product in order for lengths 1-8."""
        stranded = 0
        for seed in range(40):
            rng = np.random.default_rng(200 + seed)
            A = int(rng.integers(1, 5))
            trans = (rng.random((A, A)) < 0.6).astype(np.uint8)
            stranded += int((trans.sum(axis=1) == 0).any())
            for length in range(1, 9):
                words = kernels.word_matrix(trans, length)
                assert words.dtype == np.uint8 and words.shape[1] == length
                assert [tuple(int(s) for s in r) for r in words] == brute_words(trans, length)
        assert stranded  # the seeds include rows with no successors


class TestWordRows:
    """Rows unranked from their indices equal the enumerated rows."""

    @pytest.mark.parametrize("case", ["full2", "golden", "sft4"])
    def test_random_indices_match_word_matrix(self, case):
        rng = np.random.default_rng(31)
        trans = {
            "full2": np.ones((2, 2), dtype=np.uint8),
            "golden": GOLDEN,
            "sft4": random_sft(rng, 4).transitions.astype(np.uint8),
        }[case]
        for length in (1, 2, 7, 18 if case != "sft4" else 10):
            words = kernels.word_matrix(trans, length)
            index = rng.integers(0, words.shape[0], size=500)
            got = kernels.word_rows(trans, length, index)
            assert got.dtype == np.uint8 and got.shape == (500, length)
            assert np.array_equal(got, words[index])
        assert np.array_equal(kernels.word_rows(trans, 9, np.arange(0)), np.empty((0, 9), dtype=np.uint8))

    def test_every_row_of_random_systems(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            trans = random_sft(rng, int(rng.integers(2, 6)), density=0.5).transitions
            for length in (1, 3, 6):
                words = kernels.word_matrix(trans.astype(np.uint8), length)
                assert np.array_equal(kernels.word_rows(trans, length, np.arange(words.shape[0])), words)

    def test_every_row_with_stranded_symbols(self):
        """The TestWordEnumeration draws, rows without successors and systems
        without long words included: every row spelled from the halves equals
        the enumerated row, and every row's weight class the class of its
        symbol counts, lengths 1-8."""
        stranded = 0
        for seed in range(40):
            rng = np.random.default_rng(200 + seed)
            A = int(rng.integers(1, 5))
            trans = (rng.random((A, A)) < 0.6).astype(np.uint8)
            stranded += int((trans.sum(axis=1) == 0).any())
            for length in range(1, 9):
                words = kernels.word_matrix(trans, length)
                values = rng.normal(size=A)
                assert np.array_equal(kernels.word_rows(trans, length, np.arange(words.shape[0])), words)
                check_classes(trans, length, values, reference_counts(words, A))
        assert stranded

    def test_traced_peak(self):
        """43,631 of the 2^18 full2 rows at N = 18: the traced peak is below
        3.25 times the output. Unranking one symbol at a time peaks at 3.7."""
        full2 = np.ones((2, 2), dtype=np.uint8)
        index = np.sort(np.random.default_rng(0).choice(2**18, 43_631, replace=False))
        tracemalloc.start()
        try:
            rows = kernels.word_rows(full2, 18, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (43_631, 18)
        assert peak < 3.25 * rows.nbytes


def reference_count_sum(word, values):
    """sum_a count_a * values[a], added in symbol order from 0.0, one row."""
    total = 0.0
    for a, v in enumerate(values.tolist()):
        total = total + word.count(a) * v
    return total


def reference_counts(words, A):
    """The (rows, A) symbol counts of a word matrix, one comparison per symbol."""
    return np.stack([(words == a).sum(axis=1) for a in range(A)], axis=1).astype(np.int64)


def reference_word_counts(trans, length):
    """Symbol counts level by level down the whole word tree: every level's
    counts are its parents' plus one for the new last symbol."""
    one = np.eye(trans.shape[0], dtype=np.int64)
    last = np.arange(trans.shape[0])
    counts = one
    for _ in range(length - 1):
        parent, last = np.nonzero(trans[last])
        counts = counts[parent] + one[last]
    return counts


def recoded_full2_mem4():
    """full2 memory 4 recoded to memory 1: (transitions, symbol values) on 16 symbols."""
    from shiftpress.construct import _recode_memory_one
    from shiftpress.core import load_system
    from shiftpress.potentials import load_potential
    from shiftpress.segments import trivial_decomposition

    data = Path(__file__).parent / "data"
    phi = load_potential(load_system(data / "full2.json"), data / "full2_mem4.json")
    phi_c = _recode_memory_one(phi, trivial_decomposition())[0]
    return phi_c.sys.transitions, phi_c.values_flat


def check_classes(trans, length, values, counts):
    """kernels.weight_classes equals the classes of the count_sums of every
    word's symbol counts (count rows in word_matrix row order): the distinct
    sums in descending order, bitwise, each row's position among them, and
    the number of rows at each. Returns the number of classes."""
    weights, inverse = np.unique(kernels.count_sums(counts, values), return_inverse=True)
    got_weights, key, sizes = kernels.weight_classes(trans, length, values)
    assert got_weights.tobytes() == weights[::-1].tobytes()
    assert np.array_equal(key, weights.size - 1 - inverse)
    assert np.array_equal(sizes, np.bincount(key, minlength=weights.size)) and sizes.dtype == np.int64
    assert key.dtype == np.min_scalar_type(weights.size - 1)
    return weights.size


def periodic_sft(rng, alphabet_size):
    """A cycle through every symbol in a random order, with a chord added
    half the time, so that the period is the cycle length or smaller."""
    order = rng.permutation(alphabet_size)
    T = np.zeros((alphabet_size, alphabet_size), dtype=bool)
    T[order, np.roll(order, -1)] = True
    if rng.random() < 0.5:
        T[order[0], order[int(rng.integers(0, alphabet_size))]] = True
    return T


class TestCountCodes:
    def test_tree_codes_match_rows(self):
        """The symbol counts of the word_matrix rows are the reference
        counts, their count sums, from the counts or from the rows, are the
        per-row reference sums bit for bit, and the weight classes are their
        classes."""
        for seed in range(8):
            rng = np.random.default_rng(400 + seed)
            sys = random_sft(rng, int(rng.integers(2, 6)), density=0.6)
            trans = sys.transitions.astype(np.uint8)
            values = rng.normal(size=sys.alphabet_size)
            for length in (1, 4, 9):
                words = kernels.word_matrix(trans, length)
                counts = kernels._counts(words, sys.alphabet_size)
                assert np.array_equal(counts, reference_counts(words, sys.alphabet_size))
                check_classes(trans, length, values, counts)
                sums = kernels.count_sums(counts, values)
                want = np.array([reference_count_sum(w, values) for w in words.tolist()])
                assert sums.tobytes() == want.tobytes()
                assert kernels.count_birkhoff(words, length, values).tobytes() == want.tobytes()

    def test_half_codes_match_the_level_reference(self):
        """Weight classes scored from head and tail counts are the classes of
        the level-by-level counts, bitwise, on seeded SFTs of 2-6 symbols with
        sparse, dense, full and periodic supports at lengths 1-12 (draws
        past 2e5 words are skipped)."""
        cases = 0
        for seed in range(60):
            rng = np.random.default_rng(700 + seed)
            A = int(rng.integers(2, 7))
            kind = seed % 4
            if kind == 3:
                trans = periodic_sft(rng, A)
            else:
                trans = random_sft(rng, A, density=(0.3, 0.6, 1.0)[kind]).transitions
            values = rng.normal(size=A)
            for length in range(1, 13):
                if int(kernels._tails(trans, length)[-1].sum()) > 200_000:
                    continue
                check_classes(trans, length, values, reference_word_counts(trans, length))
                cases += 1
        assert cases > 400

    def test_half_counts_sixteen_symbols(self):
        """full2 memory 4 recoded to memory 1 has 16 symbols; at N = 15 the
        halves join into more than 256 weight classes, keyed in two bytes."""
        trans, values = recoded_full2_mem4()
        assert trans.shape == (16, 16)
        counts = reference_word_counts(trans, 15)
        assert counts.shape == (16 * 2**14, 16)
        assert check_classes(trans, 15, values, counts) > 256

    def test_sixteen_symbol_classes_memory(self):
        """The recoded 16-symbol classes at N = 15 (211,754 joined pairs) are
        scored in blocks: the traced peak stays below 18.5 MB. The pairs'
        counts held whole, pairs x 16 int64, peak at 58 MB."""
        trans, values = recoded_full2_mem4()
        tracemalloc.start()
        try:
            weights, key, sizes = kernels.weight_classes(trans, 15, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert key.shape == (16 * 2**14,) and sizes.sum() == key.size
        assert peak < 18.5e6

    def test_half_codes_memory(self):
        """No temporary outgrows a block: the traced peak of the full2 weight
        classes at N = 18 (262,144 one-byte keys) stays below 1 MB, half of
        what the words' int64 codes alone would take."""
        full2 = np.ones((2, 2), dtype=bool)
        tracemalloc.start()
        try:
            weights, key, sizes = kernels.weight_classes(full2, 18, np.array([0.25, -0.5]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights.size == 19 and key.shape == (2**18,) and sizes.sum() == 2**18
        assert peak < 2**20

    def test_sixteen_symbols_forty_long(self):
        """Rows of 40 symbols over 16: the count sums, from the counts or from
        the rows, are the per-row reference sums bit for bit."""
        rng = np.random.default_rng(5)
        values = rng.normal(size=16)
        words = rng.integers(0, 16, size=(200, 40), dtype=np.uint8)
        want = np.array([reference_count_sum(w, values) for w in words.tolist()])
        assert kernels.count_sums(kernels._counts(words, 16), values).tobytes() == want.tobytes()
        assert kernels.count_birkhoff(words, 40, values).tobytes() == want.tobytes()

    def test_counts_above_one_byte(self):
        """The 2-cycle at length 600: each word's head and tail hold 150 of
        each symbol, so each count is 300. The classes and the sums are the
        per-row reference sums."""
        cycle = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        values = np.array([0.1, -0.37])
        words = kernels.word_matrix(cycle, 600)
        assert words.shape == (2, 600)
        want = np.array([reference_count_sum(w, values) for w in words.tolist()])
        assert kernels.count_birkhoff(words, 600, values).tobytes() == want.tobytes()
        assert check_classes(cycle, 600, values, reference_counts(words, 2)) == 1
        weights, key, sizes = kernels.weight_classes(cycle, 600, values)
        assert weights.tobytes() == want[:1].tobytes() and sizes.tolist() == [2]

    def test_count_birkhoff_blocks(self, monkeypatch):
        """Rows across block edges, and the first n columns only; past 16
        symbols a block holds fewer rows (6 over 40 symbols here)."""
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", 16)
        rng = np.random.default_rng(6)
        values = rng.normal(size=3)
        for rows in (0, 1, 15, 16, 17, 53):
            words = rng.integers(0, 3, size=(rows, 12), dtype=np.uint8)
            want = np.array([reference_count_sum(w[:9], values) for w in words.tolist()])
            assert kernels.count_birkhoff(words, 9, values).tobytes() == want.tobytes()
        values = rng.normal(size=40)
        words = rng.integers(0, 40, size=(53, 7), dtype=np.uint8)
        want = np.array([reference_count_sum(w, values) for w in words.tolist()])
        assert kernels.count_birkhoff(words, 7, values).tobytes() == want.tobytes()

    def test_wide_alphabet_pair_blocks(self, monkeypatch):
        """Past 16 symbols a block of joined pairs holds fewer rows (12 over
        20 symbols here): weight classes whose pairs span several such blocks
        are the classes of the reference counts."""
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", 16)
        rng = np.random.default_rng(8)
        values = rng.normal(size=20)
        trans = random_sft(rng, 20, density=0.3).transitions
        for length in (1, 2, 3, 4):
            words = kernels.word_matrix(trans.astype(np.uint8), length)
            check_classes(trans, length, values, reference_counts(words, 20))

    def test_wide_alphabet_memory(self):
        """20,000 rows over 256 symbols: a block holds 512 rows, so the traced
        peak stays below 2 MB. Blocks of _BLOCK_ROWS rows would hold 16.8 MB
        of counts."""
        rng = np.random.default_rng(9)
        words = rng.integers(0, 256, size=(20_000, 12), dtype=np.uint8)
        tracemalloc.start()
        try:
            sums = kernels.count_birkhoff(words, 12, rng.normal(size=256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sums.shape == (20_000,)
        assert peak < 2**21


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


class TestBlockedBirkhoff:
    """The row-blocked kernel is bitwise equal to one whole-matrix reduction."""

    ROWS = (1, "block-1", "block", "block+1", "3block+5")

    @staticmethod
    def _rows(spec, block):
        return {"block-1": block - 1, "block": block, "block+1": block + 1,
                "3block+5": 3 * block + 5}.get(spec, spec)

    @staticmethod
    def _case(rng, rows, n, memory, A=3, table=None):
        words = rng.integers(0, A, size=(rows, n + memory - 1), dtype=np.uint8)
        vals = rng.normal(size=A**memory) if table is None else table
        return words, vals

    @pytest.mark.parametrize("memory", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 128, 129, 256, 257])
    def test_bitwise_equal_at_block_edges(self, monkeypatch, n, memory):
        """With a small block, every row count around the block edges at every
        n near numpy's pairwise-summation breakpoints."""
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", 16)
        rng = np.random.default_rng(n * 10 + memory)
        for spec in self.ROWS:
            words, vals = self._case(rng, self._rows(spec, 16), n, memory)
            got = kernels.birkhoff_kernel(words, n, memory, vals, 3)
            want = unblocked_birkhoff(words, n, memory, vals, 3)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_bitwise_equal_at_module_block(self, memory):
        block = kernels._BLOCK_ROWS
        rng = np.random.default_rng(memory)
        for n in (1, 9, 18):
            for spec in self.ROWS:
                words, vals = self._case(rng, self._rows(spec, block), n, memory)
                got = kernels.birkhoff_kernel(words, n, memory, vals, 3)
                want = unblocked_birkhoff(words, n, memory, vals, 3)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_negative_zero_table(self, monkeypatch):
        """A table holding -0.0: rows of signed zeros sum to the same zero,
        sign bit included, as in the whole-matrix reduction."""
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", 16)
        table = np.array([-0.0, 0.0, -0.0, 1.5])
        rng = np.random.default_rng(11)
        for n in (1, 8, 17, 129):
            words = rng.choice(np.array([0, 2], dtype=np.uint8), size=(53, n))
            words[::3] = rng.integers(0, 4, size=words[::3].shape, dtype=np.uint8)
            got = kernels.birkhoff_kernel(words, n, 1, table, 4)
            want = unblocked_birkhoff(words, n, 1, table, 4)
            assert (want[1::3] == 0).all()  # rows of -0.0 symbols only
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_and_zero_length(self):
        vals = np.array([0.25, -1.0])
        for rows, n in ((0, 5), (4, 0)):
            words = np.zeros((rows, n), dtype=np.uint8)
            got = kernels.birkhoff_kernel(words, n, 1, vals, 2)
            want = unblocked_birkhoff(words, n, 1, vals, 2)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_traced_peak_is_bounded(self):
        """2^18 words of length 18 (full 2-shift, N = 18): the whole-matrix
        kernel peaks at about 113 MB traced, the blocked one below 10 MB."""
        words = kernels.word_matrix(np.ones((2, 2), dtype=np.uint8), 18)
        vals = np.array([0.3, -0.7])
        tracemalloc.start()
        try:
            kernels.birkhoff_kernel(words, 18, 1, vals, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


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
