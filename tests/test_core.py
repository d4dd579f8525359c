import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftpress import ShiftSystem, count_words
from shiftpress.core import is_admissible, shortest_connectors, word_matrix, system_from_dict
from shiftpress.errors import ConfigError, ResourceBudgetError, StructuralError

from conftest import least_path_lengths, random_sft


def matrix_power_count(sys, n):
    """Independent count oracle: explicit integer matrix powers."""
    A = sys.alphabet_size
    M = [[int(sys.transitions[a, b]) for b in range(A)] for a in range(A)]
    P = [[1 if a == b else 0 for b in range(A)] for a in range(A)]
    for _ in range(n - 1):
        P = [
            [sum(P[a][c] * M[c][b] for c in range(A)) for b in range(A)]
            for a in range(A)
        ]
    return sum(sum(row) for row in P)


class TestCountWords:
    def test_full2_n3(self, full2):
        assert count_words(full2, 3) == 8

    def test_golden_n4_matches_matrix_power(self, golden):
        assert count_words(golden, 4) == 8
        assert count_words(golden, 4) == matrix_power_count(golden, 4)

    def test_full3_n1(self, full3):
        assert count_words(full3, 1) == 3

    def test_golden_is_fibonacci(self, golden):
        # counts 2, 3, 5, 8, 13, ...
        prev, cur = 2, 3
        for n in range(3, 12):
            prev, cur = cur, prev + cur
            assert count_words(golden, n) == cur

    def test_no_overflow(self, full3):
        # way past 2**63
        assert count_words(full3, 64) == 3**64

    def test_submultiplicative(self, full2, golden, cycle3):
        for sys in (full2, golden, cycle3):
            counts = {n: count_words(sys, n) for n in range(1, 13)}
            for m in range(1, 7):
                for n in range(1, 13 - m):
                    assert counts[m + n] <= counts[m] * counts[n]

    def test_rejects_bad_n(self, full2):
        with pytest.raises(ConfigError):
            count_words(full2, 0)


def words_of(sys, n, budget=None):
    """The rows of word_matrix as tuples, in row order."""
    return [tuple(row) for row in word_matrix(sys, n, budget).tolist()]


class TestEnumerateWords:
    def test_golden_n2(self, golden):
        assert set(words_of(golden, 2)) == {(0, 0), (0, 1), (1, 0)}

    def test_full2_n2(self, full2):
        assert set(words_of(full2, 2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_golden_n3_brute_force(self, golden):
        brute = {
            w
            for w in ((a, b, c) for a in range(2) for b in range(2) for c in range(2))
            if is_admissible(golden, w)
        }
        assert set(words_of(golden, 3)) == brute
        assert brute == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)}

    def test_budget_errors_not_truncates(self, full2):
        with pytest.raises(ResourceBudgetError):
            word_matrix(full2, 20, budget=100)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), A=st.integers(2, 4), n=st.integers(1, 7))
    def test_sorted_admissible_duplicate_free(self, seed, A, n):
        rng = np.random.default_rng(seed)
        sys = random_sft(rng, A)
        words = words_of(sys, n)
        assert len(words) == len(set(words)) == count_words(sys, n)
        assert words == sorted(words)
        assert all(is_admissible(sys, w) for w in words)


class TestSeparatedSet:
    """A maximal (n, 2^-l)-separated set is the set of admissible words of
    length n + l - 1."""

    def test_full2_n1_l1(self, full2):
        assert set(words_of(full2, 1 + 1 - 1)) == {(0,), (1,)}

    def test_golden_n2_l2(self, golden):
        assert count_words(golden, 2 + 2 - 1) == 5

    def test_full2_n3_l2_cardinality(self, full2):
        assert count_words(full2, 3 + 2 - 1) == 16

    @pytest.mark.parametrize(
        "sysname,n_max,l_max",
        [("golden", 8, 4), ("cycle3", 8, 4), ("full2", 6, 3)],
    )
    def test_maximality_by_greedy_metric_search(self, sysname, n_max, l_max, request):
        """Greedy-exhaustive oracle over longer cylinders: accept a candidate
        when its orbit-window distance to every chosen one exceeds 2^-l,
        computed from the raw first-difference index rather than the
        word-length identity."""
        sys = request.getfixturevalue(sysname)
        for n in range(1, n_max + 1):
            for l in range(1, l_max + 1):
                candidates = word_matrix(sys, n + l + 2)
                L = candidates.shape[1]
                chosen = np.empty((0, L), dtype=candidates.dtype)
                for cand in candidates:
                    if chosen.shape[0]:
                        neq = chosen != cand[None, :]
                        qs = np.where(neq.any(axis=1), neq.argmax(axis=1), L)
                        # orbit-window distance: d_n = 2^-(q - k*) with k* the
                        # best in-window shift; separated iff d_n > 2^-l
                        dn = np.where(qs < L, 2.0 ** -np.maximum(qs - (n - 1), 0), 0.0)
                        if not (dn > 2.0**-l).all():
                            continue
                    chosen = np.vstack([chosen, cand[None, :]])
                assert chosen.shape[0] == count_words(sys, n + l - 1)


def connector_path_lengths(sys):
    """1 + the length of each shortest connector, checked against the
    matrix-power oracle; returns the oracle's path lengths."""
    K = least_path_lengths(sys)
    conn = shortest_connectors(sys)
    assert len(conn) == sys.alphabet_size**2
    for (a, b), c in conn.items():
        assert is_admissible(sys, (a, *c, b))
        assert K[a, b] == 1 + len(c)
    return K


class TestDiameter:
    def test_full_shift_any_alphabet(self):
        for A in (2, 3, 4, 5):
            assert connector_path_lengths(ShiftSystem.full_shift(A)).max() == 1

    def test_golden_bfs(self, golden):
        assert connector_path_lengths(golden).max() == 2

    def test_cycle3(self, cycle3):
        assert connector_path_lengths(cycle3).max() == 3

    def test_random_systems(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            connector_path_lengths(random_sft(rng, int(rng.integers(2, 7)), density=0.4))

    def test_not_strongly_connected(self):
        # 0 -> 1 one-way only; 1 -> 1 self loop keeps rows/cols non-stranded
        sys = ShiftSystem([[1, 1], [0, 1]])
        with pytest.raises(StructuralError):
            shortest_connectors(sys)


class TestSystemLoader:
    def test_full_abbreviation(self):
        sys = system_from_dict({"alphabet": 3, "full": True})
        assert sys.alphabet_size == 3 and sys.transitions.all()

    def test_reports_bad_row(self):
        with pytest.raises(ConfigError, match="row"):
            system_from_dict({"alphabet": 2, "transitions": [[1, 1]]})

    def test_reports_stranded_symbol(self):
        with pytest.raises(ConfigError, match="successor"):
            system_from_dict({"alphabet": 2, "transitions": [[0, 0], [1, 1]]})

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ConfigError):
            system_from_dict({"alphabet": 1, "full": True})
