import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftpress import (
    Potential,
    Resolution,
    all_segments,
    count_words,
    partition_function,
    pressure_enumerate,
    pressure_oracle,
    pressure_floor,
    birkhoff_sup,
    birkhoff_sup_sequence,
    check_structure_conditions,
    trivial_decomposition,
    variation,
)
from shiftpress.segments import SegmentClass, prefix_run_decomposition, union
from shiftpress.potentials import birkhoff_batch
from shiftpress.core import word_matrix
from shiftpress.errors import PreconditionError, ResourceBudgetError
from shiftpress import thermo
from shiftpress.thermo import perron_log

from conftest import random_sft, random_potential

GOLDEN_PRESSURE = math.log((1 + math.sqrt(5)) / 2)


def simple_cycle_max_mean(sys, phi):
    """Independent oracle: enumerate all simple cycles by DFS, weight each
    vertex by the (memory-1) potential, return the best mean."""
    assert phi.memory == 1
    A = sys.alphabet_size
    best = -math.inf

    def walk(path, seen):
        nonlocal best
        u = path[-1]
        for v in range(A):
            if not sys.transitions[u, v]:
                continue
            if v == path[0]:
                mean = math.fsum(phi((x,)) for x in path) / len(path)
                best = max(best, mean)
            elif v not in seen and v > path[0]:
                walk(path + [v], seen | {v})

    for start in range(A):
        walk([start], {start})
    return best


class TestPartitionFunction:
    def test_counts_words(self, full2):
        phi = Potential.zero(full2)
        lt = partition_function(phi, all_segments(), 3, Resolution(1), Resolution(1))
        assert math.exp(lt) == pytest.approx(8.0, rel=1e-12)

    def test_two_cylinders(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, math.log(2)])
        lt = partition_function(phi, all_segments(), 1, Resolution(1))
        assert math.exp(lt) == pytest.approx(3.0, rel=1e-12)

    def test_golden_word_count_cross_check(self, golden):
        phi = Potential.zero(golden)
        lt = partition_function(phi, all_segments(), 2, Resolution(2))
        assert math.exp(lt) == pytest.approx(5.0, rel=1e-12)
        assert round(math.exp(lt)) == count_words(golden, 3)

    def test_empty_class(self, full2):
        from shiftpress import empty_segments

        phi = Potential.zero(full2)
        assert partition_function(phi, empty_segments(), 3, Resolution(1)) == -math.inf

    def test_budget_error_carries_n(self, full2):
        phi = Potential.zero(full2)
        generic = SegmentClass(lambda words, n: np.ones(len(words), dtype=bool), "generic")
        with pytest.raises(ResourceBudgetError) as err:
            partition_function(phi, generic, 40, Resolution(1), budget=1000)
        assert err.value.n == 40

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 7), l_delta=st.integers(1, 3))
    def test_structured_route_equals_enumeration(self, seed, n, l_delta):
        """Dual route: the transfer recursion must reproduce the explicit
        word-by-word sum on the unrestricted class."""
        rng = np.random.default_rng(seed)
        sys = random_sft(rng, int(rng.integers(2, 4)))
        phi = random_potential(rng, sys, int(rng.integers(1, 5)))
        generic = SegmentClass(lambda words, n_: np.ones(len(words), dtype=bool), "generic-all")
        fast = partition_function(phi, all_segments(), n, Resolution(l_delta))
        slow = partition_function(phi, generic, n, Resolution(l_delta))
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_smearing_brute_force(self, golden, full2):
        """Raw-definition oracle for the smeared partition function: long
        cylinder representatives, pairwise window distances from first
        difference indices, ball suprema by scanning, one representative per
        separation class."""
        for sys in (golden, full2):
            rng = np.random.default_rng(13)
            phi = random_potential(rng, sys, 2)
            for n, ld, le in [(2, 1, 1), (2, 2, 1), (3, 1, 2), (2, 1, 3)]:
                L = n + max(2, ld, le) + 2
                pool = [tuple(int(s) for s in r) for r in word_matrix(sys, L)]

                def phi_sum(w):
                    return math.fsum(phi(w[k : k + 2]) for k in range(n))

                def window_distance(x, y, win):
                    # d_win = max over shifts k < win of 2^-(first diff of shifted)
                    best = 0.0
                    for k in range(win):
                        q = next((j for j in range(L - k) if x[k + j] != y[k + j]), None)
                        best = max(best, 2.0 ** -q if q is not None else 0.0)
                    return best

                smeared = {}
                for x in pool:
                    val = max(
                        phi_sum(y)
                        for y in pool
                        if window_distance(x, y, n) <= 2.0**-le
                    )
                    smeared[x] = val
                # greedy maximal separated family: best representative per class
                classes = {}
                for x in pool:
                    placed = False
                    for rep in list(classes):
                        if window_distance(x, rep, n) <= 2.0**-ld:
                            classes[rep] = max(classes[rep], smeared[x])
                            placed = True
                            break
                    if not placed:
                        classes[x] = smeared[x]
                brute = math.log(math.fsum(math.exp(v) for v in classes.values()))
                got = partition_function(
                    phi, all_segments(), n, Resolution(ld), Resolution(le)
                )
                assert got == pytest.approx(brute, abs=1e-10), (n, ld, le)

    def test_monotone_in_separation_level(self, golden):
        # finer separation level -> more words counted -> larger Theta
        phi = Potential.zero(golden)
        values = [
            partition_function(phi, all_segments(), 4, Resolution(l))
            for l in range(1, 5)
        ]
        assert values == sorted(values)
        counts = [count_words(golden, 4 + l - 1) for l in range(1, 5)]
        assert counts == sorted(counts)


class TestPressureEnumerate:
    def test_full2_exact_at_level1(self, full2):
        rep = pressure_enumerate(Potential.zero(full2), all_segments(), Resolution(1), None, (2, 12))
        assert rep.value == pytest.approx(math.log(2), abs=1e-12)
        assert rep.error_bound == pytest.approx(0.0, abs=1e-12)

    def test_golden_converges_to_oracle(self, golden):
        rep = pressure_enumerate(Potential.zero(golden), all_segments(), Resolution(1), None, (2, 20))
        assert abs(rep.value - GOLDEN_PRESSURE) < 0.05

    def test_constant_shift_moves_every_term(self, golden):
        phi = Potential.zero(golden)
        shifted = Potential.constant(golden, 0.75)
        r0 = pressure_enumerate(phi, all_segments(), Resolution(1), None, (2, 10))
        r1 = pressure_enumerate(shifted, all_segments(), Resolution(1), None, (2, 10))
        assert r1.value == pytest.approx(r0.value + 0.75, abs=1e-10)
        for a, b in zip(r0.extras["sequence"], r1.extras["sequence"]):
            assert b == pytest.approx(a + 0.75, abs=1e-10)

    def test_gap_shrinks_with_n_max(self, golden):
        oracle = pressure_oracle(Potential.zero(golden)).value
        gaps = []
        for n_max in (6, 10, 14, 18):
            rep = pressure_enumerate(Potential.zero(golden), all_segments(), Resolution(1), None, (2, n_max))
            gaps.append(abs(rep.value - oracle))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_no_words_in_the_top_half_is_minus_infinity(self, golden):
        """The prefix-run affix classes of `check`: segments up to length 2
        only, so every quotient but the first is -inf. The short words do not
        give the class a finite growth rate."""
        phi = Potential.from_symbol_values(golden, [0.0, 0.1])
        dec = prefix_run_decomposition(symbol=0, cap=2)
        affix = union(dec.prefix_class, dec.suffix_class)
        rep = pressure_enumerate(phi, affix, Resolution(5), Resolution(4), (2, 10))
        assert rep.extras["sequence"][0] > pressure_oracle(phi).value
        assert rep.extras["sequence"][1:] == [-math.inf] * 8
        assert rep.value == -math.inf and rep.error_bound == 0.0

    def test_words_in_part_of_the_top_half_stay_finite(self, golden):
        short = SegmentClass(lambda words, n: np.full(len(words), n <= 7), "length <= 7")
        rep = pressure_enumerate(Potential.zero(golden), short, Resolution(1), None, (2, 10))
        seq = rep.extras["sequence"]
        assert seq[6:] == [-math.inf] * 3
        assert rep.value == min(seq[:6]) and rep.error_bound == math.inf


class TestLogSumExp:
    def test_array_path(self):
        """np.exp of the values shifted by their max, summed by math.fsum; a
        list gives the same bits, and -inf entries add nothing."""
        rng = np.random.default_rng(12)
        for size in (1, 7, 5000):
            values = rng.normal(size=size) * 30.0
            got = thermo.log_sum_exp(values)
            mx = float(values.max())
            assert type(got) is float
            assert got == mx + math.log(math.fsum(np.exp(values - mx).tolist()))
            assert thermo.log_sum_exp(values.tolist()) == got
            padded = np.concatenate([values, [-math.inf, -math.inf]])
            assert thermo.log_sum_exp(padded) == got

    def test_empty_and_all_neg_inf(self):
        assert thermo.log_sum_exp(np.array([])) == -math.inf
        assert thermo.log_sum_exp([-math.inf, -math.inf]) == -math.inf
        assert thermo.log_sum_exp([0.0, 0.0]) == math.log(2.0)


class TestRowGroups:
    def test_ids_match_unique_inverse(self):
        """On prefixes of lexicographic word_matrix rows the group ids are the
        inverse np.unique(axis=0) returns."""
        from shiftpress.thermo import _row_group_ids

        for seed in range(6):
            rng = np.random.default_rng(seed)
            sys = random_sft(rng, int(rng.integers(2, 6)))
            words = word_matrix(sys, 7)
            for width in range(1, 8):
                _, inverse = np.unique(words[:, :width], axis=0, return_inverse=True)
                n_groups, ids = _row_group_ids(words[:, :width])
                assert n_groups == int(inverse.max()) + 1
                assert np.array_equal(ids, inverse.reshape(-1))


class TestLift:
    def test_edges_match_definition(self):
        """Edge arrays against the per-state definition: state w steps to the
        last `context` symbols of w + (b,), closing the window ending at b;
        edges run by source state, then symbol."""
        from shiftpress.thermo import _Lift

        for seed in range(8):
            rng = np.random.default_rng(seed)
            sys = random_sft(rng, int(rng.integers(2, 5)))
            for memory in (1, 2, 3, 4):
                phi = random_potential(rng, sys, memory)
                lift = _Lift(phi)
                states = [tuple(int(s) for s in row) for row in word_matrix(sys, lift.context)]
                index = {w: i for i, w in enumerate(states)}
                assert lift.n_states == len(states)
                expected = [
                    (i, index[(w + (b,))[-lift.context :]], phi((w + (b,))[-memory:]))
                    for i, w in enumerate(states)
                    for b in range(sys.alphabet_size)
                    if sys.transitions[w[-1], b]
                ]
                got = list(zip(lift.src.tolist(), lift.dst.tolist(), lift.wgt.tolist()))
                assert got == expected


class TestPressureOracle:
    def test_full2(self, full2):
        rep = pressure_oracle(Potential.zero(full2))
        assert rep.value == pytest.approx(math.log(2), abs=1e-9)

    def test_full3(self, full3):
        rep = pressure_oracle(Potential.zero(full3))
        assert rep.value == pytest.approx(math.log(3), abs=1e-9)

    def test_golden_characteristic_polynomial(self, golden):
        # lambda^2 = lambda + 1 solved independently
        lam = (1 + math.sqrt(5)) / 2
        rep = pressure_oracle(Potential.zero(golden))
        assert rep.value == pytest.approx(math.log(lam), abs=1e-9)

    def test_weighted_row_sums(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, math.log(2)])
        rep = pressure_oracle(phi)
        assert rep.value == pytest.approx(math.log(3), abs=1e-9)

    def test_periodic_system_flagged(self, cycle3):
        rep = pressure_oracle(Potential.zero(cycle3))
        assert rep.value == pytest.approx(0.0, abs=1e-9)
        lo, hi = rep.extras["bracket"]
        assert lo <= 0.0 <= hi

    def test_unclosed_bracket_refused(self, monkeypatch, golden):
        # golden with phi(00) = phi(10) = -20, phi(01) = 20: the rows of the
        # transfer matrix differ, so the bracket from x = 0 is open
        phi = Potential(golden, 2, {(0, 0): -20.0, (0, 1): 20.0, (1, 0): -20.0})
        monkeypatch.setattr(thermo, "PERRON_MAXITER", 1)
        with pytest.raises(PreconditionError, match=r"bracket \[\S+, \S+\] of ln rho has not closed after 1 iterations"):
            pressure_oracle(phi)

    @pytest.mark.parametrize("c", [-1.0, 0.5, 2.0])
    def test_constant_shift(self, golden, c):
        base = pressure_oracle(Potential.zero(golden)).value
        rep = pressure_oracle(Potential.constant(golden, c))
        assert rep.value == pytest.approx(base + c, abs=1e-9)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_agrees_with_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_sft(rng, int(rng.integers(2, 5)))
        phi = random_potential(rng, sys, int(rng.integers(1, 5)))
        oracle = pressure_oracle(phi).value
        # the finite-n quotients overshoot the limit by O(1/n) with a constant
        # that grows with the memory; n runs to 40 so memory 4 stays within 0.05
        enum = pressure_enumerate(phi, all_segments(), Resolution(1), None, (2, 40)).value
        assert abs(oracle - enum) < 0.05


def golden_mem2(golden, v):
    """phi(00) = phi(10) = -v, phi(01) = v on golden, whose transfer matrix
    [[e^-v, e^v], [e^-v, 0]] has eigenvalues of modulus about 1 and -1."""
    return Potential(golden, 2, {(0, 0): -v, (0, 1): v, (1, 0): -v})


def dense_log_rho(phi):
    """ln rho of the weighted lift from np.linalg.eigvals of its dense matrix."""
    lift = phi.lift
    L = np.zeros((lift.n_states, lift.n_states))
    L[lift.src, lift.dst] = np.exp(lift.wgt - phi.max_value)
    return math.log(np.abs(np.linalg.eigvals(L)).max()) + phi.max_value


class TestPerronBracket:
    @pytest.mark.parametrize("v", [5.0, 10.0, 20.0, 400.0])
    def test_golden_closed_form(self, golden, v):
        rep = pressure_oracle(golden_mem2(golden, v))
        exact = math.log((math.exp(-v) + math.sqrt(math.exp(-2 * v) + 4)) / 2)
        lo, hi = rep.extras["bracket"]
        assert lo <= exact <= hi
        assert abs(rep.value - exact) <= rep.error_bound

    def test_near_periodic_closes_fast(self, golden):
        assert pressure_oracle(golden_mem2(golden, 20.0)).extras["iterations"] <= 10

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sft_holds_dense_eigenvalue(self, seed):
        rng = np.random.default_rng(1000 + seed)
        sys = random_sft(rng, int(rng.integers(2, 5)))
        phi = random_potential(rng, sys, 1 + seed % 4, -3.0, 3.0)
        rep = pressure_oracle(phi)
        assert abs(rep.value - dense_log_rho(phi)) <= rep.error_bound

    def test_edge_arrays_of_a_dense_matrix(self):
        # the log weights of a matrix's nonzero entries, ordered by row
        M = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [0.5, 3.0, 0.0]])
        src, dst = np.nonzero(M)
        value, x, info = perron_log(3, src, dst, np.log(M[src, dst]))
        exact = math.log(np.abs(np.linalg.eigvals(M)).max())
        assert abs(value - exact) <= info["error_bound"] < 1e-12
        # x is the log right Perron vector
        np.testing.assert_allclose(M @ np.exp(x), np.exp(value + x), rtol=1e-12)


class TestPressureFloor:
    def test_full2_fixed_point(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, 1.0])
        assert pressure_floor(phi) == pytest.approx(1.0, abs=1e-12)

    def test_golden_best_cycle(self, golden):
        phi = Potential.from_symbol_values(golden, [0.0, 1.0])
        # 0-loop mean 0.0; 01-cycle mean 0.5; 1-loop forbidden
        assert pressure_floor(phi) == pytest.approx(0.5, abs=1e-12)

    def test_constant(self, cycle3):
        phi = Potential.constant(cycle3, -0.3)
        assert pressure_floor(phi) == pytest.approx(-0.3, abs=1e-12)

    def test_floor_below_pressure(self, golden, full2):
        rng = np.random.default_rng(11)
        for sys in (golden, full2):
            phi = random_potential(rng, sys, 1)
            assert pressure_floor(phi) <= pressure_oracle(phi).value + 1e-9

    def test_matches_simple_cycle_enumeration(self):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            sys = random_sft(rng, int(rng.integers(2, 7)), density=0.55)
            phi = random_potential(rng, sys, 1)
            assert pressure_floor(phi) == pytest.approx(
                simple_cycle_max_mean(sys, phi), abs=1e-12
            )

    def test_finite_sequence_reported(self, golden):
        phi = Potential.from_symbol_values(golden, [0.0, 1.0])
        seq = birkhoff_sup_sequence(phi)
        assert len(seq) == 20
        # finite means bound the cycle value from above and approach it
        assert all(a >= 0.5 - 1e-12 for a in seq)
        assert seq[-1] < seq[0] + 1e-12

    def test_memory2_lift(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0})
        # cycles: 0-loop mean 0; 01-cycle mean (1+0)/2
        assert pressure_floor(phi) == pytest.approx(0.5, abs=1e-12)


def bowen_closed_form(phi, level):
    """K = sum of the variations at levels level..memory-1 (0.0 once
    level >= memory): the constant `check` reports for bowen_on_core."""
    return math.fsum(variation(phi, Resolution(j)) for j in range(level, phi.memory))


def bowen_brute_force(phi, level, n):
    """max |S_n phi(x) - S_n phi(y)| over admissible words whose first
    n + level - 1 symbols agree, by enumeration."""
    words = word_matrix(phi.sys, n + max(phi.memory, level) - 1)
    sums = birkhoff_batch(phi, words, n)
    _, ball = np.unique(words[:, : n + level - 1], axis=0, return_inverse=True)
    hi = np.full(ball.max() + 1, -math.inf)
    lo = np.full(ball.max() + 1, math.inf)
    np.maximum.at(hi, ball, sums)
    np.minimum.at(lo, ball, sums)
    return float((hi - lo).max())


class TestBowenAndExpansivity:
    def test_locally_constant_exact(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.3, (0, 1): 1.0, (1, 0): -1.0})
        for level in (2, 3):
            assert bowen_closed_form(phi, level) == 0.0
            assert all(bowen_brute_force(phi, level, n) == 0.0 for n in range(1, 6))

    def test_memory1_level1(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, 1.0])
        assert bowen_closed_form(phi, 1) == 0.0
        assert all(bowen_brute_force(phi, 1, n) == 0.0 for n in range(1, 6))


class TestBowenClosedForm:
    # the bound is proven in exact arithmetic; the Birkhoff sums of the brute
    # force round, so both comparisons allow a few ulps
    ULPS = 1e-12

    def test_brute_force_never_exceeds_the_closed_form(self):
        rng = np.random.default_rng(22)
        reached = 0
        for case in range(24):
            sys = random_sft(rng, int(rng.integers(2, 4)))
            memory = 2 + case % 4
            phi = random_potential(rng, sys, memory, -1.0, 1.0)
            for level in range(1, memory):
                bound = bowen_closed_form(phi, level)
                for n in range(1, 8):
                    brute = bowen_brute_force(phi, level, n)
                    assert brute <= bound + self.ULPS, (case, level, n, brute, bound)
                    reached += abs(brute - bound) <= self.ULPS
        assert reached > 0

    def test_exact_branch_is_zero(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.3, (0, 1): 1.0, (1, 0): -1.0})
        check = check_structure_conditions(phi, trivial_decomposition(), pressure_oracle(phi).value)
        bowen = next(c for c in check.conditions if c.name == "bowen_on_core")
        assert (bowen.status, bowen.margin, bowen.details) == ("pass", math.inf, {"certified": 0.0})

    def test_check_reports_the_closed_form_above_its_level(self, golden):
        # memory 5 exceeds the 3*gamma level 4 of the default configuration
        phi = random_potential(np.random.default_rng(5), golden, 5)
        check = check_structure_conditions(phi, trivial_decomposition(), pressure_oracle(phi).value)
        bowen = next(c for c in check.conditions if c.name == "bowen_on_core")
        assert bowen.status == "pass" and bowen.margin == math.inf
        assert bowen.details == {"certified": bowen_closed_form(phi, 4)}
        assert bowen.details["certified"] > 0.0
        assert check.all_pass


class TestBirkhoffSup:
    def test_matches_brute_force(self, golden):
        rng = np.random.default_rng(3)
        for memory in (2, 3):
            phi = random_potential(rng, golden, memory)
            for n in range(1, 7):
                words = word_matrix(golden, n + memory - 1)
                brute = birkhoff_batch(phi, words, n).max()
                assert birkhoff_sup(phi, n) == pytest.approx(brute, abs=1e-12)
