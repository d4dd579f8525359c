import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shiftpress import (
    Potential,
    ShiftSystem,
    Resolution,
    all_segments,
    check_gluing,
    glue_words,
    trivial_decomposition,
    build_glued,
    select_words,
    check_structure_conditions,
    construct_intermediate,
    verify_counting_bound,
    density_experiment,
    ConstructConfig,
)
from shiftpress import construct as construct_module
from shiftpress import core as core_module
from shiftpress import gluing as gluing_module
from shiftpress import structure as structure_module
from shiftpress.construct import RENEWAL_TOL, GluedSubshift
from shiftpress import kernels
from shiftpress.core import load_system, word_matrix, word_str
from shiftpress.segments import (
    OrbitDecomposition,
    affix_bounded,
    empty_segments,
    decomposition_from_dict,
    load_decomposition,
    prefix_run_decomposition,
)
from shiftpress.potentials import birkhoff_batch, load_potential
from shiftpress.measures import SpectrumResult
from shiftpress.structure import ConditionReport
from shiftpress.thermo import PressureReport, log_sum_exp, pressure_floor, pressure_oracle
from shiftpress.cli import main
from shiftpress.errors import InfeasibleError, ConfigError, PreconditionError, ResourceBudgetError

from conftest import random_potential, random_sft

DATA = Path(__file__).parent / "data"


class TestSelectWords:
    def test_counting_case(self, full2):
        # phi = 0: weights are 1, so the selection is a word count in the window
        phi = Potential.zero(full2)
        words, phis, info = select_words(phi, all_segments(), 0.4, 0.05, 6)
        lo, hi = math.exp(6 * 0.35), math.exp(6 * 0.45)
        assert lo < info["count"] < hi
        assert 9 <= info["count"] <= 14
        assert lo < math.exp(info["log_sum"]) < hi
        # deterministic: lexicographically first words of length 6
        assert [tuple(w) for w in words[:2]] == [(0,) * 6, (0,) * 5 + (1,)]

    def test_sum_bound_with_weights(self, full2):
        rng = np.random.default_rng(2)
        phi = Potential.from_symbol_values(full2, [0.05, 0.25])
        alpha, eta, N = 0.5, 0.03, 10
        words, phis, info = select_words(phi, all_segments(), alpha, eta, N)
        total = math.fsum(math.exp(v) for v in phis)
        assert math.exp(N * (alpha - eta)) < total < math.exp(N * (alpha + eta))

    def test_infeasible_alpha_above_pressure(self, full2):
        phi = Potential.zero(full2)
        with pytest.raises(InfeasibleError, match="class weight too small"):
            select_words(phi, all_segments(), 0.8, 0.05, 8)

    def test_single_word_overshoot_detected(self, full2):
        # constant potential: every word hits the sup, so the target window
        # below the sup is unreachable by any single word
        phi = Potential.from_symbol_values(full2, [1.0, 1.0])
        with pytest.raises(InfeasibleError, match="single-word"):
            select_words(phi, all_segments(), 1.0, 0.005, 8)


def reference_ranking(sys, phi, core, N):
    """The ranking select_words made before weight classes: the class rows of
    word_matrix by a lexsort on descending weight, then the word's symbols,
    with their Birkhoff sums and np.cumsum of their weights."""
    words = word_matrix(sys, N)
    rows = np.flatnonzero(core.batch(words, N))
    words = words[rows]
    phis = birkhoff_batch(phi, words, N)
    order = np.lexsort(tuple(words[:, j] for j in range(N - 1, -1, -1)) + (-phis,))
    return rows[order], phis[order], np.cumsum(np.exp(phis[order]))


def check_every_cutoff(sys, phi, core, N):
    """CoreWords.greedy against the lexsort greedy at limits just below, at
    and just above the running sum at the end of each weight class (at most
    40 classes, spread evenly), at 0, below the first word and above the
    total: the rows, the Birkhoff sums, the count and the total, bitwise."""
    rows, phis, cum = reference_ranking(sys, phi, core, N)
    ends = np.append(np.flatnonzero(phis[1:] != phis[:-1]), phis.size - 1)  # last word of each class
    core_words = construct_module.CoreWords(phi, core, None)
    assert core_words.ranked(N)[2].dtype == np.min_scalar_type(ends.size - 1)
    limits = [0.0, cum[0] / 2, 2 * cum[-1]]
    for end in ends[np.unique(np.linspace(0, ends.size - 1, 40).astype(int))]:
        limits += [np.nextafter(cum[end], -np.inf), cum[end], np.nextafter(cum[end], np.inf)]
    for limit in limits:
        k = min(int(np.searchsorted(cum, limit, side="right")) + 1, cum.size)
        got_rows, got_phis, got_total = core_words.greedy(N, limit)
        assert np.array_equal(got_rows, rows[:k])
        assert got_phis.tobytes() == phis[:k].tobytes()
        assert np.float64(got_total).tobytes() == cum[k - 1].tobytes()
    return ends.size


class TestRanking:
    @pytest.mark.parametrize(
        "case, N",
        [("full2-zero", 18), ("golden-weighted", 21), ("golden-weighted", 24), ("golden-mem2-recoded", 20)],
    )
    def test_stable_sort_matches_lexsort(self, case, N):
        """The greedy over weight classes selects what the lexsort greedy
        selects at every cutoff; full2 zero is one class of 262,144 ties."""
        full2, golden = ShiftSystem.full_shift(2), ShiftSystem.golden_mean()
        if case == "full2-zero":  # every weight ties
            sys_, phi = full2, Potential.zero(full2)
        elif case == "golden-weighted":
            sys_, phi = golden, Potential.from_symbol_values(golden, [0.0, 0.1])
        else:
            mem2 = Potential(golden, 2, {(0, 0): 0.1, (0, 1): 0.8, (1, 0): 0.2})
            phi_c, _, _ = construct_module._recode_memory_one(mem2, trivial_decomposition())
            sys_ = phi_c.sys
            phi = phi_c.shifted(-phi_c.min_value)
        classes = check_every_cutoff(sys_, phi, all_segments(), N)
        assert (classes == 1) == (case == "full2-zero")

    def test_sixteen_symbols_match_lexsort(self):
        """full2 memory 4 recoded has 16 symbols; at N = 15 the selection is
        still the lexsort greedy."""
        full2 = load_system(DATA / "full2.json")
        phi_c, _, _ = construct_module._recode_memory_one(
            load_potential(full2, DATA / "full2_mem4.json"), trivial_decomposition()
        )
        phi = phi_c.shifted(-phi_c.min_value)
        assert phi.sys.alphabet_size == 16
        check_every_cutoff(phi.sys, phi, all_segments(), 15)

    def test_prefix_run_class_matches_lexsort(self):
        """A class other than "all" spells its words for membership and
        ranks the rows it admits; the selection is the lexsort greedy."""
        golden = ShiftSystem.golden_mean()
        phi = Potential.from_symbol_values(golden, [0.0, 0.1])
        for cap in (0, 2):
            check_every_cutoff(golden, phi, affix_bounded(prefix_run_decomposition(0, 2), cap), 16)

    def test_ranking_memory(self):
        """full2 zero at N = 18, one class of 2^18 words: the ranking keeps one
        byte per word and its traced peak stays below 1 MB (per-word codes,
        weights, a sort order and running sums peaked at 10.1 MB). A greedy
        selection peaks below its returned arrays plus 1 MB."""
        phi = Potential.zero(ShiftSystem.full_shift(2))
        core_words = construct_module.CoreWords(phi, all_segments(), None)
        tracemalloc.start()
        try:
            key = core_words.ranked(18)[2]
            ranking_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            kept = tracemalloc.get_traced_memory()[0]
            rows, phis, _ = core_words.greedy(18, 43_630.5)
            greedy_peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert key.dtype == np.uint8 and key.size == 2**18
        assert ranking_peak < 2**20
        assert rows.size == 43_631
        assert greedy_peak < rows.nbytes + phis.nbytes + 2**20

    def test_permuted_rows_get_equal_weights(self):
        """A memory-1 weight reads the symbol counts alone: any permutation
        of a row's symbols gives the same bits, whatever the summation order
        of the values would have given."""
        rng = np.random.default_rng(7)
        for A in (2, 3, 5):
            phi = Potential.from_symbol_values(ShiftSystem.full_shift(A), rng.normal(size=A) * 0.37)
            for n in (5, 18, 40):
                words = rng.integers(0, A, size=(300, n), dtype=np.uint8)
                want = birkhoff_batch(phi, words, n)
                for _ in range(3):
                    shuffled = rng.permuted(words, axis=1)
                    assert birkhoff_batch(phi, shuffled, n).tobytes() == want.tobytes()
                assert birkhoff_batch(phi, words[:, ::-1], n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("decomposition", ["trivial", "prefix-run"])
    def test_reversed_columns_select_the_same_words(self, monkeypatch, decomposition):
        """The class scoring fed each word with its columns reversed, the
        heads and tails of the class of every word and the rows of another
        class, makes the same selection. The cutoff is that of the density
        snapshots' last row, inside a group of words with equal symbol
        counts, where sums of the window values in numpy's pairwise order
        split the group."""
        golden = ShiftSystem.golden_mean()
        phi = Potential.from_symbol_values(golden, [0.0, 0.1])
        if decomposition == "trivial":
            core = all_segments()
        else:
            core = affix_bounded(prefix_run_decomposition(0, 2), 0)
        want = select_words(phi, core, 0.409295305005, 0.02, 21, None)
        counts = kernels._counts
        fed = []

        def reversed_columns(words, A):
            fed.append(words.shape)
            return counts(np.ascontiguousarray(words[:, ::-1]), A)

        monkeypatch.setattr(kernels, "_counts", reversed_columns)
        got = select_words(phi, core, 0.409295305005, 0.02, 21, None)
        assert fed  # the scoring read the reversed words
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]

    def test_budget_refused_before_enumeration(self, full2, monkeypatch):
        """A class above the word budget gets word_matrix's refusal, before
        any word of the class, or any head or tail, is spelled."""
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated past the budget")

        with pytest.raises(ResourceBudgetError) as want:
            word_matrix(full2, 18, 1000)
        phi = Potential.zero(full2)
        monkeypatch.setattr(kernels, "_halves", forbidden)
        monkeypatch.setattr(kernels, "word_matrix", forbidden)
        for core in (all_segments(), affix_bounded(prefix_run_decomposition(0, 2), 0)):
            with pytest.raises(ResourceBudgetError) as got:
                construct_module.CoreWords(phi, core, 1000).ranked(18)
            assert str(got.value) == str(want.value)
            assert got.value.n == want.value.n == 18


def reference_class_log_weight_sum(phi, seg, n):
    """The class weight as class_log_weight_sum enumerated it for a generic
    class before it became the level-1 partition function: the class words,
    their Birkhoff sums and one log-sum-exp."""
    words = word_matrix(phi.sys, n)
    member = seg.batch(words, n)
    if not member.any():
        return -math.inf
    return log_sum_exp(birkhoff_batch(phi, words[member], n).tolist())


class TestClassWeight:
    def test_partition_route_matches_enumeration(self):
        golden = load_system(DATA / "golden.json")
        cases = [(load_potential(golden, DATA / "golden_weighted.json"), 0, range(1, 13))]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sys_ = random_sft(rng, int(rng.integers(2, 5)))
            cases.append((random_potential(rng, sys_, 1), int(rng.integers(sys_.alphabet_size)), range(1, 7)))
        for phi, symbol, lengths in cases:
            dec = prefix_run_decomposition(symbol, 2)
            for cap in (0, 1, 2, 4):
                core = affix_bounded(dec, cap)
                assert core.kind == "generic"
                for n in lengths:
                    got = construct_module.class_log_weight_sum(phi, core, n)
                    assert type(got) is float
                    assert got == reference_class_log_weight_sum(phi, core, n), (symbol, cap, n)


class TestGluedSubshift:
    def test_connectors_are_the_systems(self, full2):
        """The glued subshift reads the connectors its potential's system
        keeps; an equal system held in another object has equal ones."""
        phi = Potential.zero(ShiftSystem.full_shift(2))
        lam = build_glued(phi, [(0, 1, 1, 0)])
        assert lam.conn is phi.sys.connectors
        assert lam.conn == full2.connectors

    def test_all_words_recovers_full_shift(self, full2):
        phi = Potential.zero(full2)
        lam = build_glued(phi, word_matrix(full2, 4))
        value, _, _ = lam.log_pressure()
        assert value == pytest.approx(math.log(2), abs=1e-9)

    def test_single_word_is_periodic_orbit(self, full2):
        phi = Potential.from_symbol_values(full2, [0.1, 0.7])
        lam = build_glued(phi, [(0, 1, 1, 0)])
        value, _, _ = lam.log_pressure()
        assert value == pytest.approx((0.1 + 0.7 + 0.7 + 0.1) / 4, abs=1e-9)

    @pytest.mark.parametrize("values, word", [([0.0, 0.1], None), ([0.0, 10.0], (1,))])
    def test_each_rate_solved_once(self, golden, monkeypatch, values, word):
        """ln rho(B(s)) is evaluated once at every rate tried: the start, each
        lowering of it, each Newton iterate, and the two bracket ends, which
        come last; info counts them. The iterates rise from the last start.
        The word 1 glued through the connector 0 has pressure 5 against a
        start of 10 - 2, so the start is lowered twice."""
        phi = Potential.from_symbol_values(golden, values)
        lam = build_glued(phi, word_matrix(golden, 6) if word is None else [word])
        want = lam.log_pressure()
        rates = []
        solve = GluedSubshift._renewal_point

        def counted(self, s, logW):
            rates.append(s)
            return solve(self, s, logW)

        monkeypatch.setattr(GluedSubshift, "_renewal_point", counted)
        assert lam.log_pressure() == want
        lo, hi, info = want
        assert len(rates) == len(set(rates)) == info["evaluations"] <= 8
        assert rates[-2:] == [lo, hi]
        low = int(np.argmin(rates[:-2]))
        assert np.diff(rates[: low + 1]).tolist() == [-2.0] * low
        assert np.all(np.diff(rates[low:-2]) > 0)
        if word is not None:
            assert rates[:3] == [8.0, 6.0, 4.0]
            assert lo <= 5.0 <= hi

    def test_oracle_matches_enumeration_small(self, golden):
        phi = Potential.zero(golden)
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)])
        value, _, _ = lam.log_pressure()
        rep = lam.finite_pressure_report(1, anchored=False)
        assert rep.extras["exact_words"]
        assert abs(value - rep.value) < 0.05

    def test_monotone_in_word_set(self, full2):
        rng = np.random.default_rng(7)
        phi = Potential.from_symbol_values(full2, [0.2, 0.5])
        pool = [tuple(int(s) for s in r) for r in word_matrix(full2, 4)]
        small = pool[:3]
        for extra in range(1, 5):
            big = pool[: 3 + extra]
            v_small, _, _ = build_glued(phi, small).log_pressure()
            v_big, _, _ = build_glued(phi, big).log_pressure()
            assert v_small <= v_big + 1e-9

    def test_language_words_are_admissible_factors(self, golden):
        phi = Potential.zero(golden)
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)])
        words = lam.language_words(5)
        from shiftpress.core import is_admissible

        assert all(is_admissible(golden, tuple(w)) for w in words)
        # every factor extends: factor counts are nondecreasing in length
        assert len(lam.language_words(6)) >= len(words)

    def test_presentation_shift_invariant(self, golden):
        """Every length-(n+1) presentation word has its shifted suffix in the
        language: the spelled subshift is closed under the shift."""
        phi = Potential.zero(golden)
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)])
        longer = {tuple(w) for w in lam.language_words(7)}
        shorter = {tuple(w) for w in lam.language_words(6)}
        for w in longer:
            assert w[1:] in shorter

    def test_path_recursion_matches_exact_words(self, golden):
        """Dual route on the glued system: anchored path sums at full block
        multiples equal exact anchored word sums when no spelling collides."""
        phi = Potential.from_symbol_values(golden, [0.3, 0.6])
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)])
        # one full block anchored: paths = the two words themselves
        lt = lam.log_theta(3, 1, anchored=True)
        direct = math.log(
            math.fsum(math.exp(b) for b in birkhoff_batch(phi, lam.words, 3))
        )
        assert lt == pytest.approx(direct, abs=1e-12)

    def test_explicit_digraph_small(self, golden):
        phi = Potential.zero(golden)
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)])
        dig = lam.explicit_digraph()
        assert not dig["summary"]
        # no word starts with 1, so the connector 0 from 1 to 1 is left out
        assert len(dig["vertices"]) == lam.vertex_count() == 6
        assert len(dig["edges"]) == lam.edge_count()
        ids = {v["id"] for v in dig["vertices"]}
        assert all(e[0] in ids and e[1] in ids for e in dig["edges"])

    def test_empty_selection_rejected(self, full2):
        with pytest.raises(ConfigError):
            build_glued(Potential.zero(full2), [])

    @pytest.mark.parametrize("bad", [(1, 1, 0), (0, 2, 0), (0, 257, 0), (0, -1, 0)])
    def test_word_outside_the_system_refused(self, golden, bad):
        """11 is forbidden on the golden mean shift, and 2, 257 and -1 are no
        symbols of it: each such word is refused by name, never glued."""
        phi = Potential.from_symbol_values(golden, [0.0, 0.1])
        with pytest.raises(ConfigError, match=re.escape(f"selected word {bad} is not admissible")):
            build_glued(phi, [bad, (0, 1, 0)])

    def test_empty_word_refused(self, golden):
        """A word set of empty words is a zero-width matrix: refused, not
        read past its end."""
        with pytest.raises(ConfigError, match="nonempty words"):
            build_glued(Potential.zero(golden), [()])

    def test_word_theta_matches_materialized_language(self, golden):
        """The follower-set recursion must equal the sum over the explicitly
        materialized, deduplicated language, and genuinely differ from the
        path recursion when spellings collide across phases."""
        phi = Potential.from_symbol_values(golden, [0.15, 0.4])
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)])
        for n, level in [(3, 3), (4, 2), (6, 1)]:
            words = lam.language_words(n + level - 1)
            brute = math.log(
                math.fsum(math.exp(v) for v in birkhoff_batch(phi, words, n))
            )
            got = lam.word_theta(n, level, anchored=False)
            assert got == pytest.approx(brute, abs=1e-10)
        # path counting exceeds word counting here (phase-ambiguous spellings)
        assert lam.log_theta(6, 1, anchored=False) > lam.word_theta(6, 1) + 1e-9

    def test_renewal_matches_dense_power_iteration(self, golden):
        """Independent eigenvalue route: materialize the presentation digraph,
        weight each edge by the destination symbol, and solve on its edges."""
        from shiftpress.thermo import perron_log

        rng = np.random.default_rng(31)
        phi = Potential.from_symbol_values(golden, [0.2, 0.65])
        pool = [tuple(int(s) for s in r) for r in word_matrix(golden, 4)]
        lam = build_glued(phi, pool[:5])
        dig = lam.explicit_digraph()
        assert not dig["summary"]
        V = len(dig["vertices"])
        M = np.zeros((V, V))
        shift = phi.max_value
        for u, v in dig["edges"]:
            M[u, v] = math.exp(phi((dig["vertices"][v]["symbol"],)) - shift)
        src, dst = np.nonzero(M)
        log_dense, _, _ = perron_log(len(M), src, dst, np.log(M[src, dst]))
        log_renewal, _, _ = lam.log_pressure()
        assert log_renewal == pytest.approx(log_dense + shift, abs=1e-9)


def reference_explicit_digraph(glued):
    """The presentation's vertex and edge lists, vertex by vertex and pair by
    pair from the connector dict."""
    names, vertices = {}, []

    def add(name, symbol):
        names[name] = len(vertices)
        vertices.append({"id": len(vertices), "name": name, "symbol": int(symbol)})

    K, N = glued.K, glued.N
    # a connector toward a symbol no word starts with would end in a sink
    conns = {(a, b): c for (a, b), c in glued.conn.items() if b in glued.first}
    for i in range(K):
        for p in range(N):
            add(f"w{i}.{p}", glued.words[i, p])
    for (a, b), c in conns.items():
        for q, s in enumerate(c):
            add(f"c{a}-{b}.{q}", s)
    edges = []
    for i in range(K):
        for p in range(N - 1):
            edges.append([names[f"w{i}.{p}"], names[f"w{i}.{p+1}"]])
    for i in range(K):
        for j in range(K):
            if len(glued.conn[(int(glued.last[i]), int(glued.first[j]))]) == 0:
                edges.append([names[f"w{i}.{N-1}"], names[f"w{j}.0"]])
    for (a, b), c in conns.items():
        if len(c) == 0:
            continue
        for i in np.nonzero(glued.last == a)[0]:
            edges.append([names[f"w{int(i)}.{N-1}"], names[f"c{a}-{b}.0"]])
        for q in range(len(c) - 1):
            edges.append([names[f"c{a}-{b}.{q}"], names[f"c{a}-{b}.{q+1}"]])
        for j in np.nonzero(glued.first == b)[0]:
            edges.append([names[f"c{a}-{b}.{len(c)-1}"], names[f"w{int(j)}.0"]])
    return {"summary": False, "vertices": vertices, "edges": edges}


def reference_log_terms(glued, s, logW):
    """ln of each term of B(s), entry by entry, each connector read from the dict."""
    A = glued.sys.alphabet_size
    L = np.full((A, A, A), -math.inf)
    for a, b, a2 in itertools.product(range(A), repeat=3):
        c = glued.conn[(a, b)]
        if logW[b, a2] > -math.inf:
            phi_c = math.fsum(glued.phi.values_flat[list(c)].tolist())
            L[a, b, a2] = phi_c - s * (len(c) + glued.N) + logW[b, a2]
    return L


def test_presentation_arrays_match_the_per_pair_reference():
    """On seeded systems with connectors of lengths 0, 1 and 2: the digraph
    equals the per-pair reference, the closed-form counts equal the list
    lengths, and the log terms of B(s) match the per-pair sums bit for bit."""
    taus = set()
    for seed in range(24):
        rng = np.random.default_rng(seed)
        sys_ = random_sft(rng, int(rng.integers(2, 5)), density=float(rng.choice([0.45, 0.7, 1.0])))
        phi = random_potential(rng, sys_, 1)
        pool = word_matrix(sys_, int(rng.integers(2, 6)))
        words = pool[np.sort(rng.choice(len(pool), size=min(len(pool), int(rng.integers(1, 9))), replace=False))]
        glued = build_glued(phi, words)
        taus.add(glued.tau)
        dig = glued.explicit_digraph()
        assert dig == reference_explicit_digraph(glued), seed
        assert glued.vertex_count() == len(dig["vertices"])
        assert glued.edge_count() == len(dig["edges"])
        logW = glued._pair_log_weight()
        for s in (-3.0, 0.1, 0.7, 5.0):
            assert np.array_equal(glued._log_terms(s, logW), reference_log_terms(glued, s, logW)), (seed, s)
    assert {0, 1, 2} <= taus


def test_connector_vertex_names_are_distinct():
    """On the 12-cycle with a loop at 0, with words starting at 0, 1 and 11,
    connector positions of the pairs (1, 11) and (11, 1) are told apart: all
    226 vertex names differ."""
    A = 12
    T = np.zeros((A, A), dtype=bool)
    T[np.arange(A), (np.arange(A) + 1) % A] = True
    T[0, 0] = True
    sys_ = ShiftSystem(T)
    words = [(*range(A), 0), (*range(1, A), 0, 0), (11, 0, 0, *range(1, 11))]
    glued = build_glued(Potential.zero(sys_), words)
    dig = glued.explicit_digraph()
    names = [v["name"] for v in dig["vertices"]]
    assert len(names) == len(set(names)) == 226
    assert {"c1-11.0", "c11-1.0"} <= set(names)
    assert dig == reference_explicit_digraph(glued)


def mp_rho_minus_one(mpmath, glued, logW, s):
    """rho(B(s)) - 1 at 50 digits, with s, conn_phi and logW read as exact."""
    A = glued.sys.alphabet_size
    with mpmath.workdps(50):
        B = mpmath.matrix(A, A)
        for a, b, a2 in itertools.product(range(A), repeat=3):
            if logW[b, a2] > -math.inf:
                k = int(glued.conn_len[a, b]) + glued.N
                B[a, a2] += mpmath.exp(mpmath.mpf(glued.conn_phi[a, b]) - mpmath.mpf(s) * k + mpmath.mpf(logW[b, a2]))
        return max(abs(e) for e in mpmath.eig(B, left=False, right=False)) - 1


# the construct snapshot inputs, then the density sweeps of the benchmark
# (golden with {0: 0.0, 1: 0.1} is golden_weighted): (system, potential,
# decomposition, alpha or grid size, constructions)
RENEWAL_CASES = [
    ("full2", "zero", None, 0.45, 1),
    ("golden", "golden_weighted", None, 0.3, 1),
    ("golden", "golden_weighted", "prefix_run", 0.3, 1),
    ("tau2", "tau2_phi", None, 0.15, 1),
    ("full2", "zero", None, 8, 8),
    ("golden", "golden_weighted", None, 3, 3),
]


class TestRenewalBracket:
    @pytest.mark.parametrize("system, potential, decomposition, alpha, constructions", RENEWAL_CASES)
    def test_bracket_holds_the_50_digit_root(self, monkeypatch, system, potential, decomposition, alpha,
                                             constructions):
        """Every construction's [lo, hi] is at most RENEWAL_TOL wide and holds
        the root of rho(B(s)) = 1 computed at 50 digits, after at most 8
        evaluations of ln rho(B(s)); lower and upper report its ends."""
        mpmath = pytest.importorskip("mpmath")
        solve = GluedSubshift.log_pressure
        solved = []

        def recorded(self):
            solved.append((self, solve(self)))
            return solved[-1][1]

        monkeypatch.setattr(GluedSubshift, "log_pressure", recorded)
        phi = load_potential(load_system(DATA / f"{system}.json"), DATA / f"{potential}.json")
        dec = trivial_decomposition() if decomposition is None else load_decomposition(DATA / f"{decomposition}.json")
        if isinstance(alpha, float):
            res = construct_intermediate(phi, dec, alpha, 0.1)
            shift = res.params["normalization_shift"]
            lo, hi, _ = solved[0][1]
            assert (res.lower.value, res.upper.value) == (lo + shift, hi + shift)
            assert res.params["pressure"] == 0.5 * (lo + hi) + shift
        else:
            assert all(row.certified for row in density_experiment(phi, dec, alpha, 0.1).rows)
        assert len(solved) == constructions
        for glued, (lo, hi, info) in solved:
            logW = glued._pair_log_weight()
            assert 0 < hi - lo <= RENEWAL_TOL
            assert info["evaluations"] <= 8
            assert info["quotients"][0] > 1.0 > info["quotients"][1]
            assert mp_rho_minus_one(mpmath, glued, logW, lo) > 0 > mp_rho_minus_one(mpmath, glued, logW, hi)

    @staticmethod
    def _quotients_off_by_one(monkeypatch):
        """Every computed log quotient comes out 1 too high, as from a
        Perron vector far off: the high end can no longer be proven."""
        point = GluedSubshift._renewal_point

        def shifted(self, s, logW):
            f, slope, quotients, slack = point(self, s, logW)
            return f, slope, quotients + 1.0, slack

        monkeypatch.setattr(GluedSubshift, "_renewal_point", shifted)

    def test_unproven_end_refused(self, full2, monkeypatch):
        """An end whose quotients do not clear the slack is refused, with both
        ends and their quotients."""
        lam = build_glued(Potential.from_symbol_values(full2, [0.2, 0.5]), word_matrix(full2, 4)[:5])
        self._quotients_off_by_one(monkeypatch)
        with pytest.raises(PreconditionError, match=r"bracket \[.*, .*\] is not proven: .* at lo is .* at hi .*"):
            lam.log_pressure()

    def test_unproven_end_exits_3(self, monkeypatch, tmp_path, capsys):
        self._quotients_off_by_one(monkeypatch)
        code = main([
            "construct", "--system", str(DATA / "full2.json"), "--potential", str(DATA / "zero.json"),
            "--alpha", "0.45", "--eta0", "0.1", "--out", str(tmp_path / "out.json"),
        ])
        assert code == 3
        assert "is not proven" in capsys.readouterr().err

    def test_large_values_widen_the_bracket(self, golden):
        """At a rate near 300 the rounding slack of the quotients is about
        1e-12, above what a bracket RENEWAL_TOL wide can clear: the bracket
        widens to 4 slack / |f'| on each side and is still proven."""
        mpmath = pytest.importorskip("mpmath")
        phi = Potential.from_symbol_values(golden, [0.0, 600.0])
        lam = build_glued(phi, word_matrix(golden, 6))
        lo, hi, info = lam.log_pressure()
        assert 250 < lo and RENEWAL_TOL < hi - lo < 1e-10
        assert info["evaluations"] <= 8
        logW = lam._pair_log_weight()
        assert mp_rho_minus_one(mpmath, lam, logW, lo) > 0 > mp_rho_minus_one(mpmath, lam, logW, hi)


class TestSeparation:
    def test_distinct_sequences_separate(self, golden):
        """Traced words from different block sequences with equal start times
        differ inside the covered window (exhaustive, small)."""
        phi = Potential.zero(golden)
        pool = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
        N = 3
        tau = check_gluing(golden, all_segments())
        for n in (1, 2, 3):
            for seq_a in itertools.product(pool, repeat=n):
                for seq_b in itertools.product(pool, repeat=n):
                    if seq_a[-1] == seq_b[-1]:
                        continue
                    za, ta, _ = glue_words(golden, list(seq_a))
                    zb, tb, _ = glue_words(golden, list(seq_b))
                    if ta[-1] != tb[-1]:
                        continue
                    window = n * (N + tau)
                    assert za[:window] != zb[:window], (seq_a, seq_b)


def reference_continuations(glued, last_symbol, h):
    """Distinct length-h continuations past a class's determined span, by
    depth-first recursion over the glued words."""
    if h == 0:
        return {()}
    out = set()

    def extend(prefix, a):
        for j in range(glued.K):
            b = int(glued.first[j])
            chunk = glued.conn[(a, b)] + tuple(int(s) for s in glued.words[j])
            cand = prefix + chunk
            if len(cand) >= h:
                out.add(cand[:h])
            else:
                extend(cand, int(glued.last[j]))

    extend((), last_symbol)
    return out


def reference_counting_bound(glued, n, delta, eta):
    """The per-class loop verify_counting_bound replaced: glue every class,
    enumerate its continuations and compare its theta sum, one at a time."""
    tau = glued.tau
    sep_len = tau + delta.level - 1
    count_words = construct_module.count_words
    s_tau = float(count_words(glued.sys, sep_len)) if sep_len >= 1 else 1.0
    # count_words starts at length 1; there is exactly one word of length 0
    s_delta = float(count_words(glued.sys, delta.level - 1)) if delta.level > 1 else 1.0
    bound = s_tau ** (n - 1) if tau >= 1 else max(s_delta ** (n - 1), 1.0)
    window = n * glued.N + delta.level - 1
    theta_n = math.floor((n - 4) * glued.N / (glued.N + tau)) if n > 4 else 0
    phi_max = glued.phi.max_value
    failures = []
    worst = 0
    theta_checked = False
    for seq in itertools.product(range(glued.K), repeat=n):
        glued_word, times, _gaps = glue_words(glued.sys, [glued.words[i] for i in seq])
        det = len(glued_word)
        h = max(0, window - det)
        prefixes = reference_continuations(glued, int(glued.last[seq[-1]]), h)
        count = len(prefixes)
        worst = max(worst, count)
        if count > bound:
            failures.append({"class": [int(i) for i in seq], "count": count, "bound": bound})
        if n > 4 and theta_n >= 3:
            theta_checked = True
            width = (n - 3) * glued.N
            log_theta_enum = birkhoff_batch(
                glued.phi, np.array([glued_word[:width]], dtype=np.uint8), width
            )[0]
            log_bound = (
                (n - 1) * math.log(max(s_tau, 1.0))
                + math.fsum(glued.phis[i] for i in seq[2:theta_n])
                + 2 * n * glued.N * eta
                + 5 * glued.N * phi_max
            )
            if log_theta_enum > log_bound + 1e-9:
                failures.append(
                    {"class": [int(i) for i in seq], "theta": log_theta_enum, "theta_bound": log_bound}
                )
    return construct_module.CountingBoundResult(
        ok=not failures,
        classes_checked=glued.K**n,
        worst_count=worst,
        bound=bound,
        theta_checked=theta_checked,
        failures=failures[:10],
    )


def assert_same_counting_result(got, want, *label):
    assert got == want, label
    for g, w in zip(got.failures, want.failures):
        assert list(g) == list(w)
        for key in ("theta", "theta_bound"):
            if key in w:
                assert np.float64(g[key]).tobytes() == np.float64(w[key]).tobytes()


@pytest.fixture(scope="module")
def counting_sets():
    """(name, glued set, largest n) for the array-versus-loop comparison:
    the constructions the benchmark and the acceptance test check, plus small
    word sets whose n = 8 classes engage the theta check (golden: tau = 1,
    full2: tau = 0)."""
    full2, golden = ShiftSystem.full_shift(2), ShiftSystem.golden_mean()
    dec = trivial_decomposition()
    built_full2 = construct_intermediate(Potential.zero(full2), dec, 0.12, 0.1)
    built_golden = construct_intermediate(
        Potential.from_symbol_values(golden, [0.0, 0.1]), dec, 0.15, 0.1
    )
    phi_g = Potential.from_symbol_values(golden, [0.0, 0.1])
    phi_f = Potential.from_symbol_values(full2, [0.2, -0.1])
    return [
        ("full2-construction", built_full2.subsystem, 4),
        ("golden-construction", built_golden.subsystem, 5),
        ("golden-3", build_glued(phi_g, [(0, 0, 1), (0, 1, 0), (1, 0, 0)], params={"eta": 0.05}), 8),
        ("full2-3", build_glued(phi_f, [(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)], params={"eta": 0.05}), 8),
        # two words of unequal weight, so theta sums and bounds differ by class
        ("golden-2", build_glued(phi_g, [(0, 0, 0), (1, 0, 1)], params={"eta": 0.05}), 8),
        ("full2-2", build_glued(phi_f, [(0, 0, 0, 0), (1, 1, 0, 1)], params={"eta": 0.05}), 8),
    ]


class TestCountingBound:
    @pytest.mark.parametrize("level", [1, 3, 7])
    def test_class_arrays_match_per_class_loop(self, counting_sets, level):
        theta_seen = False
        for name, glued, n_max in counting_sets:
            eta = glued.params["eta"]
            for n in range(2, n_max + 1):
                got = verify_counting_bound(glued, n, Resolution(level), eta=eta)
                want = reference_counting_bound(glued, n, Resolution(level), eta)
                assert_same_counting_result(got, want, name, n)
                theta_seen = theta_seen or want.theta_checked
        assert theta_seen

    def test_failing_classes_match_per_class_loop(self, counting_sets, monkeypatch):
        _, glued, _ = counting_sets[2]

        def compare(n, eta):
            got = verify_counting_bound(glued, n, Resolution(3), eta=eta)
            assert_same_counting_result(got, reference_counting_bound(glued, n, Resolution(3), eta))
            assert not got.ok and len(got.failures) == 10
            return [sorted(f) for f in got.failures], got

        # eta = -10 fails every theta bound
        kinds, _ = compare(8, -10.0)
        assert kinds == [["class", "theta", "theta_bound"]] * 10
        # a count_words of 1 makes the count bound 1, which every class with
        # two continuations exceeds
        monkeypatch.setattr(construct_module, "count_words", lambda sys, length: 1)
        kinds, _ = compare(5, 0.05)
        assert kinds == [["bound", "class", "count"]] * 10
        # a class failing both lists its count entry first
        kinds, both = compare(8, -10.0)
        assert kinds[:2] == [["bound", "class", "count"], ["class", "theta", "theta_bound"]]
        assert both.failures[0]["class"] == both.failures[1]["class"]

    def test_partial_theta_failures_match_per_class_loop(self, counting_sets):
        # as eta falls through this range the theta bounds of the 2^8
        # classes fail a group at a time, each group set by its word weights
        for name, glued, _ in counting_sets[4:]:
            outcomes = set()
            for eta in np.linspace(-0.3, -0.15, 16):
                got = verify_counting_bound(glued, 8, Resolution(3), eta=eta)
                want = reference_counting_bound(glued, 8, Resolution(3), eta)
                assert_same_counting_result(got, want, name, eta)
                outcomes.add(got.ok)
            assert outcomes == {True, False}

    def test_small_golden_lambda(self, golden):
        phi = Potential.zero(golden)
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0), (1, 0, 0)], params={"eta": 0.05})
        for n in (3, 4, 5):
            res = verify_counting_bound(lam, n, Resolution(7))
            assert res.ok
            assert res.classes_checked == 3**n

    def test_full_shift_free_gaps(self, full2):
        phi = Potential.zero(full2)
        lam = build_glued(phi, word_matrix(full2, 3), params={"eta": 0.05})
        for n in (3, 4):
            assert verify_counting_bound(lam, n, Resolution(7)).ok

    def test_theta_bound_engages_at_larger_n(self, golden):
        phi = Potential.zero(golden)
        lam = build_glued(phi, [(0, 0, 1), (0, 1, 0)], params={"eta": 0.05})
        res = verify_counting_bound(lam, 8, Resolution(7))
        assert res.ok and res.theta_checked


@pytest.mark.parametrize("record,field", [
    (PressureReport, "extras"),
    (ConditionReport, "details"),
    (SpectrumResult, "notes"),
    (construct_module.CountingBoundResult, "failures"),
])
def test_container_fields_are_never_shared(record, field):
    """A record's dict or list field has no default, so a record built
    without one is refused, and two records never share one container."""
    assert field not in record._field_defaults
    with pytest.raises(TypeError, match=field):
        record(**{f: None for f in record._fields if f != field})


class TestStructureConditions:
    def test_trivial_everything_passes(self, full2):
        phi = Potential.zero(full2)
        check = check_structure_conditions(phi, trivial_decomposition(), pressure_oracle(phi).value)
        assert check.all_pass
        by_name = {c.name: c for c in check.conditions}
        assert by_name["complement_pressure"].margin == math.inf
        assert by_name["affix_pressure"].margin == math.inf

    def test_golden_memory1_passes(self, golden):
        rng = np.random.default_rng(23)
        from conftest import random_potential

        phi = random_potential(rng, golden, 1)
        check = check_structure_conditions(phi, trivial_decomposition(), pressure_oracle(phi).value)
        assert check.all_pass

    def test_prefix_equals_everything_fails(self, full2):
        dec = OrbitDecomposition(
            base=all_segments(),
            prefix_class=all_segments(),
            core_class=all_segments(),
            suffix_class=empty_segments(),
            split=lambda words, n: tuple(np.full(len(words), k) for k in (n, 0, 0)),
            name="prefix-everything",
        )
        phi = Potential.zero(full2)
        check = check_structure_conditions(phi, dec, pressure_oracle(phi).value)
        by_name = {c.name: c for c in check.conditions}
        assert by_name["affix_pressure"].status == "fail"
        assert by_name["affix_pressure"].margin <= 0
        assert not check.all_pass

    def test_unbounded_spread_is_inconclusive(self, full2):
        """A prefix class with words at n = 6 and 8 only has an unbounded
        spread over n = 6..10: its least quotient, at n = 6, proves nothing
        about its growth rate (the quotient at n = 8, 0.866, exceeds the
        pressure ln 2), so the condition is inconclusive, and the spread is
        written as in a pressure report."""
        dec = decomposition_from_dict({
            "kind": "table",
            "prefix": [["000000", 6]] + [[word_str(w), 8] for w in word_matrix(full2, 8)[:64]],
        })
        phi = Potential.zero(full2)
        check = check_structure_conditions(phi, dec, math.log(2))
        affix = {c.name: c for c in check.conditions}["affix_pressure"]
        assert affix.status == "inconclusive"
        assert affix.margin > 0
        assert affix.details["spread"] == "unbounded"
        json.dumps(check.to_dict(), allow_nan=False)

    def test_resolution_ordering_enforced(self):
        with pytest.raises(ConfigError, match="gamma"):
            ConstructConfig(level_gamma=3, level_delta=7).resolutions()


class TestConstructIntermediate:
    def test_full2_midrange(self, full2):
        res = construct_intermediate(
            Potential.zero(full2), trivial_decomposition(), 0.35, 0.1
        )
        assert res.certified
        assert 0.25 < res.params["pressure"] < 0.45
        assert res.lower.value >= 0.35 - 0.1
        assert res.upper.value <= 0.35 + 0.1

    def test_alpha_outside_interval(self, full2):
        with pytest.raises(InfeasibleError, match="strictly between"):
            construct_intermediate(
                Potential.zero(full2), trivial_decomposition(), 0.8, 0.05
            )

    def test_n_cap_exhaustion_lists_failures(self, full2):
        """N0 = 1 and N1 = 9 on full2, so a cap of 3 leaves no N above
        max(N0, N1): the search still tries the cap, and the refusal names
        the inequality that fails there with both its sides."""
        cfg = ConstructConfig(n_cap=3)
        with pytest.raises(InfeasibleError, match="no feasible word length") as info:
            construct_intermediate(
                Potential.zero(full2), trivial_decomposition(), 0.35, 0.1, cfg
            )
        assert "last failures: (3, [('N > max(N0, N1)', 3, 9)" in str(info.value)
        assert [N for N, _ in info.value.diagnostics] == [3]

    @pytest.mark.parametrize("n_cap", [0, 1, -3])
    def test_config_refuses_a_cap_below_two(self, full2, n_cap):
        """A cap below 2 is refused where it is set, by its own name, not by
        the word enumeration of the N search."""
        with pytest.raises(ConfigError, match=f"^n_cap must be >= 2, got {n_cap}$"):
            construct_intermediate(
                Potential.zero(full2), trivial_decomposition(), 0.35, 0.1, ConstructConfig(n_cap=n_cap)
            )
        assert ConstructConfig(n_cap=2).n_cap == 2

    def test_near_pressure_target(self, full2):
        # alpha close to the pressure: selection keeps most words
        res = construct_intermediate(
            Potential.zero(full2), trivial_decomposition(), 0.62, 0.1
        )
        assert res.certified
        assert abs(res.params["pressure"] - 0.62) < 0.1

    def test_golden_with_potential(self, golden):
        phi = Potential.from_symbol_values(golden, [0.0, 0.1])
        res = construct_intermediate(phi, trivial_decomposition(), 0.25, 0.1)
        assert res.certified
        assert abs(res.params["pressure"] - 0.25) < 0.1
        assert res.params["tau"] == 1

    def test_memory2_recoded(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.0, (0, 1): 0.12, (1, 0): 0.05})
        res = construct_intermediate(phi, trivial_decomposition(), 0.3, 0.1)
        assert res.certified
        assert res.params["recoded"]
        assert abs(res.params["pressure"] - 0.3) < 0.1
        # reported words live in the base alphabet and are admissible
        from shiftpress.core import is_admissible

        for w in res.base_words()[:20]:
            assert is_admissible(golden, w)

    def test_sandwich_reports(self, full2):
        res = construct_intermediate(
            Potential.zero(full2), trivial_decomposition(), 0.45, 0.1
        )
        assert res.certified
        assert res.lower.value >= 0.45 - 0.1 - 1e-6
        assert res.upper.value <= 0.45 + 0.1 + 1e-6
        # the finite-window report is a test oracle, off the construction path
        enum = res.subsystem.finite_pressure_report(
            5, anchored=True, blocks=(2, 3, 4), exact_limit=200_000
        )
        assert enum.value + res.params["normalization_shift"] >= res.lower.value - 0.2

    def test_normalization_shift_restored(self, full2):
        # negative potential: construction works through the nonnegative shift
        phi = Potential.from_symbol_values(full2, [-1.0, -1.0])
        res = construct_intermediate(
            phi, trivial_decomposition(), -0.6, 0.1
        )
        assert res.certified
        assert abs(res.params["pressure"] - (-0.6)) < 0.1

    @pytest.mark.parametrize(
        "system, values, alpha",
        [("full2", [0.0, 0.0], 0.45), ("golden", [0.0, 0.1], 0.25)],
    )
    def test_one_renewal_solve_per_construction(self, request, monkeypatch, system, values, alpha):
        sys_ = request.getfixturevalue(system)
        solve = GluedSubshift.log_pressure
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("finite-window oracle reached from the construction")

        monkeypatch.setattr(GluedSubshift, "log_pressure", counted)
        for name in ("finite_pressure_report", "word_theta", "log_theta"):
            monkeypatch.setattr(GluedSubshift, name, forbidden)
        phi = Potential.from_symbol_values(sys_, values)
        res = construct_intermediate(phi, trivial_decomposition(), alpha, 0.1)
        assert len(calls) == 1
        assert res.lower.value <= res.params["pressure"] <= res.upper.value
        assert res.lower.error_bound == res.upper.error_bound <= RENEWAL_TOL
        assert res.certified
        assert "finite-to-one" in res.lower.extras["basis"]
        assert "factor map" in res.upper.extras["basis"]

    @pytest.mark.parametrize(
        "system, values, alpha",
        [("full2", [0.0, 0.0], 0.45), ("golden", [0.0, 0.1], 0.25)],
    )
    def test_selected_sums_are_not_recomputed(self, request, monkeypatch, system, values, alpha):
        """The glued subshift takes the selection's Birkhoff sums: no batch
        runs over the selected words, and the sums it holds are theirs."""
        sys_ = request.getfixturevalue(system)
        batches = []

        def recorded(phi, words, n):
            batches.append(np.array(words))
            return birkhoff_batch(phi, words, n)

        monkeypatch.setattr(construct_module, "birkhoff_batch", recorded)
        phi = Potential.from_symbol_values(sys_, values)
        res = construct_intermediate(phi, trivial_decomposition(), alpha, 0.1)
        glued = res.subsystem
        assert not any(np.array_equal(b, glued.words) for b in batches)
        assert np.array_equal(glued.phis, birkhoff_batch(glued.phi, glued.words, glued.N))

    def test_gluing_bug_is_not_infeasibility(self, full2, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug inside check_gluing")

        monkeypatch.setattr(construct_module, "check_gluing", broken)
        monkeypatch.setattr(structure_module, "check_gluing", broken)
        phi = Potential.zero(full2)
        with pytest.raises(RuntimeError, match="bug inside check_gluing"):
            construct_intermediate(phi, trivial_decomposition(), 0.35, 0.1)
        with pytest.raises(RuntimeError, match="bug inside check_gluing"):
            check_structure_conditions(phi, trivial_decomposition(), pressure_oracle(phi).value)

    def test_counting_bound_defaults_to_construction_delta(self, full2):
        cfg = ConstructConfig(level_delta=8)
        res = construct_intermediate(
            Potential.zero(full2), trivial_decomposition(), 0.12, 0.1, cfg
        )
        assert res.params["level_delta"] == 8
        n = 2
        used = verify_counting_bound(res.subsystem, n)
        assert used.bound == verify_counting_bound(res.subsystem, n, Resolution(8)).bound
        assert used.bound != verify_counting_bound(res.subsystem, n, Resolution(7)).bound


class TestDensityExperiment:
    def test_grid_one_midpoint(self, full2):
        res = density_experiment(Potential.zero(full2), trivial_decomposition(), 1, 0.1)
        assert len(res.rows) == 1
        assert res.rows[0].certified

    def test_failing_decomposition_rejected(self, full2):
        dec = OrbitDecomposition(
            base=all_segments(),
            prefix_class=all_segments(),
            core_class=all_segments(),
            suffix_class=empty_segments(),
            split=lambda words, n: tuple(np.full(len(words), k) for k in (n, 0, 0)),
            name="prefix-everything",
        )
        with pytest.raises(InfeasibleError, match="structure conditions"):
            density_experiment(Potential.zero(full2), dec, 4, 0.1)

    def test_constant_potential_shifts_interval(self, full2):
        phi = Potential.constant(full2, 1.0)
        res = density_experiment(phi, trivial_decomposition(), 4, 0.1)
        assert res.floor == pytest.approx(1.0, abs=1e-12)
        assert res.ceiling == pytest.approx(1.0 + math.log(2), abs=1e-9)
        assert all(r.certified for r in res.rows)
        assert all(abs(r.pressure - r.alpha) < 0.1 for r in res.rows)

    def test_one_enumeration_per_word_length(self, full2, golden, monkeypatch):
        """An "all" core ranks each chosen N from symbol counts and builds no
        class word matrix; a prefix-run core builds exactly one per chosen N,
        for its membership."""
        lengths = []

        def counted(sys_, n, *args, **kwargs):
            lengths.append(n)
            return word_matrix(sys_, n, *args, **kwargs)

        monkeypatch.setattr(construct_module, "word_matrix", counted)
        res = density_experiment(Potential.zero(full2), trivial_decomposition(), 8, 0.1)
        chosen = {r.N for r in res.rows}
        assert all(r.certified for r in res.rows)
        assert {N: lengths.count(N) for N in chosen} == {N: 0 for N in chosen}

        lengths.clear()
        dec = prefix_run_decomposition(0, 2)
        res = density_experiment(Potential.from_symbol_values(golden, [0.0, 0.1]), dec, 3, 0.1)
        chosen = {r.N for r in res.rows if r.N is not None}
        assert chosen
        assert {N: lengths.count(N) for N in chosen} == {N: 1 for N in chosen}

    def test_alpha_independent_work_once_per_sweep(self, full2, monkeypatch):
        calls = []
        for name in ("check_gluing", "pressure_oracle"):
            def counted(*args, _fn=getattr(construct_module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(construct_module, name, counted)

        def calls_at(grid):
            calls.clear()
            density_experiment(Potential.zero(full2), trivial_decomposition(), grid, 0.1)
            return sorted(calls)

        assert calls_at(8) == calls_at(1)

    @pytest.mark.parametrize("grid", [1, 8])
    @pytest.mark.parametrize("system,potential", [("full2", "zero"), ("golden", "golden_mem2")])
    def test_one_pressure_interval_per_sweep(self, monkeypatch, grid, system, potential):
        calls = []
        for name in ("pressure_oracle", "pressure_floor"):
            def counted(*args, _fn=getattr(construct_module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(construct_module, name, counted)
        phi = load_potential(load_system(DATA / f"{system}.json"), DATA / f"{potential}.json")
        density_experiment(phi, trivial_decomposition(), grid, 0.1)
        assert sorted(calls) == ["pressure_floor", "pressure_oracle"]

    @pytest.mark.parametrize(
        "system,potential,searches",
        [("full2", "zero", 1), ("golden", "golden_weighted", 1), ("golden", "golden_mem2", 2)],
    )
    def test_connectors_found_once_per_system(self, monkeypatch, system, potential, searches):
        """The structure gate and the affix-cap scan read the connectors a
        system keeps: one search on a memory-1 input, whose scan runs on the
        input system, and one on each of the input and its recoding otherwise."""
        calls = []

        def counted(sys_, _fn=core_module.shortest_connectors):
            calls.append(sys_)
            return _fn(sys_)

        for mod in (core_module, gluing_module):  # wherever the search is bound
            if hasattr(mod, "shortest_connectors"):
                monkeypatch.setattr(mod, "shortest_connectors", counted)
        phi = load_potential(load_system(DATA / f"{system}.json"), DATA / f"{potential}.json")
        rows = density_experiment(phi, trivial_decomposition(), 3, 0.1).rows
        assert len(calls) == searches
        assert calls[0] is phi.sys and len(set(map(id, calls))) == searches
        if phi.memory == 1:
            assert any(r.certified for r in rows)


# (system, potential, an alpha the construction reaches, or None when every
# alpha is refused); golden_mem2 and full2_mem4 are recoded to memory 1, and
# {0: 0.3, 1: -0.2} is shifted by its nonzero minimum
INTERVAL_CASES = [
    ("full2", "zero", 0.45),
    ("golden", "golden_weighted", 0.3),
    ("golden", "golden_mem2", None),
    ("full2", "full2_mem4", None),
    ("full2", {(0,): 0.3, (1,): -0.2}, 0.5),
]


@pytest.mark.parametrize("system,potential,alpha", INTERVAL_CASES)
def test_construct_and_density_share_the_interval_of_the_potential_as_given(system, potential, alpha):
    """The floor and the pressure that construct tests alpha against and
    reports are pstar's and the oracle's on the input, bit for bit, and a
    sweep lays out its grid between the same two values."""
    sys_ = load_system(DATA / f"{system}.json")
    if isinstance(potential, dict):
        phi = Potential(sys_, 1, potential)
    else:
        phi = load_potential(sys_, DATA / f"{potential}.json")
    dec = trivial_decomposition()
    want = [pressure_floor(phi), pressure_oracle(phi).value]
    res = density_experiment(phi, dec, 1, 0.1)
    assert [res.floor, res.ceiling] == want
    with pytest.raises(InfeasibleError, match="strictly between") as info:
        construct_intermediate(phi, dec, want[1] + 1.0, 0.1)
    assert list(info.value.diagnostics[0][1:]) == want
    if alpha is not None:
        assert construct_intermediate(phi, dec, alpha, 0.1).params["pressure_interval"] == want


class TestPreparation:
    def test_refusal_kept_and_alpha_range_first(self, full2, monkeypatch):
        floors = []

        def no_floor(*args, **kwargs):
            floors.append(1)
            return construct_module.NEG_INF, None

        monkeypatch.setattr(construct_module, "_measure_partition_floor", no_floor)
        prep = construct_module.Preparation(Potential.zero(full2), trivial_decomposition())
        refusals = []
        for alpha in (0.3, 0.4):
            with pytest.raises(InfeasibleError, match="no affix cap") as info:
                prep.construct(alpha, 0.1)
            refusals.append(info.value)
        assert refusals[0] is refusals[1]
        assert len(floors) == len(construct_module.AFFIX_CAPS)
        with pytest.raises(InfeasibleError, match="strictly between"):
            prep.construct(0.8, 0.1)

    def test_class_weight_only_where_it_decides(self, monkeypatch):
        """full2 memory 4 with the cap-1 prefix run of 1s: no N up to the cap
        meets N > alpha*tau/eta, so the N search refuses without the class
        weight sum, which enumerates the class words at every N otherwise."""

        def forbidden(self, N):
            raise AssertionError(f"class weight sum taken at N = {N}")

        monkeypatch.setattr(construct_module.CoreWords, "log_total", forbidden)
        phi = load_potential(load_system(DATA / "full2.json"), DATA / "full2_mem4.json")
        prep = construct_module.Preparation(phi, prefix_run_decomposition(1, 1))
        with pytest.raises(InfeasibleError, match="no feasible word length"):
            prep.construct(1.04180860747, 0.1)


def reference_recoding(sys, phi):
    """The m-block system by its definition: blocks are the admissible
    m-words, u may precede v when v = u[1:] + (b,) is admissible, and block
    u carries phi(u)."""
    blocks = [tuple(int(s) for s in row) for row in word_matrix(sys, phi.memory)]
    index = {w: i for i, w in enumerate(blocks)}
    trans = np.zeros((len(blocks), len(blocks)), dtype=bool)
    for i, u in enumerate(blocks):
        for b in range(sys.alphabet_size):
            if sys.transitions[u[-1], b]:
                j = index.get(u[1:] + (b,))
                if j is not None:
                    trans[i, j] = True
    return blocks, trans, np.array([phi(w) for w in blocks])


class TestRecoding:
    @pytest.mark.parametrize("memory", [2, 3, 4])
    def test_lift_edges_match_block_definition(self, memory):
        from conftest import random_sft, random_potential

        for seed in range(10):
            rng = np.random.default_rng(seed)
            sys_ = random_sft(rng, int(rng.integers(2, 5)))
            phi = random_potential(rng, sys_, memory, -1.0, 2.0)
            phi_c, _, rec = construct_module._recode_memory_one(phi, trivial_decomposition())
            sys_c = phi_c.sys
            blocks, trans, values = reference_recoding(sys_, phi)
            assert [tuple(b) for b in rec.tolist()] == blocks
            assert np.array_equal(sys_c.transitions, trans)
            assert phi_c.memory == 1
            assert phi_c.values_flat.tobytes() == values.tobytes()

    @pytest.mark.parametrize("memory", [2, 3, 4])
    def test_projection_matches_per_word_decode(self, memory):
        """_project spells a recoded word matrix in the base alphabet as the
        per-word overlapping block decode does, and the recoded classes and
        split read the projected rows."""
        from conftest import random_sft, random_potential

        def decode(blocks, w):
            out = list(blocks[w[0]])
            for s in w[1:]:
                out.append(blocks[s][-1])
            return tuple(out)

        dec = prefix_run_decomposition(1, 2)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            sys_ = random_sft(rng, int(rng.integers(2, 5)))
            phi = random_potential(rng, sys_, memory, -1.0, 2.0)
            phi_c, dec_c, rec = construct_module._recode_memory_one(phi, dec)
            blocks = reference_recoding(sys_, phi)[0]
            assert dec_c.base is dec.base and dec_c.core_class is dec.core_class
            for length in range(1, 5):
                words = word_matrix(phi_c.sys, length)
                base = construct_module._project(rec, words)
                assert [tuple(row) for row in base.tolist()] == [decode(blocks, w) for w in words.tolist()]
                for n in range(length + 1):
                    assert np.array_equal(dec_c.prefix_class.batch(words, n), dec.prefix_class.batch(base, n))
                    assert np.array_equal(np.stack(dec_c.split(words, n)), np.stack(dec.split(base, n)))
