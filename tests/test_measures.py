import math
from pathlib import Path

import numpy as np
import pytest

from shiftpress import (
    Potential,
    ShiftSystem,
    load_potential,
    load_system,
    spectrum_sample,
    pressure_oracle,
    pressure_floor,
)
from shiftpress import measures
from shiftpress.measures import (
    _LiftChain, _cycle_edges, _cycle_means, _stationary, gibbs_chain, primitive_cycles,
)
from shiftpress.errors import StructuralError

import spectrum_reference as ref
from conftest import random_sft, random_potential

DATA = Path(__file__).parent / "data"


def cycle_tuples(sys, cap):
    """The cycles of primitive_cycles as tuples, in its order."""
    blocks, _ = primitive_cycles(sys, cap)
    return [tuple(row) for block in blocks for row in block.tolist()]


def bernoulli_chain(phi, probs):
    """The Bernoulli chain with symbol probabilities probs on the lift of a
    potential of memory <= 2, whose lift states are the symbols."""
    lift = phi.lift
    return _LiftChain(lift, np.asarray(probs, dtype=float)[lift.dst])


def cycle_mean(phi, cycle):
    lift = phi.lift
    return _cycle_means(lift, _cycle_edges(lift, np.array([cycle])))[0]


class TestMarkovEntropy:
    def test_uniform_bernoulli(self, full2):
        chain = bernoulli_chain(Potential.zero(full2), [0.5, 0.5])
        assert chain.entropy() == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate(self, full2):
        chain = bernoulli_chain(Potential.zero(full2), [1.0, 0.0])
        assert chain.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_biased_formula(self, full2):
        p = 0.25
        chain = bernoulli_chain(Potential.zero(full2), [p, 1 - p])
        direct = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert direct == pytest.approx(0.562335, abs=1e-6)
        assert chain.entropy() == pytest.approx(direct, abs=1e-12)


def _refined_stationary(Q):
    """Stationary vector of Q from the bordered system pi (Q - I) = 0,
    sum(pi) = 1, refined with residuals taken in longdouble."""
    V = len(Q)
    M = Q.T.astype(np.longdouble) - np.eye(V, dtype=np.longdouble)
    M[-1] = 1
    rhs = np.zeros(V, dtype=np.longdouble)
    rhs[-1] = 1
    x = np.linalg.solve(M.astype(float), rhs.astype(float)).astype(np.longdouble)
    for _ in range(3):
        x += np.linalg.solve(M.astype(float), (rhs - M @ x).astype(float))
    return x


class TestStationary:
    def test_rejects_two_recurrent_classes(self):
        with pytest.raises(StructuralError, match="not unique"):
            _stationary(np.eye(2))

    def test_lift_chains_solved_to_rounding(self, full2, monkeypatch):
        """The Gibbs and interpolated chains of a memory-4 potential (8 lift
        states) are invariant to 1e-14 and within 1e-13 of a refined solve."""
        interpolate = measures._interpolated_chains
        solved = []

        def record(gibbs, q_cycles, ts):
            if not solved:
                solved.append((gibbs.matrix(), gibbs.pi))
            q, pi = interpolate(gibbs, q_cycles, ts)
            lift = gibbs.lift
            for qg, pg in zip(q.reshape(-1, q.shape[-1]), pi.reshape(-1, pi.shape[-1])):
                Q = np.zeros_like(solved[0][0])
                Q[lift.src, lift.dst] = qg
                solved.append((Q, pg))
            return q, pi

        monkeypatch.setattr(measures, "_interpolated_chains", record)
        phi = random_potential(np.random.default_rng(5), full2, 4)
        spectrum_sample(phi, cycle_cap=4, grid=6)
        # the Gibbs chain and 5 grid points toward each of the 8 cycles
        assert len(solved) == 1 + 8 * 5
        for Q, pi in solved:
            assert Q.shape == (8, 8)
            assert np.abs(pi @ Q - pi).max() <= 1e-14
            assert np.abs(pi - _refined_stationary(Q)).max() <= 1e-13

    def test_near_deterministic_chains_refined(self):
        """Grid points up to t = 0.9996 on a 78-state lift: every
        interpolated chain is within 1e-14 of a refined solve, which the
        rank-s update alone misses by up to 3e-14. The cycles are solved in
        one batch per number of visited lift states."""
        rng = np.random.default_rng(2)
        sys = random_sft(rng, 5)
        phi = random_potential(rng, sys, 4, 0.0, 3.0)
        gibbs = gibbs_chain(phi, pressure_oracle(phi))
        lift = gibbs.lift
        cycles = cycle_tuples(sys, 3)
        ts = 1.0 - (1.0 - np.arange(1, 50) / 50) ** 2
        assert lift.n_states == 78 and len(cycles) * len(ts) == 1372
        q_cycles = measures._normalized(lift, np.array([ref.cycle_lift_counts(lift, w) for w in cycles]))
        visits = np.array([len(set(lift.src[q > 0].tolist())) for q in q_cycles])
        assert set(visits.tolist()) == {1, 2, 3}
        for s in (1, 2, 3):
            q, pi = measures._interpolated_chains(gibbs, q_cycles[visits == s], ts)
            for qg, pg in zip(q.reshape(-1, q.shape[-1]), pi.reshape(-1, 78)):
                Q = np.zeros((78, 78))
                Q[lift.src, lift.dst] = qg
                assert np.abs(pg - _refined_stationary(Q)).max() <= 1e-14


def reference_cycle_mean(phi, cycle):
    """The cycle mean as it was taken before it was read from the lift
    edges: phi on each of the p windows of the periodic word, summed
    exactly."""
    p = len(cycle)
    ext = cycle * (1 + (phi.memory + p - 2) // p)
    return math.fsum(phi(ext[k:]) for k in range(p)) / p


def _data_input(system, potential):
    sys_ = load_system(DATA / f"{system}.json")
    return sys_, load_potential(sys_, DATA / f"{potential}.json"), 8


def _random_lift():
    """A 6-symbol system with a memory-5 potential: a lift of about 400 states."""
    rng = np.random.default_rng(0)
    sys_ = random_sft(rng, 6)
    return sys_, random_potential(rng, sys_, 5), 3


class TestMeasurePressure:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _data_input("full2", "zero"),
            lambda: _data_input("full2", "full2_mem4"),
            lambda: _data_input("golden", "golden_mem2"),
            lambda: _data_input("golden", "golden_weighted"),
            _random_lift,
        ],
        ids=["full2-zero", "full2-full2_mem4", "golden-golden_mem2", "golden-golden_weighted", "random-lift"],
    )
    def test_cycle_mean_matches_window_sum(self, make):
        sys_, phi, cap = make()
        assert primitive_cycles(sys_, cap)[1] is None
        cycles = cycle_tuples(sys_, cap)
        assert cycles
        want = {c: reference_cycle_mean(phi, c) for c in cycles}
        for c in cycles:
            got = cycle_mean(phi, c)
            assert type(got) is float
            assert got == want[c], c
        entries = spectrum_sample(phi, cycle_cap=cap, grid=2).entries
        got = {e.parameter: e.pressure for e in entries if e.kind == "cycle"}
        assert got == {"".join(map(str, c)): v for c, v in want.items()}

    def test_uniform_is_topological_entropy(self, full2):
        chain = bernoulli_chain(Potential.zero(full2), [0.5, 0.5])
        assert chain.entropy() + chain.integral() == pytest.approx(math.log(2), abs=1e-12)

    def test_fixed_point_attains_floor(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, 1.0])
        assert cycle_mean(phi, (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_cycle_with_memory2(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.2, (0, 1): 1.0, (1, 0): -0.4})
        # windows around the cycle: 01 and 10
        assert cycle_mean(phi, (0, 1)) == pytest.approx((1.0 - 0.4) / 2, abs=1e-12)

    def test_parry_matches_oracle(self, golden):
        phi = Potential.zero(golden)
        chain = gibbs_chain(phi, pressure_oracle(phi))
        assert chain.entropy() + chain.integral() == pytest.approx(pressure_oracle(phi).value, abs=1e-9)

    def test_wide_spread_gibbs_chain_matches_oracle(self, full2):
        # exp(0 - 1000) underflows, but the log right vector holds -1000 off the state 0
        phi = Potential(full2, 2, {(0, 0): 1000.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
        oracle = pressure_oracle(phi)
        chain = gibbs_chain(phi, oracle)
        assert chain.entropy() + chain.integral() == pytest.approx(oracle.value, abs=1e-9)

    def test_markov_cylinder_integral(self, full2):
        # memory-2 potential integrated through cylinder probabilities
        phi = Potential(full2, 2, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
        chain = bernoulli_chain(phi, [0.25, 0.75])
        assert chain.integral() == pytest.approx(0.25 * 0.25, abs=1e-12)
        zero = bernoulli_chain(Potential.zero(full2), [0.25, 0.75])
        assert chain.entropy() + chain.integral() == pytest.approx(zero.entropy() + 0.25 * 0.25, abs=1e-12)


class TestPrimitiveCycles:
    def test_full2_counts(self, full2):
        blocks, truncated = primitive_cycles(full2, 4)
        assert truncated is None
        # necklace counts over 2 symbols: 2, 1, 2, 3
        assert [block.shape for block in blocks] == [(2, 1), (1, 2), (2, 3), (3, 4)]

    def test_golden_excludes_forbidden(self, golden):
        cycles = cycle_tuples(golden, 3)
        assert (1,) not in cycles
        assert (0,) in cycles and (0, 1) in cycles

    @pytest.mark.parametrize("name", ["full2", "full3", "golden", "cycle3", *(f"random{k}" for k in range(10))])
    def test_matches_rotation_lists(self, request, name):
        """Every cap from 1 to 12 gives the cycles of the rotation-list
        reference, in its order."""
        if name.startswith("random"):
            rng = np.random.default_rng(int(name[6:]))
            sys = random_sft(rng, int(rng.integers(2, 4)))
        else:
            sys = request.getfixturevalue(name)
        want, truncated = ref.primitive_cycles(sys, 12)
        assert truncated is None
        for cap in range(1, 13):
            assert cycle_tuples(sys, cap) == [w for w in want if len(w) <= cap], cap

    def test_many_symbols(self):
        """44 symbols at length 12, where base-44 codes overflow int64: a ring
        i -> i + 1 with chords i -> i - 7 and i -> i - 4 from some symbols."""
        A = 44
        T = np.zeros((A, A), dtype=bool)
        ring = np.arange(A)
        T[ring, (ring + 1) % A] = True
        T[ring[::3], (ring[::3] - 7) % A] = True
        T[ring[1::4], (ring[1::4] - 4) % A] = True
        sys = ShiftSystem(T)
        want, _ = ref.primitive_cycles(sys, 12)
        assert A ** 12 > np.iinfo(np.int64).max
        assert max(max(w) for w in want) >= 39 and {len(w) for w in want} == {5, 8, 10, 11, 12}
        assert cycle_tuples(sys, 12) == want

    def test_budget_truncates_at_the_same_length(self, full3):
        blocks, truncated = primitive_cycles(full3, 12, budget=100)
        want, want_truncated = ref.primitive_cycles(full3, 12, budget=100)
        assert truncated == want_truncated == 5
        assert [tuple(row) for block in blocks for row in block.tolist()] == want


class TestSpectrum:
    def test_variational_inequality_randomized(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            sys = random_sft(rng, int(rng.integers(2, 4)))
            phi = random_potential(rng, sys, 1)
            res = spectrum_sample(phi, cycle_cap=5, grid=6)
            ceiling = pressure_oracle(phi).value
            assert all(e.pressure <= ceiling + 1e-9 for e in res.entries)

    def test_gibbs_attains_pressure_memory1(self, full2, golden):
        for sys in (full2, golden):
            rng = np.random.default_rng(17)
            phi = random_potential(rng, sys, 1)
            res = spectrum_sample(phi, cycle_cap=3, grid=4)
            ceiling = pressure_oracle(phi).value
            assert max(e.pressure for e in res.entries) == pytest.approx(ceiling, abs=1e-9)

    def test_memory2_lift_attainment(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.1, (0, 1): 0.8, (1, 0): 0.2})
        res = spectrum_sample(phi, cycle_cap=4, grid=6)
        ceiling = pressure_oracle(phi).value
        assert max(e.pressure for e in res.entries) <= ceiling + 1e-9
        assert max(e.pressure for e in res.entries) >= ceiling - 0.02

    def test_memory3_lift_attainment(self, golden, full2):
        """Multi-symbol lift states: the Gibbs chain on the memory-3 lift
        attains the oracle pressure."""
        rng = np.random.default_rng(23)
        for sys in (golden, full2):
            phi = random_potential(rng, sys, 3)
            oracle = pressure_oracle(phi)
            ceiling = oracle.value
            chain = gibbs_chain(phi, oracle)
            assert chain.entropy() + chain.integral() == pytest.approx(ceiling, abs=1e-9)
            res = spectrum_sample(phi, cycle_cap=4, grid=4)
            assert max(e.pressure for e in res.entries) == pytest.approx(ceiling, abs=1e-9)

    def test_cycle_floor_sandwich(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, 1.0])
        res = spectrum_sample(phi, cycle_cap=6, grid=4)
        cycle_vals = [e.pressure for e in res.entries if e.kind == "cycle"]
        floor = pressure_floor(phi)
        assert min(cycle_vals) <= floor <= max(cycle_vals) + 1e-12
        assert max(cycle_vals) == pytest.approx(floor, abs=1e-12)

    def test_density_gap_small(self, full2):
        res = spectrum_sample(Potential.zero(full2), cycle_cap=10, grid=50)
        assert res.max_gap < 0.05
        assert res.floor == pytest.approx(0.0, abs=1e-12)
        assert res.ceiling == pytest.approx(math.log(2), abs=1e-9)

    def test_measure_budget_across_the_batch(self, full2, monkeypatch):
        """A budget ending on a cycle entry, inside a cycle's grid and at
        its end keeps the first entries in generation order, unchanged."""
        phi = random_potential(np.random.default_rng(5), full2, 4)
        whole = spectrum_sample(phi, cycle_cap=4, grid=6)
        by_key = {(e.kind, e.parameter): e for e in whole.entries}
        order = [("gibbs", "")]
        for w in cycle_tuples(full2, 4):
            name = "".join(map(str, w))
            grid = sorted(
                (key for key in by_key if key[1].startswith(name + ":")),
                key=lambda key: float(key[1].split(":")[1]),
            )
            order += [("cycle", name), *grid]
        assert len(order) == len(by_key) == 1 + 8 * 6
        # gibbs, then 0 and its 5 grid points, then 1 and its grid points
        for k, stage in ((8, "cycle sweep"), (10, "interpolation"), (13, "interpolation")):
            monkeypatch.setattr(measures, "MAX_MEASURES", k)
            res = spectrum_sample(phi, cycle_cap=4, grid=6)
            assert len(res.entries) == k and res.partial
            assert res.notes == [f"measure count budget reached during {stage}"]
            assert {(e.kind, e.parameter) for e in res.entries} == set(order[:k])
            for e in res.entries:
                assert e == by_key[(e.kind, e.parameter)]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_small_measure_budget_is_kept(self, full2, monkeypatch, k):
        """A budget below the Gibbs entry plus one cycle entry is not
        overshot: the Gibbs entry and the first cycle count against it."""
        whole = spectrum_sample(Potential.zero(full2), cycle_cap=3, grid=4)
        monkeypatch.setattr(measures, "MAX_MEASURES", k)
        res = spectrum_sample(Potential.zero(full2), cycle_cap=3, grid=4)
        assert len(res.entries) <= k and res.partial
        first_cycle = "".join(map(str, cycle_tuples(full2, 3)[0]))
        expected = [("gibbs", ""), ("cycle", first_cycle)][:k]
        assert sorted((e.kind, e.parameter) for e in res.entries) == sorted(expected)
        assert all(e in whole.entries for e in res.entries)

    def test_budget_flags_partial(self, full3):
        res = spectrum_sample(Potential.zero(full3), cycle_cap=12, grid=3, budget=100)
        assert res.partial


SNAPSHOT_INPUTS = [("full2", "zero", 6, 6), ("golden", "golden_mem2", 6, 6), ("full2", "full2_mem4", 4, 50)]


class TestPerCycleRoute:
    """The batched spectrum against the per-cycle reference route."""

    @pytest.mark.parametrize("system,potential,cap,grid", SNAPSHOT_INPUTS,
                             ids=[f"{s}-{p}" for s, p, _, _ in SNAPSHOT_INPUTS])
    def test_snapshot_inputs_bitwise(self, system, potential, cap, grid):
        _, phi, _ = _data_input(system, potential)
        res = spectrum_sample(phi, cycle_cap=cap, grid=grid)
        want, partial, notes = ref.spectrum_entries(phi, cap, grid)
        assert list(map(tuple, res.entries)) == want
        assert (res.partial, res.notes) == (partial, notes)

    @pytest.mark.parametrize("chunk", [1, 500, 1 << 20])
    def test_chunk_size_does_not_change_entries(self, monkeypatch, chunk):
        """One cycle per batch, several batches per group, one batch per group."""
        _, phi, _ = _data_input("golden", "golden_mem2")
        want, _, _ = ref.spectrum_entries(phi, 8, 20)
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        assert list(map(tuple, spectrum_sample(phi, cycle_cap=8, grid=20).entries)) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_random_inputs_within_1e15(self, seed):
        rng = np.random.default_rng(100 + seed)
        sys = random_sft(rng, int(rng.integers(2, 6)))
        phi = random_potential(rng, sys, int(rng.integers(1, 4)))
        res = spectrum_sample(phi, cycle_cap=5, grid=8)
        want, _, _ = ref.spectrum_entries(phi, 5, 8)
        assert [tuple(e)[:2] for e in res.entries] == [w[:2] for w in want]
        assert max(abs(a - b) for e, w in zip(res.entries, want) for a, b in zip(tuple(e)[2:], w[2:])) <= 1e-15

    def test_cut_in_a_later_group(self, monkeypatch):
        """On a 400-state lift the cycles visit 1, 2 or 3 lift states, one
        batch each. A budget cut inside the 2- and 3-state batches keeps the
        reference entries, and no cycle past the cut is solved."""
        sys_, phi, cap = _random_lift()
        solve = measures._interpolated_chains
        solved = []

        def count(gibbs, q_cycles, ts):
            solved.append(len(q_cycles))
            return solve(gibbs, q_cycles, ts)

        monkeypatch.setattr(measures, "_interpolated_chains", count)
        lengths = [len(w) for w in cycle_tuples(sys_, cap)]
        assert lengths.index(2) < lengths.index(3) < len(lengths)
        per = 4  # a cycle entry and its 3 grid points
        for k in (lengths.index(2) + 3, lengths.index(3) + 1):
            for budget in (1 + k * per + 1, 1 + k * per + 3):
                solved.clear()
                monkeypatch.setattr(measures, "MAX_MEASURES", budget)
                res = spectrum_sample(phi, cycle_cap=cap, grid=per)
                want, partial, notes = ref.spectrum_entries(phi, cap, per, max_measures=budget)
                assert list(map(tuple, res.entries)) == want
                assert (res.partial, res.notes) == (partial, notes) and partial
                # cycle k's entry is kept; its grid points only with room after it
                assert sum(solved) == k + (budget > 1 + k * per + 1)

    @pytest.mark.parametrize(
        "system,potential,cap,grid",
        [("full2", "zero", 6, 1), ("full2", "full2_mem4", 4, 1), ("full2", "zero", 0, 6),
         ("golden", "golden_mem2", 0, 6), ("golden", "golden_mem2", 6, 6), ("golden", "golden_mem2", 6, 50)],
    )
    def test_cli_rows_match(self, tmp_path, system, potential, cap, grid):
        """The CSV rows and the partial flag of `spectrum`, as the per-cycle
        route and the per-value writer print them."""
        from shiftpress.cli import main

        _, phi, _ = _data_input(system, potential)
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--system", str(DATA / f"{system}.json"),
                     "--potential", str(DATA / f"{potential}.json"),
                     "--cycle-cap", str(cap), "--grid", str(grid), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = lines[lines.index("kind,parameter,entropy,integral,pressure") + 1:]
        want, partial, _ = ref.spectrum_entries(phi, cap, grid)
        assert rows == ref.csv_rows(want)
        assert f"# partial: {ref._fmt(partial)}" in lines
