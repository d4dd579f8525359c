"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run pytest -s to see them stream)."""

import itertools
import json
import math

import numpy as np

from shiftpress import (
    ShiftSystem,
    Potential,
    Resolution,
    all_segments,
    pressure_enumerate,
    pressure_oracle,
    pressure_floor,
    spectrum_sample,
    check_gluing,
    glue_words,
    build_glued,
    trivial_decomposition,
    construct_intermediate,
    verify_counting_bound,
    density_experiment,
)
from shiftpress.core import word_matrix
from shiftpress.cli import main as cli_main

from conftest import random_sft, random_potential
from test_thermo import simple_cycle_max_mean

GOLDEN_PRESSURE = math.log((1 + math.sqrt(5)) / 2)


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS  [{detail}]")


def test_criterion_01_oracle_correctness():
    cases = [
        (ShiftSystem.full_shift(2), math.log(2)),
        (ShiftSystem.full_shift(3), math.log(3)),
        (ShiftSystem.golden_mean(), GOLDEN_PRESSURE),
    ]
    worst = 0.0
    for sys, expected in cases:
        got = pressure_oracle(Potential.zero(sys)).value
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) < 1e-9
    report(1, f"oracle vs closed-form eigenvalues, worst gap {worst:.2e} < 1e-9")


def test_criterion_02_estimator_convergence():
    systems = [
        (ShiftSystem.full_shift(2), Potential.zero(ShiftSystem.full_shift(2))),
        (ShiftSystem.full_shift(3), Potential.zero(ShiftSystem.full_shift(3))),
        (ShiftSystem.golden_mean(), Potential.zero(ShiftSystem.golden_mean())),
    ]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sys = random_sft(rng, int(rng.integers(2, 5)))
        phi = random_potential(rng, sys, int(rng.integers(1, 3)))
        systems.append((sys, phi))
    worst = 0.0
    for sys, phi in systems:
        enum = pressure_enumerate(phi, all_segments(), Resolution(1), None, (2, 20)).value
        oracle = pressure_oracle(phi).value
        worst = max(worst, abs(enum - oracle))
        assert abs(enum - oracle) < 0.05
    report(2, f"23 systems, worst |enumeration - oracle| = {worst:.4f} < 0.05")


def test_criterion_03_pressure_floor_vs_cycle_enumeration():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        sys = random_sft(rng, int(rng.integers(2, 7)), density=0.55)
        phi = random_potential(rng, sys, 1)
        karp = pressure_floor(phi)
        brute = simple_cycle_max_mean(sys, phi)
        worst = max(worst, abs(karp - brute))
        assert abs(karp - brute) < 1e-12
    report(3, f"50 digraphs <= 6 vertices, worst |karp - cycle enumeration| = {worst:.2e}")


def test_criterion_04_variational_principle():
    checks = []
    full2 = ShiftSystem.full_shift(2)
    golden = ShiftSystem.golden_mean()
    checks.append((full2, Potential.zero(full2)))
    checks.append((full2, Potential.from_symbol_values(full2, [0.0, 1.0])))
    rng = np.random.default_rng(42)
    checks.append((golden, random_potential(rng, golden, 1)))
    checks.append((random_sft(rng, 3), None))
    worst_over = -math.inf
    worst_attain = math.inf
    for sys, phi in checks:
        if phi is None:
            phi = random_potential(rng, sys, 1)
        res = spectrum_sample(phi, cycle_cap=6, grid=8)
        ceiling = pressure_oracle(phi).value
        for e in res.entries:
            assert e.pressure <= ceiling + 1e-9
            worst_over = max(worst_over, e.pressure - ceiling)
        best = max(e.pressure for e in res.entries)
        assert abs(best - ceiling) < 1e-9  # memory-1 Gibbs chain attains it
        worst_attain = min(worst_attain, best - ceiling)
    report(4, f"all sampled pressures <= P + 1e-9 (max excess {worst_over:.2e}); Gibbs attains P within 1e-9")


def test_criterion_05_construction_sandwich():
    full2 = ShiftSystem.full_shift(2)
    phi = Potential.zero(full2)
    dec = trivial_decomposition()
    gaps = []
    for alpha in (0.2, 0.35, 0.5, 0.6):
        res = construct_intermediate(phi, dec, alpha, 0.1)
        assert res.certified
        assert abs(res.params["pressure"] - alpha) < 0.1
        assert res.lower.value >= alpha - 0.1
        assert res.upper.value <= alpha + 0.1
        gaps.append(res.params["gap"])
    report(5, f"alpha in {{0.2,0.35,0.5,0.6}} all certified, gaps {['%.4f' % g for g in gaps]} < 0.1")


def test_criterion_06_density_sweep():
    full2 = ShiftSystem.full_shift(2)
    golden = ShiftSystem.golden_mean()
    dec = trivial_decomposition()
    summaries = []
    for sys, phi in (
        (full2, Potential.zero(full2)),
        (golden, Potential.from_symbol_values(golden, [0.0, 0.1])),
    ):
        res = density_experiment(phi, dec, 8, 0.1)
        certified = sum(r.certified for r in res.rows)
        assert certified >= 7
        worst = max(r.gap for r in res.rows if r.certified)
        assert worst < 0.1
        summaries.append(f"{certified}/8 certified, max gap {worst:.4f}")
    report(6, "; ".join(summaries))


def test_criterion_07_counting_bound():
    full2 = ShiftSystem.full_shift(2)
    golden = ShiftSystem.golden_mean()
    dec = trivial_decomposition()
    built = [
        construct_intermediate(Potential.zero(full2), dec, 0.1, 0.1),
        construct_intermediate(
            Potential.from_symbol_values(golden, [0.0, 0.1]), dec, 0.15, 0.1
        ),
    ]
    total = 0
    for res in built:
        for n in (3, 4, 5):
            check = verify_counting_bound(
                res.subsystem, n, Resolution(7), eta=res.params["eta"]
            )
            assert check.ok
            total += check.classes_checked
    report(7, f"2 constructions x n in {{3,4,5}}, {total} cylinder classes all within the gap-choice bound")


def test_criterion_08_tracing_and_separation():
    golden = ShiftSystem.golden_mean()
    pool = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    N, tau = 3, check_gluing(golden, all_segments())
    traced = 0
    separated = 0
    for n in (1, 2, 3):
        for seq in itertools.product(pool, repeat=n):
            glued, times, _ = glue_words(golden, list(seq))
            for w, t in zip(seq, times):
                assert glued[t : t + N] == w  # exact prefix tracing, distance 0
            traced += 1
        for seq_a in itertools.product(pool, repeat=n):
            for seq_b in itertools.product(pool, repeat=n):
                if seq_a[-1] == seq_b[-1]:
                    continue
                za, ta, _ = glue_words(golden, list(seq_a))
                zb, tb, _ = glue_words(golden, list(seq_b))
                if ta[-1] != tb[-1]:
                    continue
                assert za[: n * (N + tau)] != zb[: n * (N + tau)]
                separated += 1
    report(8, f"{traced} glued sequences traced exactly; {separated} aligned pairs separated in the window")


def test_criterion_09_degenerate_selections():
    full2 = ShiftSystem.full_shift(2)
    phi = Potential.from_symbol_values(full2, [0.1, 0.7])
    single = build_glued(phi, [(0, 1, 1, 0)])
    v1, _, _ = single.log_pressure()
    expected = (0.1 + 0.7 + 0.7 + 0.1) / 4
    assert abs(v1 - expected) < 1e-9
    everything = build_glued(phi, word_matrix(full2, 4))
    v2, _, _ = everything.log_pressure()
    full_pressure = pressure_oracle(phi).value
    assert abs(v2 - full_pressure) < 1e-9
    report(9, f"single word: |P - mean| = {abs(v1-expected):.2e}; all words: |P - P(phi)| = {abs(v2-full_pressure):.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    sys_file = tmp_path / "full2.json"
    sys_file.write_text(json.dumps({"alphabet": 2, "full": True}))
    phi_file = tmp_path / "zero.json"
    phi_file.write_text(json.dumps({"memory": 1, "table": {"0": 0.0, "1": 0.0}}))
    argv = [
        "density", "--system", str(sys_file), "--potential", str(phi_file),
        "--grid", "3", "--eta0", "0.1",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main([*argv, "--out", str(out1)]) == 0
    assert cli_main([*argv, "--out", str(out2)]) == 0
    keep = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# wallclock")]
    assert keep(out1) == keep(out2)
    assert out1.read_text().splitlines()[0].startswith("# version")
    report(10, "density CSV byte-identical across reruns modulo the wall-clock header")
