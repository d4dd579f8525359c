"""Spectrum, verify-bounds, density and construct artifacts on canonical
inputs, rerun and compared with the snapshots stored in tests/data.

A snapshot is the CLI output for its inputs; regenerate one from the root
of the repository with, for example,

    PYTHONPATH=src python -m shiftpress.cli spectrum \
        --system tests/data/full2.json --potential tests/data/zero.json \
        --cycle-cap 6 --grid 6 --out tests/data/spectrum_full2_zero.csv

    PYTHONPATH=src python -m shiftpress.cli spectrum \
        --system tests/data/golden.json --potential tests/data/golden_mem2.json \
        --cycle-cap 6 --grid 6 --out tests/data/spectrum_golden_mem2.csv

    PYTHONPATH=src python -m shiftpress.cli spectrum \
        --system tests/data/full2.json --potential tests/data/full2_mem4.json \
        --cycle-cap 4 --grid 50 --out tests/data/spectrum_full2_mem4.csv

    PYTHONPATH=src python -m shiftpress.cli verify-bounds \
        --system tests/data/full2.json --potential tests/data/zero.json \
        --alpha 0.12 --eta0 0.1 --n-list 3,4,5 \
        --out tests/data/verify_bounds_full2_zero.json

    PYTHONPATH=src python -m shiftpress.cli verify-bounds \
        --system tests/data/golden.json --potential tests/data/golden_weighted.json \
        --alpha 0.15 --eta0 0.1 --n-list 3,4,5 \
        --out tests/data/verify_bounds_golden_weighted.json

    PYTHONPATH=src python -m shiftpress.cli verify-bounds \
        --system tests/data/tau2.json --potential tests/data/tau2_phi.json \
        --alpha 0.15 --eta0 0.1 --n-list 3,4,5 \
        --out tests/data/verify_bounds_tau2.json

    PYTHONPATH=src python -m shiftpress.cli density \
        --system tests/data/full2.json --potential tests/data/zero.json \
        --grid 8 --eta0 0.1 --out tests/data/density_full2_zero.csv

    PYTHONPATH=src python -m shiftpress.cli density \
        --system tests/data/golden.json --potential tests/data/golden_weighted.json \
        --grid 3 --eta0 0.1 --out tests/data/density_golden_weighted.csv

    PYTHONPATH=src python -m shiftpress.cli density \
        --system tests/data/golden.json --potential tests/data/golden_mem2.json \
        --grid 3 --eta0 0.1 --out tests/data/density_golden_mem2.csv

    PYTHONPATH=src python -m shiftpress.cli density \
        --system tests/data/golden.json --potential tests/data/golden_weighted.json \
        --grid 3 --eta0 0.1 --decomposition tests/data/prefix_run.json \
        --out tests/data/density_golden_prefix_run.csv

    PYTHONPATH=src python -m shiftpress.cli construct \
        --system tests/data/full2.json --potential tests/data/zero.json \
        --alpha 0.45 --eta0 0.1 --out tests/data/construct_full2_zero.json

    PYTHONPATH=src python -m shiftpress.cli construct \
        --system tests/data/golden.json --potential tests/data/golden_weighted.json \
        --alpha 0.3 --eta0 0.1 --out tests/data/construct_golden_weighted.json

    PYTHONPATH=src python -m shiftpress.cli construct \
        --system tests/data/golden.json --potential tests/data/golden_weighted.json \
        --alpha 0.3 --eta0 0.1 --decomposition tests/data/prefix_run.json \
        --out tests/data/construct_golden_prefix_run.json

    PYTHONPATH=src python -m shiftpress.cli construct \
        --system tests/data/tau2.json --potential tests/data/tau2_phi.json \
        --alpha 0.15 --eta0 0.1 --out tests/data/construct_tau2.json

The pressure, entropy, pstar and check artifacts of the cases in
THERMO_CASES are kept together in tests/data/thermo_cli_snapshots.json, each
with its exit code; regenerate that file from the root of the repository with

    PYTHONPATH=src python tests/test_snapshots.py

Those cases must reproduce the exit code and every line of the artifact
but the wall clock.

In the other snapshots the header's version and wall clock are not
compared, and its configuration hash must equal the rerun's: a snapshot
names the options and input contents of the command above that regenerates
it. In a spectrum artifact the stats lines and the rows must agree line for
line, in file order: kind and parameter exactly, numbers within 1e-12,
compared as the printed decimals. Verify-bounds, density and construct artifacts must agree
exactly: the construction is deterministic, so every printed number is
reproduced to the last digit. Every JSON artifact, snapshot or rerun, must
be strict JSON: NaN and Infinity are not JSON, and a constant of that kind
fails the case.
"""

import json
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest

from shiftpress.cli import main

DATA = Path(__file__).parent / "data"
HEADER = ("version", "config_hash", "wallclock")


def _parse(text):
    """(stats, rows): the '# key: value' lines after the header, and the
    CSV lines, column names included, in file order, split at the commas."""
    stats, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            stats[key] = value
        else:
            rows.append(line.split(","))
    for key in HEADER:
        del stats[key]
    return stats, rows


def _csv_config_hash(path):
    return next(line for line in path.read_text().splitlines() if line.startswith("# config_hash: "))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text):
    return json.loads(text, parse_constant=_refuse_constant)


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return abs(Decimal(a) - Decimal(b)) <= Decimal("1e-12")
    except InvalidOperation:
        return False


SPECTRUM_CASES = [
    ("full2", "zero", "6", "6", "spectrum_full2_zero.csv"),
    ("golden", "golden_mem2", "6", "6", "spectrum_golden_mem2.csv"),
    # grid points up to t = 0.9996, next to the deterministic cycle chains
    ("full2", "full2_mem4", "4", "50", "spectrum_full2_mem4.csv"),
]


@pytest.mark.parametrize(
    "system,potential,cap,grid,snapshot",
    SPECTRUM_CASES,
    ids=[f"{system}-{potential}-{snapshot}" for system, potential, _, _, snapshot in SPECTRUM_CASES],
)
def test_spectrum_snapshot(tmp_path, system, potential, cap, grid, snapshot):
    out = tmp_path / snapshot
    code = main([
        "spectrum", "--system", str(DATA / f"{system}.json"),
        "--potential", str(DATA / f"{potential}.json"),
        "--cycle-cap", cap, "--grid", grid, "--out", str(out),
    ])
    assert code == 0
    assert _csv_config_hash(out) == _csv_config_hash(DATA / snapshot)
    stats, rows = _parse(out.read_text())
    want_stats, want_rows = _parse((DATA / snapshot).read_text())
    assert list(stats) == list(want_stats)
    for key, want in want_stats.items():
        assert _close(stats[key], want), (key, stats[key], want)
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert row[:2] == want[:2] and len(row) == len(want) and all(map(_close, row[2:], want[2:])), (row, want)


@pytest.mark.parametrize(
    "system,potential,alpha,snapshot",
    [
        ("full2", "zero", "0.12", "verify_bounds_full2_zero.json"),
        # tau = 1 on the golden mean shift, so the gaps between words vary
        ("golden", "golden_weighted", "0.15", "verify_bounds_golden_weighted.json"),
        # connectors of length 0, 1 and 2
        ("tau2", "tau2_phi", "0.15", "verify_bounds_tau2.json"),
    ],
)
def test_verify_bounds_snapshot(tmp_path, system, potential, alpha, snapshot):
    out = tmp_path / snapshot
    code = main([
        "verify-bounds", "--system", str(DATA / f"{system}.json"),
        "--potential", str(DATA / f"{potential}.json"),
        "--alpha", alpha, "--eta0", "0.1", "--n-list", "3,4,5", "--out", str(out),
    ])
    assert code == 0
    got, want = (_strict_json(p.read_text()) for p in (out, DATA / snapshot))
    assert got["header"]["config_hash"] == want["header"]["config_hash"]
    del got["header"], want["header"]
    assert got == want


DENSITY_CASES = [
    ("full2", "zero", "8", None, "density_full2_zero.csv"),
    # N differs between the alpha values
    ("golden", "golden_weighted", "3", None, "density_golden_weighted.csv"),
    # recoded to memory 1; every row is refused
    ("golden", "golden_mem2", "3", None, "density_golden_mem2.csv"),
    # affix classes with no segments longer than 2: the structure check passes
    ("golden", "golden_weighted", "3", "prefix_run", "density_golden_prefix_run.csv"),
]


@pytest.mark.parametrize(
    "system,potential,grid,decomposition,snapshot", DENSITY_CASES,
    ids=["-".join(filter(None, case)) for case in DENSITY_CASES],
)
def test_density_snapshot(tmp_path, system, potential, grid, decomposition, snapshot):
    out = tmp_path / snapshot
    extra = ["--decomposition", str(DATA / f"{decomposition}.json")] if decomposition else []
    code = main([
        "density", "--system", str(DATA / f"{system}.json"),
        "--potential", str(DATA / f"{potential}.json"),
        "--grid", grid, "--eta0", "0.1", *extra, "--out", str(out),
    ])
    assert code == 0
    assert _csv_config_hash(out) == _csv_config_hash(DATA / snapshot)
    header = tuple(f"# {key}: " for key in HEADER)
    got, want = (
        [line for line in p.read_text().splitlines() if not line.startswith(header)]
        for p in (out, DATA / snapshot)
    )
    assert got == want


CONSTRUCT_CASES = [
    ("full2", "zero", "0.45", None, "construct_full2_zero.json"),
    ("golden", "golden_weighted", "0.3", None, "construct_golden_weighted.json"),
    # a prefix-run decomposition: generic (predicate-only) core classes
    ("golden", "golden_weighted", "0.3", "prefix_run", "construct_golden_prefix_run.json"),
    # tau 2: an explicit presentation with connector chains of length 1 and 2
    ("tau2", "tau2_phi", "0.15", None, "construct_tau2.json"),
]


@pytest.mark.parametrize(
    "system,potential,alpha,decomposition,snapshot", CONSTRUCT_CASES,
    ids=["-".join(filter(None, case)) for case in CONSTRUCT_CASES],
)
def test_construct_snapshot(tmp_path, system, potential, alpha, decomposition, snapshot):
    out = tmp_path / snapshot
    extra = ["--decomposition", str(DATA / f"{decomposition}.json")] if decomposition else []
    code = main([
        "construct", "--system", str(DATA / f"{system}.json"),
        "--potential", str(DATA / f"{potential}.json"),
        "--alpha", alpha, "--eta0", "0.1", *extra, "--out", str(out),
    ])
    assert code == 0
    got, want = (_strict_json(p.read_text()) for p in (out, DATA / snapshot))
    assert got["header"]["config_hash"] == want["header"]["config_hash"]
    del got["header"], want["header"]
    assert got == want


@pytest.mark.parametrize("snapshot", [case[-1] for case in CONSTRUCT_CASES])
def test_construct_snapshot_verdicts_follow_their_names(snapshot):
    """Each inequality row prints one operator, ` < ` or ` > `, in its name,
    and its ok is lhs compared with rhs by that operator."""
    rows = _strict_json((DATA / snapshot).read_text())["inequalities"]
    assert rows
    for row in rows:
        less, more = (row["name"].count(op) for op in (" < ", " > "))
        assert less + more == 1, row
        lhs, rhs = row["lhs"], row["rhs"]
        assert row["ok"] == (lhs < rhs if less else lhs > rhs), row


THERMO_SNAPSHOTS = DATA / "thermo_cli_snapshots.json"
PAIRS = [
    ("full2.json", "zero.json"),
    ("golden.json", "golden_weighted.json"),
    ("golden.json", "golden_mem2.json"),
    ("full2.json", "full2_mem4.json"),
]
THERMO_CASES = (
    [["pressure", "--system", s, "--potential", p] for s, p in PAIRS]
    + [["entropy", "--system", s] for s in ("full2.json", "golden.json")]
    + [["pstar", "--system", s, "--potential", p] for s, p in PAIRS]
    + [["check", "--system", s, "--potential", p] for s, p in PAIRS]
    + [["check", "--system", "golden.json", "--potential", "golden_weighted.json",
        "--decomposition", "prefix_run.json"]]
    # memory 5 above the 3*gamma level 4: bowen_on_core from the closed form
    + [["check", "--system", "golden.json", "--potential", "golden_mem5.json"]]
    # the one input with tau = 2: pins the gate's "tau" and "n0" details
    + [["check", "--system", "tau2.json", "--potential", "tau2_phi.json"]]
)


def _thermo_run(argv, out):
    """(exit code, artifact lines but the wall clock) of one case; file
    arguments name files in tests/data."""
    args = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code = main([*args, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    if text:
        _strict_json(text)
    return code, [line for line in text.splitlines() if '"wallclock": ' not in line]


@pytest.mark.parametrize(
    "argv", THERMO_CASES,
    ids=["-".join(a.removesuffix(".json") for a in argv if not a.startswith("--")) for argv in THERMO_CASES],
)
def test_thermo_snapshot(tmp_path, argv):
    want = {" ".join(c["argv"]): c for c in json.loads(THERMO_SNAPSHOTS.read_text())}[" ".join(argv)]
    code, lines = _thermo_run(argv, tmp_path / "out.json")
    assert code == want["exit_code"]
    assert lines == want["lines"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for argv in THERMO_CASES:
            code, lines = _thermo_run(argv, Path(tmp) / "out.json")
            cases.append({"argv": argv, "exit_code": code, "lines": lines})
    THERMO_SNAPSHOTS.write_text(json.dumps(cases, indent=1) + "\n")
