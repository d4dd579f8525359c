"""The benchmark's trace runner (perfbench/trace_runner.py) wraps the layer
functions it names in HOOKS by module and attribute, and computes some
counts from their arguments. A hook whose target was renamed or moved is
listed under `missing` in the spans file, and a count that no longer fits
its target's signature under `count_errors`; both drop metrics from a
traced benchmark run. Each subcommand the benchmark traces runs here once,
on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

INVOCATIONS = {
    "pressure": ["pressure", "--system", "full2.json", "--potential", "full2_mem4.json", "--n-max", "8"],
    "pstar": ["pstar", "--system", "golden.json", "--potential", "golden_mem2.json"],
    "check": ["check", "--system", "full2.json", "--potential", "zero.json"],
    "verify-bounds": ["verify-bounds", "--system", "full2.json", "--potential", "zero.json",
                      "--alpha", "0.12", "--eta0", "0.1", "--n-list", "3"],
    "density": ["density", "--system", "golden.json", "--potential", "golden_weighted.json",
                "--grid", "1", "--eta0", "0.1"],
    # a generic (predicate-only) class: the affix-bounded prefix-run cores
    "density-prefix-run": ["density", "--system", "golden.json", "--potential", "golden_weighted.json",
                           "--grid", "1", "--eta0", "0.1", "--decomposition", "prefix_run.json"],
    "spectrum": ["spectrum", "--system", "golden.json", "--potential", "golden_mem2.json",
                 "--cycle-cap", "3", "--grid", "3"],
}

# spans the benchmark's per-layer metrics read that a refactor could inline
# away: each must still be reached by its subcommand
EXPECTED = {
    "density": {"construct.class_log_weight_sum", "thermo.partition_function"},
    "spectrum": {"measures.primitive_cycles", "measures.gibbs_chain"},
    "density-prefix-run": {"segments.batch"},
}

# every segment class decides a whole word matrix at once: no row is sent
# through a per-row predicate
PER_ROW_FREE = {"density-prefix-run"}


@pytest.mark.parametrize("command", sorted(INVOCATIONS))
def test_every_hook_finds_its_target(tmp_path, command):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in INVOCATIONS[command]]
    spans = tmp_path / "spans.json"
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_runner.py"), str(spans), *argv,
         "--out", str(tmp_path / "artifact")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(spans.read_text())
    assert result["missing"] == []
    assert result["count_errors"] == []
    traced = {result["names"][span[0]] for span in result["spans"]}
    assert {"cli.load_inputs", "cli.emit", "thermo.lift", *EXPECTED.get(command, ())} <= traced
    if command == "spectrum":
        # one entry per data row of the artifact, not per column
        lines = (tmp_path / "artifact").read_text().splitlines()
        rows = lines[lines.index("kind,parameter,entropy,integral,pressure") + 1:]
        assert result["counts"]["measures.entries"] == len(rows)
    if command in PER_ROW_FREE:
        assert result["counts"]["segments.batch.rows"] > 0
        assert result["counts"]["segments.batch.predicate_rows"] == 0
