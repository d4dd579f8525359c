"""Each subcommand loads only the modules it runs, and the package resolves
its public names on first use (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftpress

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# numpy.ma is loaded lazily, for example by a plain np.unique; no subcommand
# needs it, so it is listed too and must stay out
PROBE = """\
import json, sys
import shiftpress.cli
if sys.argv[1:]:
    assert shiftpress.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("shiftpress.") or m == "numpy.ma")))
"""

BASE = {"cli", "core", "errors", "kernels", "potentials"}
THERMO = BASE | {"segments", "thermo"}
STRUCTURE = THERMO | {"gluing", "structure"}

INVOCATIONS = {
    "pressure": (["--potential", "golden_mem2.json", "--n-max", "6"], THERMO),
    "entropy": (["--n-max", "6"], THERMO),
    "pstar": (["--potential", "golden_mem2.json"], THERMO),
    "spectrum": (["--potential", "golden_mem2.json", "--cycle-cap", "3", "--grid", "3"], THERMO | {"measures"}),
    "check": (["--potential", "golden_weighted.json"], STRUCTURE),
    "construct": (["--potential", "zero.json", "--alpha", "0.35", "--eta0", "0.1"], STRUCTURE | {"construct"}),
    "density": (["--potential", "golden_weighted.json", "--grid", "1", "--eta0", "0.1"], STRUCTURE | {"construct"}),
    "verify-bounds": (["--potential", "zero.json", "--alpha", "0.12", "--eta0", "0.1", "--n-list", "3"],
                      STRUCTURE | {"construct"}),
}


def loaded(*argv):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = {m.removeprefix("shiftpress.") for m in json.loads(proc.stdout.splitlines()[-1])}
    assert "numpy.ma" not in modules
    return modules


def test_bare_import_loads_the_input_layer():
    assert loaded() == BASE


@pytest.mark.parametrize("command", sorted(INVOCATIONS))
def test_subcommand_loads_only_what_it_runs(tmp_path, command):
    flags, expected = INVOCATIONS[command]
    system = "full2.json" if command in ("construct", "verify-bounds") else "golden.json"
    argv = [command, "--system", str(DATA / system),
            *(str(DATA / a) if a.endswith(".json") else a for a in flags)]
    assert loaded(*argv, "--out", str(tmp_path / "artifact")) == expected


def test_public_names_resolve_to_their_home_modules():
    for name in shiftpress.__all__:
        home = importlib.import_module(f"shiftpress.{shiftpress._HOME[name]}")
        value = getattr(shiftpress, name)
        assert value is getattr(home, name) and value.__module__ == home.__name__, name
    assert set(shiftpress.__all__) <= set(dir(shiftpress))
    assert len(set(shiftpress.__all__)) == len(shiftpress.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from shiftpress import *", namespace)
    assert set(shiftpress.__all__) <= set(namespace)
    for name in shiftpress.__all__:
        assert namespace[name] is getattr(shiftpress, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        shiftpress.not_a_name
    assert not hasattr(shiftpress, "cmd_pressure")
