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

# numpy.ma is loaded lazily, for example by a plain np.unique, and _hashlib,
# OpenSSL's hashes, by `import hashlib`; no subcommand needs either, so both
# are listed too and must stay out
OUTSIDERS = {"numpy.ma", "_hashlib"}
PROBE = f"""\
import json, sys
import shiftpress.cli
if sys.argv[1:]:
    assert shiftpress.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("shiftpress.") or m in {OUTSIDERS!r})))
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


def run(code, *argv):
    """stdout of a fresh interpreter running code, with src on its path."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(*argv):
    modules = {m.removeprefix("shiftpress.") for m in json.loads(run(PROBE, *argv).splitlines()[-1])}
    assert not modules & OUTSIDERS
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


def test_config_hash_without_the_builtin_sha256(tmp_path):
    """An interpreter without _sha256 hashes through hashlib, to the same digest."""
    out = tmp_path / "construct.json"
    code = """\
import sys
sys.modules["_sha256"] = None  # a failing import, as where _sha256 does not exist
import shiftpress.cli
assert shiftpress.cli.main(sys.argv[1:]) == 0
print("hashlib" in sys.modules)
"""
    argv = ["construct", "--system", str(DATA / "full2.json"), "--potential", str(DATA / "zero.json"),
            "--alpha", "0.45", "--eta0", "0.1", "--out", str(out)]
    assert run(code, *argv).split() == ["True"]
    committed = json.loads((DATA / "construct_full2_zero.json").read_text())
    assert json.loads(out.read_text())["header"]["config_hash"] == committed["header"]["config_hash"]


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
