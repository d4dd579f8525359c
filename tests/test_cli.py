import itertools
import json
import math
import re
from pathlib import Path

import pytest

from shiftpress.cli import _fmt_column, main

import spectrum_reference as ref


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["full2"] = tmp_path / "full2.json"
    paths["full2"].write_text(json.dumps({"alphabet": 2, "full": True}))
    paths["golden"] = tmp_path / "golden.json"
    paths["golden"].write_text(json.dumps({"alphabet": 2, "transitions": [[1, 1], [1, 0]]}))
    paths["oneway"] = tmp_path / "oneway.json"
    paths["oneway"].write_text(json.dumps({"alphabet": 2, "transitions": [[1, 1], [0, 1]]}))
    paths["zero"] = tmp_path / "zero.json"
    paths["zero"].write_text(json.dumps({"memory": 1, "table": {"0": 0.0, "1": 0.0}}))
    paths["weighted"] = tmp_path / "weighted.json"
    paths["weighted"].write_text(json.dumps({"memory": 1, "table": {"0": 0.0, "1": 0.1}}))
    paths["badjson"] = tmp_path / "bad.json"
    paths["badjson"].write_text("{not json")
    paths["tmp"] = tmp_path
    return paths


def run(files, *argv):
    out = files["tmp"] / "out.txt"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestPressure:
    def test_full2(self, files):
        code, text = run(files, "pressure", "--system", str(files["full2"]), "--potential", str(files["zero"]))
        assert code == 0
        payload = json.loads(text)
        assert payload["oracle"]["value"] == pytest.approx(math.log(2), abs=1e-9)
        assert payload["gap"] < 0.05

    def test_golden(self, files):
        code, text = run(files, "pressure", "--system", str(files["golden"]), "--potential", str(files["zero"]))
        assert code == 0
        payload = json.loads(text)
        assert payload["oracle"]["value"] == pytest.approx(0.481212, abs=1e-6)

    def test_missing_file_exit2(self, files, capsys):
        code = main(["pressure", "--system", str(files["tmp"] / "nope.json"), "--potential", str(files["zero"])])
        assert code == 2

    def test_malformed_json_exit2(self, files):
        code, _ = run(files, "pressure", "--system", str(files["badjson"]), "--potential", str(files["zero"]))
        assert code == 2

    def test_alphabet_above_256_exit2(self, files, capsys):
        # symbol 256 would wrap in a uint8 word matrix
        path = files["tmp"] / "full257.json"
        path.write_text(json.dumps({"alphabet": 257, "full": True}))
        code, text = run(files, "entropy", "--system", str(path))
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == "config error: alphabet size must be <= 256, the symbols a word matrix holds, got 257\n"

    def test_alphabet_of_256_is_the_full_shift(self, files):
        path = files["tmp"] / "full256.json"
        path.write_text(json.dumps({"alphabet": 256, "full": True}))
        code, text = run(files, "entropy", "--system", str(path))
        assert code == 0
        payload = json.loads(text)
        assert payload["oracle"]["value"] == pytest.approx(math.log(256), abs=1e-12)
        assert payload["enumeration"]["value"] == pytest.approx(math.log(256), abs=1e-12)

    def test_entropy_alias(self, files):
        code, text = run(files, "entropy", "--system", str(files["golden"]))
        assert code == 0
        payload = json.loads(text)
        assert payload["oracle"]["value"] == pytest.approx(0.481212, abs=1e-6)

    def test_memory2_potential_file(self, files):
        phi2 = files["tmp"] / "mem2.json"
        phi2.write_text(json.dumps({"memory": 2, "table": {"00": 0.2, "01": 0.5, "10": 0.1}}))
        code, text = run(files, "pressure", "--system", str(files["golden"]), "--potential", str(phi2))
        assert code == 0
        payload = json.loads(text)
        assert payload["gap"] < 0.05

    def test_memory2_missing_entry_exit2(self, files):
        phi2 = files["tmp"] / "mem2bad.json"
        phi2.write_text(json.dumps({"memory": 2, "table": {"00": 0.2, "01": 0.5}}))
        code, _ = run(files, "pressure", "--system", str(files["golden"]), "--potential", str(phi2))
        assert code == 2

    @pytest.mark.parametrize(
        "value",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
    )
    def test_non_finite_potential_exit2(self, files, capsys, value):
        phi = files["tmp"] / "nonfinite.json"
        phi.write_text('{"memory": 1, "table": {"0": %s, "1": 0.0}}' % value)
        for command in ("pressure", "pstar"):
            code, _ = run(files, command, "--system", str(files["full2"]), "--potential", str(phi))
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "non-finite" in err

    def test_huge_potential_exit2(self, files, capsys):
        # finite, but their Birkhoff sums and exp(x - max) shifts overflow
        phi = files["tmp"] / "huge.json"
        phi.write_text('{"memory": 1, "table": {"0": 1e308, "1": -1e308}}')
        for command in ("spectrum", "pressure", "pstar"):
            code, _ = run(files, command, "--system", str(files["full2"]), "--potential", str(phi))
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("config error:") and err.endswith("for: 0, 1\n")


    @pytest.mark.parametrize("v", [10, 400])
    def test_near_periodic_golden_memory2(self, files, v):
        # transfer eigenvalues of modulus about 1 and -1; the weights spread by 2v
        phi = files["tmp"] / "pm.json"
        phi.write_text(json.dumps({"memory": 2, "table": {"00": -v, "01": v, "10": -v}}))
        code, text = run(files, "pressure", "--system", str(files["golden"]), "--potential", str(phi))
        assert code == 0
        oracle = json.loads(text)["oracle"]
        exact = math.log((math.exp(-v) + math.sqrt(math.exp(-2 * v) + 4)) / 2)
        assert abs(oracle["value"] - exact) <= oracle["error_bound"]


class TestPstarAndSpectrum:
    def test_pstar(self, files):
        code, text = run(files, "pstar", "--system", str(files["golden"]), "--potential", str(files["weighted"]))
        assert code == 0
        payload = json.loads(text)
        assert payload["value"] == pytest.approx(0.05, abs=1e-12)
        assert len(payload["finite_means"]) == 20

    def test_spectrum_gap(self, files):
        code, text = run(
            files, "spectrum", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--cycle-cap", "10", "--grid", "50",
        )
        assert code == 0
        gap_line = next(l for l in text.splitlines() if l.startswith("# max_gap"))
        assert float(gap_line.split(":")[1]) < 0.05

    def test_spectrum_no_cycles_budget(self, files):
        code, text = run(
            files, "spectrum", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--cycle-cap", "0", "--grid", "5",
        )
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "kind,parameter,entropy,integral,pressure"
        assert len(rows) == 2 and rows[1].startswith("gibbs")

    @pytest.mark.parametrize(
        "flag,value",
        [("grid", "0"), ("grid", "-2"), ("cycle-cap", "-1"), ("cycle-cap", "13")],
    )
    def test_spectrum_bad_arguments_exit2(self, files, capsys, flag, value):
        code, text = run(
            files, "spectrum", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            f"--{flag}", value,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("where,reason", [("dir", "Is a directory"), ("dir/missing/out.csv", "No such file or directory")])
    def test_unwritable_out_exit2(self, files, capsys, where, reason):
        # one config error line once the work is done, not a traceback
        (files["tmp"] / "dir").mkdir()
        out = files["tmp"] / where
        code = main(["spectrum", "--system", str(files["golden"]), "--potential", str(files["weighted"]),
                     "--cycle-cap", "3", "--grid", "3", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: cannot write output file {out}: {reason}\n"

    def test_spectrum_wide_spread(self, files):
        phi = files["tmp"] / "wide.json"
        phi.write_text(json.dumps({"memory": 2, "table": {"00": 1000, "01": 0, "10": 0, "11": 0}}))
        code, text = run(files, "spectrum", "--system", str(files["full2"]), "--potential", str(phi))
        assert code == 0
        ceiling = next(l for l in text.splitlines() if l.startswith("# ceiling"))
        assert float(ceiling.split(":")[1]) == 1000.0

    def test_spectrum_gap_never_negative(self, files):
        """The pressure of full2 memory 2 {"00": 1000} is its floor 1000, and
        the oracle's value may lie below it within its error_bound: the
        interval is then one point, so max_gap is 0, not negative."""
        phi = files["tmp"] / "wide.json"
        phi.write_text(json.dumps({"memory": 2, "table": {"00": 1000, "01": 0, "10": 0, "11": 0}}))
        code, text = run(
            files, "spectrum", "--system", str(files["full2"]), "--potential", str(phi),
            "--cycle-cap", "3", "--grid", "2",
        )
        assert code == 0
        stats = dict(l[2:].split(": ") for l in text.splitlines() if l.startswith("# "))
        assert float(stats["floor"]) == 1000.0
        assert float(stats["max_gap"]) == 0.0

    def test_zero_entropy_prints_zero(self, files):
        """Every chain on a 2-cycle has entropy 0: its rows print 0, not -0."""
        cycle, phi = files["tmp"] / "cycle.json", files["tmp"] / "cycle_phi.json"
        cycle.write_text(json.dumps({"alphabet": 2, "transitions": [[0, 1], [1, 0]]}))
        phi.write_text(json.dumps({"memory": 1, "table": {"0": 0.5, "1": -0.5}}))
        code, text = run(files, "spectrum", "--system", str(cycle), "--potential", str(phi))
        assert code == 0
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert {r[0] for r in rows} == {"cycle", "gibbs", "interp"}
        assert all(r[2] == "0" for r in rows)

    def test_non_transitive_exit3(self, files):
        code, _ = run(files, "spectrum", "--system", str(files["oneway"]), "--potential", str(files["zero"]))
        assert code == 3


class TestConstructAndDensity:
    def test_construct_certified(self, files):
        code, text = run(
            files, "construct", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "0.35", "--eta0", "0.1",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["certified"] is True
        assert all(i["ok"] for i in payload["inequalities"])
        assert len(payload["words"]) == payload["params"]["E_size"]

    def test_alpha_out_of_range_exit3(self, files):
        code, _ = run(
            files, "construct", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "0.9", "--eta0", "0.1",
        )
        assert code == 3

    def test_n_cap_exit3(self, files):
        code, _ = run(
            files, "construct", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "0.35", "--eta0", "0.1", "--n-cap", "3",
        )
        assert code == 3

    @pytest.mark.parametrize("n_cap", ["0", "1", "-3"])
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("construct", ("--alpha", "0.35", "--eta0", "0.1")),
            ("density", ("--grid", "2", "--eta0", "0.1")),
            ("verify-bounds", ("--alpha", "0.12", "--eta0", "0.1")),
        ],
    )
    def test_n_cap_below_two_exit2(self, files, capsys, command, flags, n_cap):
        code, text = run(
            files, command, "--system", str(files["full2"]), "--potential", str(files["zero"]),
            *flags, "--n-cap", n_cap,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == f"config error: --n-cap must be >= 2, got {n_cap}\n"

    @pytest.mark.parametrize("n_cap", ["0", "1", "-3"])
    def test_n_cap_check_below_two_exit2(self, files, capsys, monkeypatch, n_cap):
        # refused by the flag's name before the oracle runs
        monkeypatch.setattr("shiftpress.thermo.pressure_oracle", lambda *a, **kw: pytest.fail("oracle ran"))
        code, text = run(
            files, "check", "--system", str(files["golden"]), "--potential", str(files["weighted"]),
            "--n-cap-check", n_cap,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == f"config error: --n-cap-check must be >= 2, got {n_cap}\n"

    @pytest.mark.parametrize("margin", ["-1", "-0.05"])
    def test_negative_margin_exit2(self, files, capsys, margin):
        # a negative margin would sweep alphas outside [floor, pressure]
        code, text = run(
            files, "density", "--system", str(files["golden"]), "--potential", str(files["weighted"]),
            "--grid", "3", "--eta0", "0.1", f"--margin={margin}",
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == f"config error: --margin must be >= 0, got {float(margin)}\n"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("pressure", ("--potential", "zero")),
            ("entropy", ()),
            ("pstar", ("--potential", "zero")),
            ("spectrum", ("--potential", "zero", "--cycle-cap", "3", "--grid", "3")),
            ("check", ("--potential", "zero")),
            ("construct", ("--potential", "zero", "--alpha", "0.35", "--eta0", "0.1")),
            ("density", ("--potential", "zero", "--grid", "2", "--eta0", "0.1")),
            ("verify-bounds", ("--potential", "zero", "--alpha", "0.12", "--eta0", "0.1")),
        ],
    )
    def test_budget_words_below_one_exit2(self, files, capsys, command, flags, budget):
        flags = [str(files[f]) if f in files else f for f in flags]
        code, text = run(files, command, "--system", str(files["full2"]), *flags, "--budget-words", budget)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == f"config error: --budget-words must be >= 1, got {budget}\n"

    @pytest.mark.parametrize(
        "command,flags,flag,value",
        [
            ("construct", ("--alpha", "0.3"), "--eta0", "inf"),
            ("construct", ("--alpha", "0.3"), "--eta0", "nan"),
            ("construct", ("--eta0", "0.1"), "--alpha", "nan"),
            ("construct", ("--eta0", "0.1"), "--alpha", "-inf"),
            ("density", ("--grid", "2"), "--eta0", "nan"),
            ("density", ("--grid", "2", "--eta0", "0.1"), "--margin", "nan"),
            ("density", ("--grid", "2", "--eta0", "0.1"), "--margin", "inf"),
            ("verify-bounds", ("--alpha", "0.12"), "--eta0", "nan"),
        ],
    )
    def test_non_finite_float_flag_exit2(self, files, capsys, monkeypatch, command, flags, flag, value):
        # refused before the inputs are even loaded
        monkeypatch.setattr("shiftpress.cli._load_inputs", lambda *a, **kw: pytest.fail("inputs loaded"))
        code, text = run(
            files, command, "--system", str(files["full2"]), "--potential", str(files["zero"]),
            *flags, f"{flag}={value}",
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == f"config error: {flag} must be finite, got {float(value)}\n"

    def test_malformed_command_line_is_one_line(self, files, capsys):
        # with a space, -inf reads as an option, so --alpha has no value
        code, text = run(
            files, "construct", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "-inf", "--eta0", "0.1",
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:") and "--alpha" in err

    def test_check_refuses_a_bad_resolution_ordering_before_the_oracle(self, files, capsys):
        # the oracle would refuse the non-transitive system with exit 3 first
        code, text = run(
            files, "check", "--system", str(files["oneway"]), "--potential", str(files["zero"]), "--res-gamma", "4",
        )
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("config error: resolution levels must satisfy gamma >= 5")

    def test_density_rows(self, files):
        code, text = run(
            files, "density", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--grid", "4", "--eta0", "0.1",
        )
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "alpha,certified,pressure,gap,N,tau,E_size"
        assert len(rows) == 5
        assert all(r.split(",")[1] == "true" for r in rows[1:])

    def test_density_refused_rows_say_why(self, files, capsys):
        mem2 = files["tmp"] / "mem2.json"
        mem2.write_text(json.dumps({"memory": 2, "table": {"00": 0.1, "01": 0.8, "10": 0.2}}))
        code, text = run(
            files, "density", "--system", str(files["golden"]), "--potential", str(mem2),
            "--grid", "3", "--eta0", "0.1",
        )
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert [r.split(",", 1)[1] for r in rows] == ["false,,,,,"] * 3
        lines = capsys.readouterr().err.splitlines()
        assert [l.split(": ", 1)[0] for l in lines] == [f"alpha={r.split(',')[0]}" for r in rows]
        for line in lines:
            # the failing inequality with both of its sides
            assert re.search(r"\('N > alpha\*tau/eta', 24, [0-9.]+\)", line), line

    def test_density_grid_zero_exit2(self, files):
        code, _ = run(
            files, "density", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--grid", "0", "--eta0", "0.1",
        )
        assert code == 2

    def test_density_deterministic_modulo_wallclock(self, files):
        argv = [
            "density", "--system", str(files["golden"]), "--potential", str(files["weighted"]),
            "--grid", "3", "--eta0", "0.1",
        ]
        out1 = files["tmp"] / "d1.csv"
        out2 = files["tmp"] / "d2.csv"
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# wallclock")]
        assert strip(out1) == strip(out2)

    def test_check_trivial_passes(self, files):
        code, text = run(files, "check", "--system", str(files["golden"]), "--potential", str(files["weighted"]))
        assert code == 0
        payload = json.loads(text)
        assert payload["all_pass"] is True
        assert len(payload["conditions"]) == 5

    @pytest.mark.parametrize(
        "table", [{"kind": "table", "split": 5}, {"kind": "table", "base": [["01", "x"]]},
                  {"kind": "table", "base": [["0\u00b2", 2]]}]
    )
    def test_malformed_table_decomposition_exit2(self, files, capsys, table):
        dec = files["tmp"] / "table.json"
        dec.write_text(json.dumps(table))
        code, _ = run(
            files, "check", "--system", str(files["golden"]), "--potential", str(files["weighted"]),
            "--decomposition", str(dec),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [["check"], ["density", "--grid", "3", "--eta0", "0.1"]])
    def test_table_without_a_split_for_a_base_segment_exit2(self, files, capsys, command):
        """Every base segment needs a split entry, whichever row a scan reaches first."""
        dec = files["tmp"] / "table.json"
        dec.write_text(json.dumps({"kind": "table", "base": [["0", 1], ["1", 1]], "split": [["0", 1, 0, 1, 0]]}))
        code, _ = run(
            files, command[0], "--system", str(files["full2"]), "--potential", str(files["zero"]),
            *command[1:], "--decomposition", str(dec),
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: {dec}: no split entry for segment ((1,), 1)\n"

    def test_verify_bounds(self, files):
        code, text = run(
            files, "verify-bounds", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "0.12", "--eta0", "0.1", "--n-list", "3,4",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["counting_bounds"]["3"]["ok"] and payload["counting_bounds"]["4"]["ok"]

    @pytest.mark.parametrize("n_list", ["3,x", "12", ""], ids=["not-integer", "out-of-range", "empty"])
    def test_verify_bounds_bad_n_list_exit2(self, files, capsys, monkeypatch, n_list):
        # the list is checked before the construction runs
        monkeypatch.setattr("shiftpress.construct.construct_intermediate", lambda *a: pytest.fail("construction ran"))
        code, _ = run(
            files, "verify-bounds", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "0.12", "--eta0", "0.1", "--n-list", n_list,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:") and "--n-list" in err

    def config_hash(self, files, system):
        code, text = run(files, "pstar", "--system", system, "--potential", str(files["zero"]))
        assert code == 0
        return json.loads(text)["header"]["config_hash"]

    def test_config_hash_ignores_path_spelling(self, files, monkeypatch):
        monkeypatch.chdir(files["tmp"])
        relative = self.config_hash(files, "full2.json")
        assert self.config_hash(files, str(files["full2"].resolve())) == relative

    def test_config_hash_follows_file_contents(self, files):
        before = self.config_hash(files, str(files["full2"]))
        files["full2"].write_text(json.dumps({"alphabet": 2, "transitions": [[1, 1], [1, 1]]}))
        assert self.config_hash(files, str(files["full2"])) != before

    def test_header_fields_present(self, files):
        code, text = run(
            files, "construct", "--system", str(files["full2"]), "--potential", str(files["zero"]),
            "--alpha", "0.35", "--eta0", "0.1",
        )
        payload = json.loads(text)
        header = payload["header"]
        assert set(header) == {"version", "config_hash", "wallclock"}

    @pytest.mark.parametrize(
        "command", ["pressure", "entropy", "pstar", "spectrum", "check", "construct", "density", "verify-bounds"]
    )
    def test_seed_flag_removed_exit2(self, files, capsys, command):
        potential = [] if command == "entropy" else ["--potential", str(files["zero"])]
        code, text = run(files, command, "--system", str(files["full2"]), *potential, "--seed", "0")
        assert code == 2 and text == ""
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("construct", ("--alpha", "0.35", "--eta0", "0.1", "--res-eps", "1")),
            ("density", ("--grid", "2", "--eta0", "0.1", "--res-eps", "1")),
            ("verify-bounds", ("--alpha", "0.12", "--eta0", "0.1", "--res-eps", "1")),
            ("check", ("--res-eps", "1")),
            # not an abbreviation of --n-cap-check
            ("check", ("--n-cap", "3")),
        ],
    )
    def test_removed_settings_exit2(self, files, capsys, command, flags):
        code, text = run(files, command, "--system", str(files["full2"]), "--potential", str(files["zero"]), *flags)
        assert code == 2 and text == ""
        assert f"unrecognized arguments: {' '.join(flags[-2:])}" in capsys.readouterr().err

    def test_check_keeps_the_word_budget_in_the_class_pressures(self, files, capsys):
        # the prefix-run classes are enumerated explicitly: 144 words of
        # length 10 at n = 6 for the affix class at (gamma, 3*gamma)
        data = Path(__file__).parent / "data"
        code, text = run(
            files, "check", "--system", str(data / "golden.json"), "--potential", str(data / "golden_weighted.json"),
            "--decomposition", str(data / "prefix_run.json"), "--budget-words", "100",
        )
        assert code == 3 and text == ""
        err = capsys.readouterr().err
        assert err == "computation error: partition function at n=6 needs 144 words of length 10, budget is 100\n"

    def test_recoded_alphabet_above_256_refused(self, files, capsys):
        # memory 6 on the full 3-shift recodes to 3^6 = 729 symbols, more
        # than the uint8 word matrices hold
        full3 = files["tmp"] / "full3.json"
        full3.write_text(json.dumps({"alphabet": 3, "full": True}))
        mem6 = files["tmp"] / "mem6.json"
        words = ["".join(str(d) for d in digits) for digits in itertools.product(range(3), repeat=6)]
        mem6.write_text(json.dumps({"memory": 6, "table": dict.fromkeys(words, 0.0)}))
        code, text = run(
            files, "construct", "--system", str(full3), "--potential", str(mem6), "--alpha", "0.5", "--eta0", "0.1",
        )
        assert code == 3 and text == ""
        err = capsys.readouterr().err
        assert err == (
            "computation error: recoding memory 6 to memory 1 gives 729 symbols, "
            "above the 256 that word matrices hold\n"
        )
        # a sweep takes its interval and its structure gate from the input
        # potential, so the recoding is refused row by row, not for the sweep
        code, text = run(
            files, "density", "--system", str(full3), "--potential", str(mem6), "--grid", "2", "--eta0", "0.1",
        )
        assert code == 0
        rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
        assert [row.split(",", 1)[1] for row in rows] == ["false,,,,,"] * 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"alpha={row.split(',')[0]}: recoding memory 6 to memory 1 gives 729 symbols, "
            "above the 256 that word matrices hold"
            for row in rows
        ]

    def test_density_passes_the_structure_gate_above_the_bowen_level(self, files, capsys):
        # memory 5 exceeds the 3*gamma level 4: the closed-form Bowen bound
        # lets the sweep reach the construction, whose rows may still refuse
        data = Path(__file__).parent / "data"
        code, text = run(
            files, "density", "--system", str(data / "golden.json"), "--potential", str(data / "golden_mem5.json"),
            "--grid", "3", "--eta0", "0.1",
        )
        assert code == 0
        assert "structure conditions not all passing" not in capsys.readouterr().err
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert rows[0].startswith("alpha,") and len(rows) == 4


# the option strings of each subcommand; a flag that nothing reads shows up here
FLAGS = {
    "pressure": {"--budget-words", "--n-max", "--n-min", "--out", "--potential", "--res-delta", "--system"},
    "entropy": {"--budget-words", "--n-max", "--n-min", "--out", "--res-delta", "--system"},
    "pstar": {"--budget-words", "--out", "--potential", "--system"},
    "spectrum": {"--budget-words", "--cycle-cap", "--grid", "--out", "--potential", "--system"},
    "check": {
        "--budget-words", "--decomposition", "--n-cap-check", "--out", "--potential", "--res-delta",
        "--res-gamma", "--system",
    },
    "construct": {
        "--alpha", "--budget-words", "--decomposition", "--eta0", "--n-cap", "--out", "--potential",
        "--res-delta", "--res-gamma", "--system",
    },
    "density": {
        "--budget-words", "--decomposition", "--eta0", "--grid", "--margin", "--n-cap", "--out",
        "--potential", "--res-delta", "--res-gamma", "--system",
    },
    "verify-bounds": {
        "--alpha", "--budget-words", "--decomposition", "--eta0", "--n-cap", "--n-list", "--out",
        "--potential", "--res-delta", "--res-gamma", "--system",
    },
}


def test_subcommand_flags_pinned():
    import argparse

    from shiftpress.cli import build_parser
    from shiftpress.core import DEFAULT_WORD_BUDGET

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices.keys() == FLAGS.keys()
    for command, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[command], command
        assert parser.get_default("budget_words") == DEFAULT_WORD_BUDGET


class TestOneLiftPerPotential:
    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pressure", "--system", "full2.json", "--potential", "full2_mem4.json"],
            ["spectrum", "--system", "golden.json", "--potential", "golden_mem2.json",
             "--cycle-cap", "4", "--grid", "4"],
            ["verify-bounds", "--system", "full2.json", "--potential", "zero.json",
             "--alpha", "0.12", "--eta0", "0.1"],
            ["density", "--system", "golden.json", "--potential", "golden_mem2.json",
             "--grid", "3", "--eta0", "0.1"],
            ["density", "--system", "golden.json", "--potential", "golden_weighted.json",
             "--grid", "3", "--eta0", "0.1"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[4]}",
    )
    def test_each_potential_builds_one_lift(self, tmp_path, monkeypatch, argv):
        """A subcommand builds each Potential's transfer lift once, however
        many pressures, floors and chains it computes from it."""
        from shiftpress import thermo
        from shiftpress.potentials import _Lift

        assert thermo._Lift is _Lift
        built = []
        init = _Lift.__init__

        def counting(self, phi):
            built.append(phi)
            init(self, phi)

        monkeypatch.setattr(_Lift, "__init__", counting)
        args = [str(self.DATA / a) if a.endswith(".json") else a for a in argv]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        assert built
        assert len({id(phi) for phi in built}) == len(built)


def test_csv_columns_format_like_single_values():
    """A column formatted at once gives the fields the per-value writer gave."""
    import numpy as np

    values = [None, True, False, 0, 7, 0.1, -0.0, 1e300, float("nan"), np.float64(2 / 3), "x:0.5", np.bool_(True)]
    assert _fmt_column(values) == [ref._fmt(v) for v in values]
