import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftpress import Potential, Resolution, birkhoff_sum, variation
from shiftpress.potentials import VALUE_BOUND, potential_from_dict, birkhoff_batch
from shiftpress.errors import ConfigError, PreconditionError

from conftest import random_sft, random_potential


class TestBirkhoff:
    def test_indicator_sum(self, full2):
        phi = Potential.from_symbol_values(full2, [0.0, 1.0])
        assert birkhoff_sum(phi, (0, 1, 0, 1), 4) == 2.0

    def test_constant(self, golden):
        phi = Potential.constant(golden, 0.7)
        for n in range(1, 6):
            w = (0, 1) * 5
            assert birkhoff_sum(phi, w, n) == pytest.approx(n * 0.7, abs=1e-12)

    def test_memory2_hand_evaluated(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): -1.0})
        # windows of 0100: 01 -> 1.0, 10 -> -1.0, 00 -> 0.0
        by_hand = phi((0, 1)) + phi((1, 0)) + phi((0, 0))
        assert birkhoff_sum(phi, (0, 1, 0, 0), 3) == by_hand == 0.0

    def test_length_precondition(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): -1.0})
        with pytest.raises(PreconditionError, match="4"):
            birkhoff_sum(phi, (0, 1, 0), 3)

    def test_batch_matches_scalar(self, golden):
        rng = np.random.default_rng(5)
        phi = random_potential(rng, golden, 2)
        from shiftpress.core import word_matrix

        words = word_matrix(golden, 7)
        got = birkhoff_batch(phi, words, 6)
        for row, val in zip(words, got):
            assert val == pytest.approx(birkhoff_sum(phi, tuple(row), 6), abs=1e-12)


class TestVariation:
    def test_memory1_vanishes(self, full2):
        phi = Potential.from_symbol_values(full2, [0.3, -2.0])
        assert variation(phi, Resolution(1)) == 0.0

    def test_memory2_agreement_classes(self, full2):
        phi = Potential(full2, 2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): -1.0, (1, 1): 0.0})
        # class "0.": |0 - 1| = 1; class "1.": |-1 - 0| = 1; worst pair = 1.0
        brute = 0.0
        table = {u: phi(u) for u in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        for u, x in table.items():
            for v, y in table.items():
                if u[0] == v[0]:
                    brute = max(brute, abs(x - y))
        assert brute == 1.0
        assert variation(phi, Resolution(1)) == brute

    def test_level_at_least_memory(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.4, (0, 1): 1.0, (1, 0): -1.0})
        assert variation(phi, Resolution(2)) == 0.0
        assert variation(phi, Resolution(5)) == 0.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), m=st.integers(1, 3))
    def test_vanishes_at_fine_scales(self, seed, m):
        rng = np.random.default_rng(seed)
        sys = random_sft(rng, int(rng.integers(2, 4)))
        phi = random_potential(rng, sys, m)
        for level in range(m, m + 3):
            assert variation(phi, Resolution(level)) == 0.0
        if m > 1:
            assert variation(phi, Resolution(m - 1)) >= 0.0


class TestLoader:
    def test_roundtrip(self, golden):
        phi = potential_from_dict(golden, {"memory": 2, "table": {"00": 0.5, "01": 1.0, "10": -1.0}})
        assert phi((0, 1)) == 1.0

    def test_missing_word_listed(self, golden):
        with pytest.raises(ConfigError, match="missing admissible words: 10"):
            potential_from_dict(golden, {"memory": 2, "table": {"00": 0.5, "01": 1.0}})

    def test_inadmissible_word_listed(self, golden):
        with pytest.raises(ConfigError, match="inadmissible words: 11"):
            potential_from_dict(
                golden, {"memory": 2, "table": {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}}
            )

    def test_values_bounded(self, full2):
        at = potential_from_dict(full2, {"memory": 1, "table": {"0": VALUE_BOUND, "1": -VALUE_BOUND}})
        assert at.spread == 2 * VALUE_BOUND
        beyond = float(np.nextafter(VALUE_BOUND, np.inf))
        with pytest.raises(ConfigError, match="beyond .* for: 1$"):
            potential_from_dict(full2, {"memory": 1, "table": {"0": 0.0, "1": -beyond}})

    def test_malformed_keys(self, full2):
        with pytest.raises(ConfigError, match="malformed"):
            potential_from_dict(full2, {"memory": 1, "table": {"x": 1.0, "1": 0.0}})

    @pytest.mark.parametrize(
        "memory, table, message",
        [
            # every malformed key, listed in sorted order: a non-digit, a wrong
            # length, a sign, a space, a non-ASCII digit, a bool and a string value
            (2, {"x1": 0.0, "0": 0.0, "-1": 0.0, " 1": 0.0, "0\u0663": 0.0, "01": True, "10": "1",
                 "00": 0.0, "11": 0.0},
             "malformed table keys/values:  1, -1, 0, 01, 0\u0663, 10, x1"),
            (1, {"0": 0.0, "1": None}, "malformed table keys/values: 1"),
            # a digit int() cannot read
            (1, {"0": 0.0, "1": 0.0, "\u00b2": 0.0}, "malformed table keys/values: \u00b2"),
            (1, {"0": 0.0, "": 0.0, "1": 0.0}, "malformed table keys/values: "),
            # keys of another length than a very large memory are malformed, not enumerated
            (10**9, {"0": 0.0, "1": 0.0}, "malformed table keys/values: 0, 1"),
            (1, {"1": float("nan"), "0": float("-inf")}, "non-finite table values for: 0, 1"),
            (1, {"0": 0.0, "1": 10**400}, "non-finite table values for: 1"),
            (1, {"1": 1e308, "0": -1e308}, "table values beyond +-2.09e+298 for: 0, 1"),
            (1, {}, "potential table invalid; missing admissible words: 0, 1"),
        ],
    )
    def test_refusals_one_line_each(self, full2, memory, table, message):
        """Malformed keys or values come first, then non-finite values, then
        values beyond the bound; each lists its keys in sorted order."""
        with pytest.raises(ConfigError) as info:
            potential_from_dict(full2, {"memory": memory, "table": table}, origin="phi.json")
        assert str(info.value) == f"phi.json: {message}"

    def test_integer_values_and_digit_keys(self, golden):
        phi = potential_from_dict(golden, {"memory": 2, "table": {"10": -1, "01": 2, "00": 0.5}})
        assert phi.values_flat.tolist() == [0.5, 2.0, -1.0, -np.inf]
        assert Potential.from_arrays(golden, 2, np.array([[1, 0], [0, 1], [0, 0]]), [-1, 2, 0.5]) \
            .values_flat.tobytes() == phi.values_flat.tobytes()

    def test_symbol_outside_alphabet_is_inadmissible(self, full2):
        with pytest.raises(ConfigError, match="inadmissible words: 2$"):
            potential_from_dict(full2, {"memory": 1, "table": {"0": 0.0, "1": 0.0, "2": 0.0}})

    def test_symbol_outside_alphabet_exits_2(self, full2, tmp_path, capsys):
        from shiftpress.cli import main

        system = tmp_path / "full2.json"
        system.write_text(json.dumps({"alphabet": 2, "full": True}))
        potential = tmp_path / "phi.json"
        potential.write_text(json.dumps({"memory": 1, "table": {"0": 0.0, "1": 0.0, "2": 0.0}}))
        assert main(["pstar", "--system", str(system), "--potential", str(potential)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("inadmissible words: 2\n") and err.count("\n") == 1

    def test_out_of_range_key_never_aliases(self, full2):
        # on a binary alphabet the base-2 code of 02 equals that of 10
        full = {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}
        with pytest.raises(ConfigError) as info:
            potential_from_dict(full2, {"memory": 2, "table": {**full, "02": 1.0}})
        assert str(info.value).endswith("potential table invalid; entries for inadmissible words: 02")
        del full["10"]
        with pytest.raises(ConfigError) as info:
            potential_from_dict(full2, {"memory": 2, "table": {**full, "02": 1.0}})
        assert str(info.value).endswith(
            "potential table invalid; missing admissible words: 10; entries for inadmissible words: 02"
        )

    def test_direct_table_with_symbol_outside_alphabet(self, full2):
        table = {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0, (0, 2): 0.0}
        with pytest.raises(ConfigError, match="missing admissible words: 10; entries for inadmissible words: 02"):
            Potential(full2, 2, table)


class TestValues:
    def test_one_array_with_inadmissible_slots(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.4, (0, 1): 1.0, (1, 0): -1.0})
        assert not hasattr(phi, "table")
        assert phi.values_flat.tolist() == [0.4, 1.0, -1.0, -np.inf]
        assert not phi.values_flat.flags.writeable
        assert (phi.max_value, phi.min_value, phi.spread) == (1.0, -1.0, 2.0)
        assert phi((1, 0, 1)) == -1.0
        assert phi((1, 1)) == -np.inf
        with pytest.raises(PreconditionError, match="outside the alphabet"):
            phi((0, 2))
        with pytest.raises(PreconditionError, match="needs 2 symbols"):
            phi((0,))

    def test_shifted_keeps_system_and_slots(self, golden):
        phi = Potential(golden, 2, {(0, 0): 0.4, (0, 1): 1.0, (1, 0): -1.0}).shifted(1.0)
        assert phi.sys is golden and phi.memory == 2
        assert phi.values_flat.tolist() == [1.4, 2.0, 0.0, -np.inf]
        assert phi.min_value == 0.0

    def test_zero_shift_is_the_same_potential(self, golden):
        """A zero shift leaves every value bitwise equal, so the potential and
        its lift are shared, not built again."""
        phi = Potential(golden, 1, {(0,): 0.0, (1,): 0.3})
        for c in (0.0, -0.0, -phi.min_value):
            assert phi.shifted(c) is phi
        assert phi.shifted(1e-300) is not phi
