import json
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

import shiftpress.core as core_module
import shiftpress.gluing as gluing_module
from shiftpress import (
    all_segments,
    check_gluing,
    glue_words,
)
from shiftpress.cli import main
from shiftpress.core import is_admissible, load_system, word_matrix
from shiftpress.segments import (
    SegmentClass,
    affix_bounded,
    prefix_run_decomposition,
    trivial_decomposition,
)
from shiftpress.errors import CertificateError, ConfigError

from conftest import least_path_lengths, random_sft


DATA = Path(__file__).parent / "data"


class TestCertificates:
    def test_full2_free_concatenation(self, full2):
        assert check_gluing(full2, all_segments()) == 0
        assert all(c == () for c in full2.connectors.values())

    def test_golden_single_connector(self, golden):
        assert check_gluing(golden, all_segments()) == 1
        assert golden.connectors[(1, 1)] == (0,)
        assert all(golden.connectors[(a, b)] == () for a, b in [(0, 0), (0, 1), (1, 0)])

    def test_cycle3_connector_lengths(self, cycle3):
        assert check_gluing(cycle3, all_segments()) == 2
        for a in range(3):
            for b in range(3):
                assert len(cycle3.connectors[(a, b)]) == (b - a - 1) % 3

    def test_tau_vs_diameter(self, golden, cycle3, full2):
        for sys in (golden, cycle3, full2):
            assert check_gluing(sys, all_segments()) == least_path_lengths(sys).max() - 1

    def test_inadmissible_connector_refused(self, golden, monkeypatch):
        """The system proves its connectors when it finds them: a search that
        joins 1 to 1 directly, where 11 is forbidden, is refused by pair,
        with the connector as the counterexample."""
        found = core_module.shortest_connectors(golden)
        monkeypatch.setattr(core_module, "shortest_connectors", lambda sys: {**found, (1, 1): ()})
        for attempt in (lambda: golden.connectors, lambda: check_gluing(golden, all_segments())):
            with pytest.raises(CertificateError, match="connector empty does not join 1 to 1 admissibly") as err:
                attempt()
            assert err.value.counterexample == (1, (), 1)

    def test_connectors_proven_once_per_system(self, cycle3, monkeypatch):
        """The A^2 admissibility proof runs when the system first finds its
        connectors, not on each class checked on it."""
        checked = []

        def counted(sys, word, _fn=core_module.is_admissible):
            checked.append(tuple(word))
            return _fn(sys, word)

        monkeypatch.setattr(core_module, "is_admissible", counted)
        dec = prefix_run_decomposition(symbol=0, cap=2)
        taus = [check_gluing(cycle3, affix_bounded(dec, cap)) for cap in range(5)]
        taus += [check_gluing(cycle3, all_segments()) for _ in range(3)]
        assert taus == [2] * 8
        assert sorted(checked) == sorted((a, *c, b) for (a, b), c in cycle3.connectors.items())
        assert len(checked) == 9

    @pytest.mark.parametrize("name, tau", [("golden", 1), ("tau2", 2), ("cycle3", 2)])
    def test_tau_is_the_systems_for_every_cap(self, cycle3, name, tau):
        """tau depends on the system alone: every affix cap 0-4 of the
        trivial and the prefix-run decompositions gets the same one."""
        sys = cycle3 if name == "cycle3" else load_system(DATA / f"{name}.json")
        assert least_path_lengths(sys).max() - 1 == tau
        for dec in (trivial_decomposition(), prefix_run_decomposition(symbol=0, cap=2)):
            assert [check_gluing(sys, affix_bounded(dec, cap)) for cap in range(5)] == [tau] * 5
        assert max(len(c) for c in sys.connectors.values()) == tau

    def test_empty_class_refused(self, golden, cycle3):
        """A class with no segment of length 1 to 5 is refused on golden,
        tau2 and cycle3, though each system's connectors are proven."""
        nothing = SegmentClass(lambda words, n: np.zeros(len(words), dtype=bool), "nothing")
        # segments of length 6 only: no length past 5 is looked at
        late = SegmentClass(lambda words, n: np.full(len(words), n == 6), "length 6")
        for sys in (golden, load_system(DATA / "tau2.json"), cycle3):
            for segments in (nothing, late):
                with pytest.raises(CertificateError, match=r"no segments with lengths in \[1, 5\]"):
                    check_gluing(sys, segments)

    def test_randomized_systems(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            sys = random_sft(rng, int(rng.integers(2, 5)))
            tau = check_gluing(sys, all_segments())
            assert tau <= sys.alphabet_size
            assert tau == max(len(c) for c in sys.connectors.values())


class TestTracing:
    def test_times_from_lengths_and_gaps(self, golden):
        # the 1-ending and 1-starting blocks are joined through the connector 0
        glued, times, gaps = glue_words(golden, [(0, 0, 1), (1, 0, 1), (0, 1, 0)])
        assert gaps == [1, 0] and times == [0, 4, 7]
        assert glue_words(golden, [(0, 1, 0, 0, 1)]) == ((0, 1, 0, 0, 1), [0], [])

    def test_empty_word_refused(self, golden):
        for words in ([(0, 1), ()], [(), (0,)], [()]):
            with pytest.raises(ConfigError, match="cannot glue an empty word"):
                glue_words(golden, words)

    def test_exact_prefix_tracing(self, golden):
        words = [(0, 0, 1), (1, 0, 1), (0, 1, 0)]
        glued, times, gaps = glue_words(golden, words)
        assert is_admissible(golden, glued)
        # connector between 1-ending and 1-starting blocks forces a gap
        assert gaps == [1, 0]
        assert times == [0, 4, 7]
        # exact equality: distance 0 at every in-block offset
        for w, t in zip(words, times):
            assert glued[t : t + 3] == w

    def test_glued_word_admissible_on_random_systems(self):
        # sequences of 2-8 class segments with lengths in [1, 7]
        prefix_run_core = affix_bounded(prefix_run_decomposition(symbol=0, cap=2), 0)
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            sys = random_sft(rng, int(rng.integers(2, 5)))
            for segments in (all_segments(), prefix_run_core):
                tau = check_gluing(sys, segments)
                pool = {}
                for n in range(1, 8):
                    words = word_matrix(sys, n)
                    members = [tuple(row) for row in words[segments.batch(words, n)].tolist()]
                    if members:
                        pool[n] = members
                for _ in range(8):
                    lengths = [int(rng.choice(sorted(pool))) for _ in range(int(rng.integers(2, 9)))]
                    take = [pool[n][int(rng.integers(len(pool[n])))] for n in lengths]
                    glued, times, gaps = glue_words(sys, take)
                    assert is_admissible(sys, glued)
                    assert times == [0, *accumulate(m + r for m, r in zip(lengths, gaps))]
                    assert all(glued[t : t + len(w)] == w for w, t in zip(take, times))
                    assert all(g <= tau for g in gaps)

    def test_certificate_does_not_glue(self, golden, tmp_path, monkeypatch):
        # the per-connector check is the whole proof: no sample is glued
        def broken(*args, **kwargs):
            raise AssertionError("glue_words called while certifying")

        monkeypatch.setattr(gluing_module, "glue_words", broken)
        assert check_gluing(golden, all_segments()) == 1
        inputs = ["--system", str(DATA / "golden.json"), "--potential", str(DATA / "golden_weighted.json")]
        out = tmp_path / "out.json"
        assert main(["check", *inputs, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_pass"]
        assert main(["construct", *inputs, "--alpha", "0.3", "--eta0", "0.1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certified"]
