import json
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

import shiftpress.gluing as gluing_module
from shiftpress import (
    GluingCertificate,
    all_segments,
    check_gluing,
    glue_words,
)
from shiftpress.cli import main
from shiftpress.core import is_admissible, word_matrix
from shiftpress.segments import SegmentClass, affix_bounded, prefix_run_decomposition
from shiftpress.errors import CertificateError, ConfigError

from conftest import least_path_lengths, random_sft


class TestCertificates:
    def test_full2_free_concatenation(self, full2):
        cert = check_gluing(full2, all_segments())
        assert cert.tau == 0
        assert all(c == () for c in cert.connectors.values())

    def test_golden_single_connector(self, golden):
        cert = check_gluing(golden, all_segments())
        assert cert.tau == 1
        assert cert.connectors[(1, 1)] == (0,)
        assert all(cert.connectors[(a, b)] == () for a, b in [(0, 0), (0, 1), (1, 0)])

    def test_cycle3_connector_lengths(self, cycle3):
        cert = check_gluing(cycle3, all_segments())
        assert cert.tau == 2
        for a in range(3):
            for b in range(3):
                assert len(cert.connectors[(a, b)]) == (b - a - 1) % 3

    def test_tau_vs_diameter(self, golden, cycle3, full2):
        for sys in (golden, cycle3, full2):
            cert = check_gluing(sys, all_segments())
            assert cert.tau == least_path_lengths(sys).max() - 1

    def test_connector_longer_than_tau_refused(self, golden):
        # golden joins 1 to 1 through the connector 0, so tau = 0 is too small
        with pytest.raises(CertificateError, match=r"connector for \(1,1\) has length 1 > tau=0"):
            GluingCertificate(sys=golden, n0=1, tau=0, connectors=check_gluing(golden, all_segments()).connectors)

    def test_incomplete_connector_table_refused(self, full2):
        # GluedSubshift reads the connectors of a certificate without checking them again
        with pytest.raises(CertificateError, match="each of the 4 symbol pairs"):
            GluingCertificate(sys=full2, n0=1, tau=0, connectors={(0, 0): (), (0, 1): (), (1, 0): ()})

    def test_empty_class_refused(self, golden):
        nothing = SegmentClass(lambda words, n: np.zeros(len(words), dtype=bool), "nothing")
        with pytest.raises(CertificateError, match="no segments"):
            check_gluing(golden, nothing)

    def test_randomized_systems(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            sys = random_sft(rng, int(rng.integers(2, 5)))
            cert = check_gluing(sys, all_segments())
            assert cert.tau <= sys.alphabet_size


class TestTracing:
    def test_times_from_lengths_and_gaps(self, golden):
        cert = check_gluing(golden, all_segments())
        # the 1-ending and 1-starting blocks are joined through the connector 0
        glued, times, gaps = glue_words(cert, [(0, 0, 1), (1, 0, 1), (0, 1, 0)])
        assert gaps == [1, 0] and times == [0, 4, 7]
        assert glue_words(cert, [(0, 1, 0, 0, 1)]) == ((0, 1, 0, 0, 1), [0], [])

    def test_empty_word_refused(self, golden):
        cert = check_gluing(golden, all_segments())
        for words in ([(0, 1), ()], [(), (0,)], [()]):
            with pytest.raises(ConfigError, match="cannot glue an empty word"):
                glue_words(cert, words)

    def test_exact_prefix_tracing(self, golden):
        cert = check_gluing(golden, all_segments())
        words = [(0, 0, 1), (1, 0, 1), (0, 1, 0)]
        glued, times, gaps = glue_words(cert, words)
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
                cert = check_gluing(sys, segments)
                pool = {}
                for n in range(1, 8):
                    words = word_matrix(sys, n)
                    members = [tuple(row) for row in words[segments.batch(words, n)].tolist()]
                    if members:
                        pool[n] = members
                for _ in range(8):
                    lengths = [int(rng.choice(sorted(pool))) for _ in range(int(rng.integers(2, 9)))]
                    take = [pool[n][int(rng.integers(len(pool[n])))] for n in lengths]
                    glued, times, gaps = glue_words(cert, take)
                    assert is_admissible(sys, glued)
                    assert times == [0, *accumulate(m + r for m, r in zip(lengths, gaps))]
                    assert all(glued[t : t + len(w)] == w for w, t in zip(take, times))
                    assert all(g <= cert.tau for g in gaps)

    def test_certificate_does_not_glue(self, golden, tmp_path, monkeypatch):
        # the per-connector check is the whole proof: no sample is glued
        def broken(*args, **kwargs):
            raise AssertionError("glue_words called while certifying")

        monkeypatch.setattr(gluing_module, "glue_words", broken)
        assert check_gluing(golden, all_segments()).tau == 1
        data = Path(__file__).parent / "data"
        inputs = ["--system", str(data / "golden.json"), "--potential", str(data / "golden_weighted.json")]
        out = tmp_path / "out.json"
        assert main(["check", *inputs, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_pass"]
        assert main(["construct", *inputs, "--alpha", "0.3", "--eta0", "0.1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certified"]
