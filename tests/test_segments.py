import pytest

from shiftpress import (
    all_segments,
    empty_segments,
    trivial_decomposition,
    prefix_run_decomposition,
    affix_bounded,
)
from shiftpress.segments import (
    SegmentClass,
    OrbitDecomposition,
    union,
    complement,
    decomposition_from_dict,
    zero_length_segments,
)
from shiftpress import thermo
from shiftpress.core import Resolution, word_matrix
from shiftpress.errors import ConfigError
from shiftpress.potentials import Potential


def sample_segments(sys, max_len=8):
    for n in range(1, max_len + 1):
        for row in word_matrix(sys, n):
            yield tuple(int(s) for s in row), n


def check_split(dec, segments) -> list:
    """[(word, n, reason)] for every segment of the base class whose split
    is not a prefix/core/suffix split into the decomposition's classes
    (empty = pass)."""
    bad = []
    for word, n in segments:
        w = tuple(int(s) for s in word)
        if len(w) < n or not dec.base.membership(w, n):
            continue
        p, g, s = dec.split(w, n)
        if p + g + s != n or min(p, g, s) < 0:
            bad.append((w, n, f"split {p}+{g}+{s} != {n}"))
            continue
        if not dec.prefix_class.membership(w, p):
            bad.append((w, n, f"prefix piece of length {p} not in class"))
        elif not dec.core_class.membership(w[p:], g):
            bad.append((w, n, f"core piece of length {g} not in class"))
        elif not dec.suffix_class.membership(w[p + g:], s):
            bad.append((w, n, f"suffix piece of length {s} not in class"))
    return bad


class TestSegmentClass:
    def test_all_and_empty(self):
        assert all_segments().membership((0, 1), 2)
        assert not empty_segments().membership((0, 1), 2)

    def test_union_complement(self):
        starts_zero = SegmentClass(lambda w, n: n > 0 and w[0] == 0, "starts-0")
        u = union(starts_zero, empty_segments())
        assert u.membership((0, 1), 2) and not u.membership((1, 0), 2)
        c = complement(starts_zero)
        assert c.membership((1, 0), 2) and not c.membership((0, 1), 2)

    def test_batch_matches_scalar(self, golden):
        starts_zero = SegmentClass(lambda w, n: w[0] == 0, "starts-0")
        words = word_matrix(golden, 4)
        got = starts_zero.batch(words, 4)
        for row, flag in zip(words, got):
            assert flag == starts_zero.membership(tuple(int(s) for s in row), 4)


    def test_zero_length_batch_matches_scalar(self, golden):
        zero = zero_length_segments()
        words = word_matrix(golden, 4)
        for n in range(4):
            expected = [zero.membership(tuple(int(s) for s in row), n) for row in words]
            assert zero.batch(words, n).tolist() == expected

    def test_trivial_affixes_are_batched(self, golden):
        dec = trivial_decomposition()
        affixes = union(dec.prefix_class, dec.suffix_class)
        assert dec.prefix_class.membership_batch is not None
        assert dec.suffix_class.membership_batch is not None
        words = word_matrix(golden, 3)
        for n in range(4):
            expected = [affixes.membership(tuple(int(s) for s in row), n) for row in words]
            assert affixes.batch(words, n).tolist() == expected

    def test_zero_length_union_has_no_words(self, golden, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("zero-length class enumerated")

        affixes = union(zero_length_segments(), zero_length_segments())
        assert affixes.kind == "zero-length"
        monkeypatch.setattr(thermo, "word_matrix", refuse)
        phi = Potential.zero(golden)
        for n in (1, 2, 10):
            assert thermo.partition_function(phi, affixes, n, Resolution(5)) == thermo.NEG_INF


class TestDecompositions:
    def test_trivial_splits_everything_to_core(self, golden):
        dec = trivial_decomposition()
        assert check_split(dec, sample_segments(golden, 6)) == []
        assert dec.split((0, 1, 0), 3) == (0, 3, 0)

    def test_prefix_run_golden(self, golden):
        dec = prefix_run_decomposition(symbol=1, cap=1)
        assert check_split(dec, sample_segments(golden, 8)) == []
        assert dec.split((1, 0, 1), 3) == (1, 2, 0)
        assert dec.split((0, 1, 0), 3) == (0, 3, 0)

    def test_affix_bounded_trivial_is_everything(self, golden):
        core = affix_bounded(trivial_decomposition(), 0)
        assert core.kind == "all"
        for seg in sample_segments(golden, 5):
            assert core.membership(*seg)

    def test_affix_bounded_prefix_run(self, golden):
        dec = prefix_run_decomposition(symbol=1, cap=1)
        # the golden-mean shift caps 1-runs at length 1, so cap 1 keeps all
        core1 = affix_bounded(dec, 1)
        assert all(core1.membership(w, n) for w, n in sample_segments(golden, 8))
        # cap 0 drops exactly the segments starting with 1
        core0 = affix_bounded(dec, 0)
        for w, n in sample_segments(golden, 6):
            assert core0.membership(w, n) == (w[0] != 1)

    def test_forced_prefix_empty_at_cap(self, full2):
        dec = OrbitDecomposition(
            base=all_segments(),
            prefix_class=SegmentClass(lambda w, n: n <= 1, "one-step prefixes"),
            core_class=all_segments(),
            suffix_class=SegmentClass(lambda w, n: n == 0, "nothing"),
            split=lambda w, n: (min(1, n), n - min(1, n), 0),
            name="always-prefix-1",
        )
        core0 = affix_bounded(dec, 0)
        assert not any(core0.membership(w, n) for w, n in sample_segments(full2, 4))
        core1 = affix_bounded(dec, 1)
        assert all(core1.membership(w, n) for w, n in sample_segments(full2, 4))

    def test_affix_bound_monotone(self, golden):
        dec = prefix_run_decomposition(symbol=0, cap=3)
        segs = list(sample_segments(golden, 7))
        for cap in range(0, 3):
            small = affix_bounded(dec, cap)
            big = affix_bounded(dec, cap + 1)
            for w, n in segs:
                if small.membership(w, n):
                    assert big.membership(w, n)

    @pytest.mark.parametrize("kind", ["prefix-run", "table"])
    def test_affix_bounded_batch_matches_membership(self, full2, kind):
        if kind == "prefix-run":
            dec = prefix_run_decomposition(symbol=0, cap=2)
        else:
            dec = decomposition_from_dict(
                {
                    "kind": "table",
                    "base": [["010", 3], ["011", 3], ["110", 3], ["000", 3]],
                    "prefix": [["0", 1], ["01", 2]],
                    "core": [["10", 2], ["11", 2], ["1", 1], ["000", 3]],
                    "suffix": [["0", 1]],
                    "split": [["010", 3, 1, 2, 0], ["011", 3, 2, 1, 0],
                              ["110", 3, 0, 2, 1], ["000", 3, 0, 3, 0]],
                }
            )
        words = word_matrix(full2, 5)
        for cap in (0, 1, 2):
            core = affix_bounded(dec, cap)
            for n in range(1, 6):
                expected = [core.membership(tuple(int(s) for s in row), n) for row in words]
                assert core.batch(words, n).tolist() == expected
        assert any(affix_bounded(dec, 0).batch(words, 3)) and not all(affix_bounded(dec, 0).batch(words, 3))

    def test_split_violation_reported(self, full2):
        broken = OrbitDecomposition(
            base=all_segments(),
            prefix_class=empty_segments(),
            core_class=all_segments(),
            suffix_class=empty_segments(),
            split=lambda w, n: (1, n - 1, 0),
            name="broken",
        )
        bad = check_split(broken, sample_segments(full2, 3))
        assert bad and "prefix" in bad[0][2]


class TestLoader:
    def test_trivial(self):
        dec = decomposition_from_dict({"kind": "trivial"})
        assert dec.name == "trivial"

    def test_prefix_run(self):
        dec = decomposition_from_dict({"kind": "prefix-run", "symbol": 1, "cap": 2})
        assert dec.split((1, 1, 0), 3) == (2, 1, 0)

    def test_table(self):
        dec = decomposition_from_dict(
            {
                "kind": "table",
                "base": [["010", 3]],
                "prefix": [["0", 1]],
                "core": [["10", 2]],
                "suffix": [],
                "split": [["010", 3, 1, 2, 0]],
            }
        )
        assert dec.split((0, 1, 0), 3) == (1, 2, 0)
        assert dec.base.membership((0, 1, 0), 3)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            decomposition_from_dict({"kind": "mystery"})
