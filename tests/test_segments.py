import numpy as np
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
from shiftpress.core import Resolution, parse_word, word_matrix
from shiftpress.errors import ConfigError
from shiftpress.potentials import Potential


def sample_segments(sys, max_len=8):
    for n in range(1, max_len + 1):
        for row in word_matrix(sys, n):
            yield tuple(int(s) for s in row), n


def one_row(w):
    """A single word as a one-row word matrix."""
    return np.array([tuple(w)], dtype=np.uint8).reshape(1, len(w))


def member(cls, w, n) -> bool:
    return bool(cls.batch(one_row(w), n)[0])


def split_one(dec, w, n) -> tuple:
    return tuple(int(piece[0]) for piece in dec.split(one_row(w), n))


def check_split(dec, segments) -> list:
    """[(word, n, reason)] for every segment of the base class whose split
    is not a prefix/core/suffix split into the decomposition's classes
    (empty = pass)."""
    bad = []
    for word, n in segments:
        w = tuple(int(s) for s in word)
        if len(w) < n or not member(dec.base, w, n):
            continue
        p, g, s = split_one(dec, w, n)
        if p + g + s != n or min(p, g, s) < 0:
            bad.append((w, n, f"split {p}+{g}+{s} != {n}"))
            continue
        if not member(dec.prefix_class, w, p):
            bad.append((w, n, f"prefix piece of length {p} not in class"))
        elif not member(dec.core_class, w[p:], g):
            bad.append((w, n, f"core piece of length {g} not in class"))
        elif not member(dec.suffix_class, w[p + g:], s):
            bad.append((w, n, f"suffix piece of length {s} not in class"))
    return bad


# Per-word references: the classes and splits as the package once computed
# them, one word (a tuple) at a time.

def reference_prefix_run(symbol, cap):
    """(prefix membership, split) of the prefix-run decomposition."""

    def run(w, n):
        r = 0
        while r < n and w[r] == symbol:
            r += 1
        return min(r, cap)

    def prefix(w, n):
        return n <= cap and all(s == symbol for s in w[:n])

    return prefix, lambda w, n: (run(w, n), n - run(w, n), 0)


def reference_affix_bounded(base, split, cap):
    def member_(w, n):
        if not base(w, n):
            return False
        p, g, s = split(w, n)
        return p <= cap and s <= cap

    return member_


def reference_table(data):
    """({class key: membership}, split) of a table decomposition; the affix
    and core classes include the zero-length segments."""
    splits = {(parse_word(str(e[0])), e[1]): tuple(e[2:]) for e in data.get("split", [])}

    def in_set(key, zero_ok):
        members = {(parse_word(str(u)), k) for u, k in data.get(key, [])}

        def f(w, n):
            hit = (tuple(w[:n]) if len(w) > n else tuple(w), n) in members or (tuple(w), n) in members
            return hit or (zero_ok and n == 0)

        return f

    def split(w, n):
        for key in ((tuple(w), n), (tuple(w[:n]), n)):
            if key in splits:
                return splits[key]
        raise ConfigError(f"no split entry for segment ({w}, {n})")

    classes = {key: in_set(key, key != "base") for key in ("base", "prefix", "core", "suffix")}
    return classes, split


def rows_of(words):
    return [tuple(int(s) for s in row) for row in words]


WELL_FORMED_TABLE = {
    "kind": "table",
    "base": [["010", 3], ["011", 3], ["110", 3], ["000", 3]],
    "prefix": [["0", 1], ["01", 2]],
    "core": [["10", 2], ["11", 2], ["1", 1], ["000", 3]],
    "suffix": [["0", 1]],
    "split": [["010", 3, 1, 2, 0], ["011", 3, 2, 1, 0],
              ["110", 3, 0, 2, 1], ["000", 3, 0, 3, 0]],
}

# keys of two lengths for n = 2 on 4-words: "0110" spells the whole row and
# wins over "01", which spells the first two symbols
TWO_LENGTH_TABLE = {
    "kind": "table",
    "base": [["01", 2], ["0110", 2], ["11", 2], ["1", 1], ["0000", 4]],
    "prefix": [["0", 1], ["011", 3]],
    "core": [["1", 1], ["10", 2], ["0000", 4]],
    "suffix": [["1", 1]],
    "split": [["01", 2, 1, 1, 0], ["0110", 2, 0, 2, 0], ["11", 2, 0, 1, 1],
              ["1", 1, 0, 1, 0], ["0000", 4, 0, 4, 0]],
}


class TestSegmentClass:
    def test_all_and_empty(self):
        assert member(all_segments(), (0, 1), 2)
        assert not member(empty_segments(), (0, 1), 2)

    def test_union_complement(self):
        starts_zero = SegmentClass(lambda words, n: (n > 0) & (words[:, 0] == 0), "starts-0")
        u = union(starts_zero, empty_segments())
        assert member(u, (0, 1), 2) and not member(u, (1, 0), 2)
        c = complement(starts_zero)
        assert member(c, (1, 0), 2) and not member(c, (0, 1), 2)

    def test_batch_matches_scalar(self, golden):
        starts_zero = SegmentClass(lambda words, n: words[:, 0] == 0, "starts-0")
        words = word_matrix(golden, 4)
        got = starts_zero.batch(words, 4)
        for row, flag in zip(words, got):
            assert flag == member(starts_zero, row, 4)


    def test_zero_length_batch_matches_scalar(self, golden):
        zero = zero_length_segments()
        words = word_matrix(golden, 4)
        for n in range(4):
            expected = [member(zero, row, n) for row in words]
            assert zero.batch(words, n).tolist() == expected == [n == 0] * len(words)

    def test_trivial_affixes_are_batched(self, golden):
        dec = trivial_decomposition()
        affixes = union(dec.prefix_class, dec.suffix_class)
        assert dec.prefix_class.membership_batch is not None
        assert dec.suffix_class.membership_batch is not None
        words = word_matrix(golden, 3)
        for n in range(4):
            expected = [member(affixes, row, n) for row in words]
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
        assert split_one(dec, (0, 1, 0), 3) == (0, 3, 0)

    def test_prefix_run_golden(self, golden):
        dec = prefix_run_decomposition(symbol=1, cap=1)
        assert check_split(dec, sample_segments(golden, 8)) == []
        assert split_one(dec, (1, 0, 1), 3) == (1, 2, 0)
        assert split_one(dec, (0, 1, 0), 3) == (0, 3, 0)

    def test_affix_bounded_trivial_is_everything(self, golden):
        core = affix_bounded(trivial_decomposition(), 0)
        assert core.kind == "all"
        for seg in sample_segments(golden, 5):
            assert member(core, *seg)

    def test_affix_bounded_prefix_run(self, golden):
        dec = prefix_run_decomposition(symbol=1, cap=1)
        # the golden-mean shift caps 1-runs at length 1, so cap 1 keeps all
        core1 = affix_bounded(dec, 1)
        assert all(member(core1, w, n) for w, n in sample_segments(golden, 8))
        # cap 0 drops exactly the segments starting with 1
        core0 = affix_bounded(dec, 0)
        for w, n in sample_segments(golden, 6):
            assert member(core0, w, n) == (w[0] != 1)

    def test_forced_prefix_empty_at_cap(self, full2):
        dec = OrbitDecomposition(
            base=all_segments(),
            prefix_class=SegmentClass(lambda words, n: np.full(len(words), n <= 1), "one-step prefixes"),
            core_class=all_segments(),
            suffix_class=SegmentClass(lambda words, n: np.full(len(words), n == 0), "nothing"),
            split=lambda words, n: tuple(np.full(len(words), k) for k in (min(1, n), n - min(1, n), 0)),
            name="always-prefix-1",
        )
        core0 = affix_bounded(dec, 0)
        assert not any(member(core0, w, n) for w, n in sample_segments(full2, 4))
        core1 = affix_bounded(dec, 1)
        assert all(member(core1, w, n) for w, n in sample_segments(full2, 4))

    def test_affix_bound_monotone(self, golden):
        dec = prefix_run_decomposition(symbol=0, cap=3)
        segs = list(sample_segments(golden, 7))
        for cap in range(0, 3):
            small = affix_bounded(dec, cap)
            big = affix_bounded(dec, cap + 1)
            for w, n in segs:
                if member(small, w, n):
                    assert member(big, w, n)

    @pytest.mark.parametrize("kind", ["prefix-run", "table"])
    def test_affix_bounded_batch_matches_membership(self, full2, kind):
        if kind == "prefix-run":
            dec = prefix_run_decomposition(symbol=0, cap=2)
            base, split = (lambda w, n: True), reference_prefix_run(0, 2)[1]
        else:
            dec = decomposition_from_dict(WELL_FORMED_TABLE)
            classes, split = reference_table(WELL_FORMED_TABLE)
            base = classes["base"]
        words = word_matrix(full2, 5)
        for cap in (0, 1, 2):
            core = affix_bounded(dec, cap)
            reference = reference_affix_bounded(base, split, cap)
            for n in range(1, 6):
                expected = [reference(w, n) for w in rows_of(words)]
                assert core.batch(words, n).tolist() == expected
                assert [member(core, w, n) for w in rows_of(words)] == expected
        assert any(affix_bounded(dec, 0).batch(words, 3)) and not all(affix_bounded(dec, 0).batch(words, 3))

    @pytest.mark.parametrize("symbol", [0, 1])
    def test_prefix_run_batch_matches_reference(self, golden, full2, symbol):
        for sys in (golden, full2):
            for cap in range(5):
                dec = prefix_run_decomposition(symbol, cap)
                prefix, split = reference_prefix_run(symbol, cap)
                for n in range(7):
                    for width in (n, n + 2):
                        words = word_matrix(sys, width) if width else np.zeros((1, 0), dtype=np.uint8)
                        ws = rows_of(words)
                        assert dec.prefix_class.batch(words, n).tolist() == [prefix(w, n) for w in ws]
                        got = np.stack(dec.split(words, n), axis=1).tolist()
                        assert got == [list(split(w, n)) for w in ws]
                        for affix_cap in range(4):
                            reference = reference_affix_bounded(lambda w, n: True, split, affix_cap)
                            want = [reference(w, n) for w in ws]
                            assert affix_bounded(dec, affix_cap).batch(words, n).tolist() == want

    @pytest.mark.parametrize("table", [WELL_FORMED_TABLE, TWO_LENGTH_TABLE], ids=["three", "two-lengths"])
    def test_table_batch_matches_reference(self, full2, table):
        dec = decomposition_from_dict(table)
        classes, split = reference_table(table)
        got_classes = {"base": dec.base, "prefix": dec.prefix_class,
                       "core": dec.core_class, "suffix": dec.suffix_class}
        for width in range(1, 6):
            words = word_matrix(full2, width)
            ws = rows_of(words)
            for n in range(6):
                for key, cls in got_classes.items():
                    assert cls.batch(words, n).tolist() == [classes[key](w, n) for w in ws], (key, width, n)
                base = dec.base.batch(words, n)
                got = np.stack(dec.split(words[base], n), axis=1).tolist()
                assert got == [list(split(w, n)) for w, b in zip(ws, base) if b]
        # the whole-row key wins over the key spelling the first n symbols
        if table is TWO_LENGTH_TABLE:
            assert split_one(dec, (0, 1, 1, 0), 2) == (0, 2, 0)
            assert split_one(dec, (0, 1, 1, 1), 2) == (1, 1, 0)

    def test_table_split_refuses_the_first_row_without_an_entry(self, full2):
        dec = decomposition_from_dict(
            {"kind": "table", "base": [["0", 1], ["1", 1]], "split": [["0", 1, 0, 1, 0]]}, origin="t.json"
        )
        words = word_matrix(full2, 2)
        with pytest.raises(ConfigError, match=r"^t\.json: no split entry for segment \(\(1, 0\), 1\)$"):
            dec.split(words, 1)
        with pytest.raises(ConfigError, match=r"segment \(\(1,\), 1\)$"):
            affix_bounded(dec, 0).batch(word_matrix(full2, 1), 1)

    def test_split_violation_reported(self, full2):
        broken = OrbitDecomposition(
            base=all_segments(),
            prefix_class=empty_segments(),
            core_class=all_segments(),
            suffix_class=empty_segments(),
            split=lambda words, n: tuple(np.full(len(words), k) for k in (1, n - 1, 0)),
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
        assert split_one(dec, (1, 1, 0), 3) == (2, 1, 0)

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
        assert split_one(dec, (0, 1, 0), 3) == (1, 2, 0)
        assert member(dec.base, (0, 1, 0), 3)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            decomposition_from_dict({"kind": "mystery"})
