"""Orbit-segment classes and prefix/core/suffix decompositions.

A segment class is a decidable set of (word, n) pairs, n <= len(word): the
word is a cylinder witness for an orbit segment of length n. A decomposition
splits every segment of a base class into a prefix part, a core part, and a
suffix part whose lengths add up to n, with each piece landing in its own
class. Classes and splits answer for every row of a word matrix at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import parse_word
from .errors import ConfigError


class SegmentClass(NamedTuple):
    """Decidable collection of orbit segments (word, n).

    membership_batch(words, n) is the predicate: a bool array with one entry
    per row of the word matrix. kind marks structure the partition function
    can exploit:
      "all"     -- every admissible segment belongs;
      "empty"   -- no segment belongs;
      "zero-length" -- only the empty segments (n == 0) belong;
      "generic" -- only the predicate is available.
    """

    membership_batch: Callable[[np.ndarray, int], np.ndarray]
    description: str
    kind: str = "generic"

    def batch(self, words: np.ndarray, n: int) -> np.ndarray:
        return self.membership_batch(words, n)


def all_segments() -> SegmentClass:
    return SegmentClass(lambda words, n: np.ones(len(words), dtype=bool), "all", kind="all")


def empty_segments() -> SegmentClass:
    return SegmentClass(lambda words, n: np.zeros(len(words), dtype=bool), "empty", kind="empty")


def zero_length_segments() -> SegmentClass:
    """The empty orbit segments (n == 0): the affix class of a decomposition
    whose split leaves no prefix or suffix."""
    return SegmentClass(lambda words, n: np.full(len(words), n == 0), "zero-length segments", kind="zero-length")


def union(a: SegmentClass, b: SegmentClass) -> SegmentClass:
    if a.kind == "all" or b.kind == "all":
        return all_segments()
    if a.kind == "empty":
        return b
    if b.kind == "empty":
        return a
    if a.kind == b.kind == "zero-length":
        return a
    return SegmentClass(
        lambda words, n: a.batch(words, n) | b.batch(words, n), f"union({a.description}, {b.description})"
    )


def complement(a: SegmentClass) -> SegmentClass:
    if a.kind == "all":
        return empty_segments()
    if a.kind == "empty":
        return all_segments()
    return SegmentClass(lambda words, n: ~a.batch(words, n), f"complement({a.description})")


class OrbitDecomposition(NamedTuple):
    """Splitting of each segment of `base` into prefix/core/suffix pieces.

    split(words, n) returns int arrays (p, g, s), one entry per row, with
    p + g + s = n; the pieces must satisfy (w, p) in prefix_class,
    (shift^p w, g) in core_class, (shift^{p+g} w, s) in suffix_class.
    """

    base: SegmentClass
    prefix_class: SegmentClass
    core_class: SegmentClass
    suffix_class: SegmentClass
    split: Callable[[np.ndarray, int], tuple]
    name: str = "decomposition"


def trivial_decomposition() -> OrbitDecomposition:
    """Everything is core: base = all segments, empty prefix and suffix."""
    return OrbitDecomposition(
        base=all_segments(),
        prefix_class=zero_length_segments(),
        core_class=all_segments(),
        suffix_class=zero_length_segments(),
        split=lambda words, n: (np.zeros(len(words), int), np.full(len(words), n), np.zeros(len(words), int)),
        name="trivial",
    )


def prefix_run_decomposition(symbol: int, cap: int) -> OrbitDecomposition:
    """Prefix = leading run of `symbol` (capped), remainder is core, no suffix."""

    def run(words, n):  # each row's leading run of `symbol` within its first n symbols
        return np.logical_and.accumulate(words[:, :n] == symbol, axis=1).sum(axis=1)

    def split(words, n):
        p = np.minimum(run(words, n), cap)
        return p, n - p, np.zeros_like(p)

    prefix = SegmentClass(lambda words, n: (n <= cap) & (run(words, n) >= n), f"runs of symbol {symbol} up to {cap}")

    # any segment may appear as a core piece; the split just strips the run
    core = all_segments()._replace(description="post-run cores")
    return OrbitDecomposition(
        base=all_segments(),
        prefix_class=prefix,
        core_class=core,
        suffix_class=zero_length_segments(),
        split=split,
        name=f"prefix-run({symbol},{cap})",
    )


def affix_bounded(dec: OrbitDecomposition, cap: int) -> SegmentClass:
    """Segments of the base class whose prefix and suffix pieces are both <= cap.

    When the decomposition has identically zero affixes this is the whole
    base class, and the structured partition-function route stays available.
    Only base rows are split, since a table split refuses rows it has no entry for.
    """
    if cap < 0:
        raise ConfigError(f"affix cap must be >= 0, got {cap}")
    if dec.name == "trivial" and dec.base.kind == "all":
        return all_segments()._replace(description=f"core(cap={cap})=all")

    def member(words, n):
        inside = np.array(dec.base.batch(words, n), dtype=bool)
        p, _g, s = dec.split(words if inside.all() else words[inside], n)
        inside[inside] = (p <= cap) & (s <= cap)
        return inside

    return SegmentClass(member, f"{dec.name} core(cap={cap})")


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def load_decomposition(path) -> OrbitDecomposition:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read decomposition file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"decomposition file {path} is not valid JSON: {exc}") from exc
    return decomposition_from_dict(data, origin=str(path))


def decomposition_from_dict(data, origin="<dict>") -> OrbitDecomposition:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"{origin}: expected an object with a 'kind' field")
    kind = data["kind"]
    if kind == "trivial":
        return trivial_decomposition()
    if kind == "prefix-run":
        symbol = data.get("symbol")
        cap = data.get("cap")
        if not isinstance(symbol, int) or not isinstance(cap, int) or cap < 0:
            raise ConfigError(f"{origin}: prefix-run needs integer 'symbol' and 'cap' >= 0")
        return prefix_run_decomposition(symbol, cap)
    if kind == "table":
        return _table_decomposition(data, origin)
    raise ConfigError(f"{origin}: unknown decomposition kind {kind!r}")


def _table_decomposition(data, origin) -> OrbitDecomposition:
    """Explicit small-segment table: lists of [word, n] per class plus split triples."""

    def as_int(value, key):
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{origin}: '{key}' lengths must be integers, got {value!r}") from None

    def read_class(key):
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise ConfigError(f"{origin}: '{key}' must be a list of [word, n] pairs")
        members = set()
        for e in entries:
            if not (isinstance(e, list) and len(e) == 2):
                raise ConfigError(f"{origin}: bad entry {e!r} in '{key}'")
            members.add((parse_word(str(e[0])), as_int(e[1], key)))
        return members

    base_m = read_class("base")
    prefix_m = read_class("prefix")
    core_m = read_class("core")
    suffix_m = read_class("suffix")
    split_entries = data.get("split", [])
    if not isinstance(split_entries, list):
        raise ConfigError(f"{origin}: 'split' must be a list of [word, n, p, g, s] entries")
    splits = {}
    for e in split_entries:
        if not (isinstance(e, list) and len(e) == 5):
            raise ConfigError(f"{origin}: split entries must be [word, n, p, g, s]")
        n, p, g, s = (as_int(v, "split") for v in e[1:])
        splits[(parse_word(str(e[0])), n)] = (p, g, s)

    def spells(words, n, u):
        # a table word stands for a whole row or for its first n symbols
        if len(u) not in (words.shape[1], min(words.shape[1], n)):
            return np.zeros(len(words), dtype=bool)
        return (words[:, :len(u)] == u).all(axis=1)

    def in_set(members):
        def f(words, n):
            out = np.zeros(len(words), dtype=bool)
            for u, k in members:
                if k == n:
                    out |= spells(words, n, u)
            return out

        return f

    def split(words, n):
        pgs = np.zeros((len(words), 3), dtype=int)
        found = np.zeros(len(words), dtype=bool)
        # keys spelling the whole row come last, so they win over those spelling its first n symbols
        for u in sorted((u for u, k in splits if k == n), key=lambda u: len(u) == words.shape[1]):
            hit = spells(words, n, u)
            pgs[hit] = splits[(u, n)]
            found |= hit
        if not found.all():
            w = tuple(int(x) for x in words[np.argmin(found)])
            raise ConfigError(f"{origin}: no split entry for segment ({w}, {n})")
        return tuple(pgs.T)

    zero_ok = zero_length_segments()
    return OrbitDecomposition(
        base=SegmentClass(in_set(base_m), "table base"),
        prefix_class=union(SegmentClass(in_set(prefix_m), "table prefix"), zero_ok),
        core_class=union(SegmentClass(in_set(core_m), "table core"), zero_ok),
        suffix_class=union(SegmentClass(in_set(suffix_m), "table suffix"), zero_ok),
        split=split,
        name="table",
    )
