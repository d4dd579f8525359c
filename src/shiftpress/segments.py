"""Orbit-segment classes and prefix/core/suffix decompositions.

A segment class is a decidable set of (word, n) pairs, n <= len(word): the
word is a cylinder witness for an orbit segment of length n. A decomposition
splits every segment of a base class into a prefix part, a core part, and a
suffix part whose lengths add up to n, with each piece landing in its own
class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import parse_word
from .errors import ConfigError


@dataclass(frozen=True)
class SegmentClass:
    """Decidable collection of orbit segments (word, n).

    kind marks structure the partition function can exploit:
      "all"     -- every admissible segment belongs;
      "empty"   -- no segment belongs;
      "zero-length" -- only the empty segments (n == 0) belong;
      "generic" -- only the predicate is available.
    membership_batch, when provided, vectorizes the predicate over a word
    matrix (rows) for a fixed n.
    """

    membership: Callable[[tuple, int], bool]
    description: str
    kind: str = "generic"
    membership_batch: Optional[Callable[[np.ndarray, int], np.ndarray]] = None

    def batch(self, words: np.ndarray, n: int) -> np.ndarray:
        if self.kind == "all":
            return np.ones(words.shape[0], dtype=bool)
        if self.kind == "empty":
            return np.zeros(words.shape[0], dtype=bool)
        if self.membership_batch is not None:
            return np.asarray(self.membership_batch(words, n), dtype=bool)
        return np.fromiter(
            (self.membership(tuple(int(s) for s in row), n) for row in words),
            dtype=bool,
            count=words.shape[0],
        )


def all_segments() -> SegmentClass:
    return SegmentClass(lambda w, n: True, "all", kind="all")


def empty_segments() -> SegmentClass:
    return SegmentClass(lambda w, n: False, "empty", kind="empty")


def zero_length_segments() -> SegmentClass:
    """The empty orbit segments (n == 0): the affix class of a decomposition
    whose split leaves no prefix or suffix."""
    return SegmentClass(
        lambda w, n: n == 0,
        "zero-length segments",
        kind="zero-length",
        membership_batch=lambda words, n: np.full(len(words), n == 0),
    )


def union(a: SegmentClass, b: SegmentClass) -> SegmentClass:
    if a.kind == "all" or b.kind == "all":
        return all_segments()
    if a.kind == "empty":
        return b
    if b.kind == "empty":
        return a
    if a.kind == b.kind == "zero-length":
        return a

    def batch(words, n):
        return a.batch(words, n) | b.batch(words, n)

    return SegmentClass(
        lambda w, n: a.membership(w, n) or b.membership(w, n),
        f"union({a.description}, {b.description})",
        membership_batch=batch,
    )


def complement(a: SegmentClass) -> SegmentClass:
    if a.kind == "all":
        return empty_segments()
    if a.kind == "empty":
        return all_segments()

    def batch(words, n):
        return ~a.batch(words, n)

    return SegmentClass(
        lambda w, n: not a.membership(w, n),
        f"complement({a.description})",
        membership_batch=batch,
    )


@dataclass(frozen=True)
class OrbitDecomposition:
    """Splitting of each segment of `base` into prefix/core/suffix pieces.

    split(word, n) returns (p, g, s) with p + g + s = n; the pieces must
    satisfy (w, p) in prefix_class, (shift^p w, g) in core_class,
    (shift^{p+g} w, s) in suffix_class.
    """

    base: SegmentClass
    prefix_class: SegmentClass
    core_class: SegmentClass
    suffix_class: SegmentClass
    split: Callable[[tuple, int], tuple]
    name: str = "decomposition"


def trivial_decomposition() -> OrbitDecomposition:
    """Everything is core: base = all segments, empty prefix and suffix."""
    return OrbitDecomposition(
        base=all_segments(),
        prefix_class=zero_length_segments(),
        core_class=all_segments(),
        suffix_class=zero_length_segments(),
        split=lambda w, n: (0, n, 0),
        name="trivial",
    )


def prefix_run_decomposition(symbol: int, cap: int) -> OrbitDecomposition:
    """Prefix = leading run of `symbol` (capped), remainder is core, no suffix."""

    def run(w, n):
        r = 0
        while r < n and w[r] == symbol:
            r += 1
        return min(r, cap)

    prefix = SegmentClass(
        lambda w, n: n <= cap and all(s == symbol for s in w[:n]),
        f"runs of symbol {symbol} up to {cap}",
    )

    # any segment may appear as a core piece; the split just strips the run
    core = SegmentClass(lambda w, n: True, "post-run cores", kind="all")
    return OrbitDecomposition(
        base=all_segments(),
        prefix_class=prefix,
        core_class=core,
        suffix_class=zero_length_segments(),
        split=lambda w, n: (run(w, n), n - run(w, n), 0),
        name=f"prefix-run({symbol},{cap})",
    )


def affix_bounded(dec: OrbitDecomposition, cap: int) -> SegmentClass:
    """Segments of the base class whose prefix and suffix pieces are both <= cap.

    When the decomposition has identically zero affixes this is the whole
    base class, and the structured partition-function route stays available.
    """
    if cap < 0:
        raise ConfigError(f"affix cap must be >= 0, got {cap}")
    if dec.name == "trivial" and dec.base.kind == "all":
        return SegmentClass(lambda w, n: True, f"core(cap={cap})=all", kind="all")

    def member(w, n):
        if not dec.base.membership(w, n):
            return False
        p, g, s = dec.split(w, n)
        return p <= cap and s <= cap

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

    def in_set(members):
        def f(w, n):
            return (tuple(w[:n]) if len(w) > n else tuple(w), n) in members or (tuple(w), n) in members

        return f

    def split(w, n):
        key = (tuple(w), n)
        if key in splits:
            return splits[key]
        key = (tuple(w[:n]), n)
        if key in splits:
            return splits[key]
        raise ConfigError(f"{origin}: no split entry for segment ({w}, {n})")

    zero_ok = zero_length_segments()
    return OrbitDecomposition(
        base=SegmentClass(in_set(base_m), "table base"),
        prefix_class=union(SegmentClass(in_set(prefix_m), "table prefix"), zero_ok),
        core_class=union(SegmentClass(in_set(core_m), "table core"), zero_ok),
        suffix_class=union(SegmentClass(in_set(suffix_m), "table suffix"), zero_ok),
        split=split,
        name="table",
    )
