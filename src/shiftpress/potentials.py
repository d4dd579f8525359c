"""Locally constant potentials: finite-memory real functions on a subshift.

A memory-m potential reads only the first m symbols of a point. These are
Holder in the dyadic metric, admit an exact transfer-operator treatment,
and satisfy the Bowen property at every level l with the constant
K = sum over j = l..m-1 of `variation` at level j, which is 0 for l >= m:
that is why the package restricts to them.

The Birkhoff sum of a memory-1 potential over a word w is defined as
sum_a count_a(w) * phi(a), the terms added in symbol order: it reads the
symbol counts alone, so words with the same symbols in any order get
bitwise-equal sums.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import ShiftSystem, Resolution, word_matrix, word_str
from .errors import ConfigError, PreconditionError
from . import kernels

# A Birkhoff sum here has far fewer than MAX_SUM_TERMS terms, and the widest
# value formed from phi is the difference of two of them (the exp(x - max)
# shifts of the pressure routes), so |phi| <= VALUE_BOUND keeps every such
# value finite.
MAX_SUM_TERMS = 2**32
VALUE_BOUND = float(np.finfo(float).max) / (2 * MAX_SUM_TERMS)


class Potential:
    """Memory-m potential on one system, given by a table over its admissible
    length-m words. Its values are kept in one read-only array indexed by a
    word's base-A code, with -inf in the slots of inadmissible words."""

    def __init__(self, sys: ShiftSystem, memory: int, table: dict):
        norm = {tuple(int(s) for s in k): float(v) for k, v in table.items()}
        sized = [w for w in norm if len(w) == memory]
        self._fill(sys, memory, sized, [norm[w] for w in sized], [w for w in norm if len(w) != memory])

    @classmethod
    def from_arrays(cls, sys: ShiftSystem, memory: int, keys, values) -> "Potential":
        """The potential whose table maps row i of the (count, memory) integer
        matrix `keys`, rows distinct, to values[i]; refused as the
        constructor refuses a table."""
        out = object.__new__(cls)
        out._fill(sys, memory, keys, values, [])
        return out

    def _fill(self, sys: ShiftSystem, memory: int, keys, values, unsized: list):
        """Set the value array from the table's m-words (rows of keys) and their
        values; unsized lists its keys of other lengths."""
        if memory < 1:
            raise ConfigError(f"memory must be >= 1, got {memory}")
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, memory)
        A = sys.alphabet_size
        # only words over the alphabet have a code; any other key is inadmissible
        coded = ((keys >= 0) & (keys < A)).all(axis=1)
        uncoded = unsized + list(map(tuple, keys[~coded].tolist()))
        keys, values = keys[coded], np.asarray(values, dtype=float)[coded]
        self.sys = sys
        self.memory = memory
        place = A ** np.arange(memory - 1, -1, -1)
        words = word_matrix(sys, memory)
        admissible = words.astype(np.int64) @ place
        codes = keys @ place
        missing = words[~np.isin(admissible, codes)]
        unlisted = keys[~np.isin(codes, admissible)].tolist()
        extra = sorted(uncoded + list(map(tuple, unlisted)))
        if len(missing) or extra:
            parts = []
            if len(missing):
                parts.append("missing admissible words: " + ", ".join(word_str(w) for w in missing))
            if extra:
                parts.append("entries for inadmissible words: " + ", ".join(word_str(w) for w in extra))
            raise ConfigError("potential table invalid; " + "; ".join(parts))
        self.values_flat = np.full(A**memory, -np.inf)
        self.values_flat[codes] = values
        self.values_flat.setflags(write=False)

    @classmethod
    def constant(cls, sys: ShiftSystem, c: float) -> "Potential":
        return cls(sys, 1, {(a,): c for a in range(sys.alphabet_size)})

    @classmethod
    def zero(cls, sys: ShiftSystem) -> "Potential":
        return cls.constant(sys, 0.0)

    @classmethod
    def from_symbol_values(cls, sys: ShiftSystem, values) -> "Potential":
        return cls(sys, 1, {(a,): values[a] for a in range(sys.alphabet_size)})

    def __call__(self, word) -> float:
        """phi at a point starting with the word (its first memory symbols)."""
        if len(word) < self.memory:
            raise PreconditionError(f"phi needs {self.memory} symbols, got {len(word)}")
        A = self.sys.alphabet_size
        code = 0
        for s in word[: self.memory]:
            if not 0 <= s < A:  # such a symbol would alias another word's code
                raise PreconditionError(f"symbol {s} is outside the alphabet of {A} symbols")
            code = code * A + int(s)
        return float(self.values_flat[code])

    @property
    def max_value(self) -> float:
        return float(self.values_flat.max())

    @property
    def min_value(self) -> float:
        return float(self.values_flat[self.values_flat > -np.inf].min())

    @property
    def spread(self) -> float:
        """var(phi) = max - min over admissible memory words."""
        return self.max_value - self.min_value

    def shifted(self, c: float) -> "Potential":
        """phi + c; phi itself, lift included, when c is 0."""
        if c == 0:
            return self
        out = object.__new__(Potential)
        out.sys, out.memory = self.sys, self.memory
        out.values_flat = self.values_flat + c
        out.values_flat.setflags(write=False)
        return out

    @cached_property
    def lift(self) -> "_Lift":
        """The transfer lift of phi, built on first use and kept."""
        return _Lift(self)


class _Lift:
    """States are admissible words of length max(memory-1, 1), kept as their
    count and their increasing base-A codes; appending a symbol steps the
    state and, when a full memory window closes, applies phi.

    The steps are parallel edge arrays ordered by source state, then symbol:
    src -> dst, with wgt the phi value of the window the step closes. For
    memory m >= 2 the steps are the admissible m-words in lexicographic
    order, and the edge graph is the m-block presentation of the shift.
    """

    def __init__(self, phi: Potential):
        sys = phi.sys
        self.context = c = max(phi.memory - 1, 1)
        self.alphabet_size = A = sys.alphabet_size
        words = word_matrix(sys, c)
        self.n_states = words.shape[0]
        self.codes = words.astype(np.int64) @ A ** np.arange(c - 1, -1, -1)
        self.src, syms = np.nonzero(sys.transitions[words[:, -1].astype(np.intp)])
        steps = self.codes[self.src] * A + syms  # code of the word each step spells
        self.dst = np.searchsorted(self.codes, steps % A**c)
        self.wgt = phi.values_flat[steps if phi.memory > 1 else syms]


def birkhoff_sum(phi: Potential, word, n: int) -> float:
    """Sum of phi along the first n shifts of the word, compensated summation.

    Needs n + memory - 1 symbols so every shifted evaluation is determined.
    """
    w = tuple(int(s) for s in word)
    need = n + phi.memory - 1
    if len(w) < need:
        raise PreconditionError(
            f"birkhoff_sum needs a word of length >= {need} (n={n}, memory={phi.memory}), got {len(w)}"
        )
    return math.fsum(phi(w[k:]) for k in range(n))


def birkhoff_batch(phi: Potential, words: np.ndarray, n: int) -> np.ndarray:
    """Birkhoff sums for every row of an admissible-word matrix (hot path).

    For memory 1 the sum over a row's first n symbols is defined as
    sum_a c_a * phi(a), with c_a the row's count of symbol a, added in
    symbol order (kernels.count_birkhoff): it does not depend on the order
    of the symbols, so rows with the same symbols get bitwise-equal sums.
    Memory >= 2 sums the n window values of each row.
    """
    assert words.shape[1] >= n + phi.memory - 1
    if phi.memory == 1:
        return kernels.count_birkhoff(words, n, phi.values_flat)
    return kernels.birkhoff_kernel(
        words, n, phi.memory, phi.values_flat, phi.sys.alphabet_size
    )


def variation(phi: Potential, eps: Resolution) -> float:
    """Largest |phi difference| over admissible memory words agreeing on the
    first min(level, memory) symbols; exactly 0 once level >= memory."""
    if eps.level >= phi.memory:
        return 0.0
    # one row per first-level symbols, one column per continuation
    groups = phi.values_flat.reshape(phi.sys.alphabet_size**eps.level, -1)
    hi = groups.max(axis=1)
    lo = np.where(groups > -np.inf, groups, np.inf).min(axis=1)
    return float((hi - lo)[hi > -np.inf].max(initial=0.0))


def load_potential(sys: ShiftSystem, path) -> Potential:
    """Load a potential file: {"memory": m, "table": {"01": 1.0, ...}}."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read potential file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"potential file {path} is not valid JSON: {exc}") from exc
    return potential_from_dict(sys, data, origin=str(path))


def potential_from_dict(sys: ShiftSystem, data, origin="<dict>") -> Potential:
    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: expected a JSON object")
    m = data.get("memory")
    table = data.get("table")
    if not isinstance(m, int) or m < 1:
        raise ConfigError(f"{origin}: 'memory' must be an integer >= 1, got {m!r}")
    if not isinstance(table, dict):
        raise ConfigError(f"{origin}: 'table' must be an object mapping words to values")
    if sys.alphabet_size > 10:
        raise ConfigError(f"{origin}: digit-string keys support alphabets up to 10 symbols")
    keys, values = list(table), list(table.values())
    ok = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)) == m
    # the keys of length m as one matrix of code points, one row per key
    text = "".join(itertools.compress(keys, ok.tolist())).encode("utf-32-le")
    digits = np.frombuffer(text, dtype=np.uint32).reshape(-1, m).astype(np.int64) - ord("0")
    ok[ok] = ((digits >= 0) & (digits <= 9)).all(axis=1)
    # a value must be an int or a float, not a bool; decided once per type
    number = {t: issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))}
    ok &= np.fromiter(map(number.__getitem__, map(type, values)), dtype=bool, count=len(values))
    if not ok.all():
        bad = sorted(itertools.compress(keys, ~ok))
        raise ConfigError(f"{origin}: malformed table keys/values: {', '.join(bad)}")
    value = np.fromiter(map(_as_float, values), dtype=float, count=len(values))
    finite = np.isfinite(value)
    if not finite.all():
        non_finite = sorted(itertools.compress(keys, ~finite))
        raise ConfigError(f"{origin}: non-finite table values for: {', '.join(non_finite)}")
    bounded = np.abs(value) <= VALUE_BOUND
    if not bounded.all():
        huge = sorted(itertools.compress(keys, ~bounded))
        raise ConfigError(f"{origin}: table values beyond +-{VALUE_BOUND:.3g} for: {', '.join(huge)}")
    try:
        return Potential.from_arrays(sys, m, digits, value)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def _as_float(v) -> float:
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        return math.inf
