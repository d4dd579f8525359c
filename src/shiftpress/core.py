"""Subshifts of finite type: transition structure, admissible words, dyadic metric.

A system is a finite alphabet {0..A-1} plus an A x A boolean transition
matrix T; the phase space is the set of one-sided sequences whose adjacent
pairs are all allowed, with the shift map. Points are only ever handled
through finite words (cylinders): in the dyadic metric
d(x, y) = 2^-min{k : x_k != y_k}, every metric condition at resolution
2^-level is an exact prefix condition, so desk-scale computation is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ResourceBudgetError, StructuralError
from . import kernels

DEFAULT_WORD_BUDGET = 20_000_000


@dataclass(frozen=True)
class Resolution:
    """A dyadic scale 2^-level, level >= 1.

    Two points are farther apart than 2^-level exactly when their first
    `level` symbols differ; hence a maximal (n, 2^-level)-separated set is
    the set of admissible words of length n + level - 1.
    """

    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ConfigError(f"resolution level must be >= 1, got {self.level}")


class ShiftSystem:
    """Finite-alphabet subshift of finite type.

    transitions[a][b] is True iff the word "ab" is admissible. Every symbol
    must have at least one successor and one predecessor (no stranded
    symbol); alphabets of size < 2 are rejected because the whole pressure
    theory degenerates there.
    """

    def __init__(self, transitions):
        T = np.asarray(transitions, dtype=bool)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ConfigError(f"transition matrix must be square, got shape {T.shape}")
        A = T.shape[0]
        if A < 2:
            raise ConfigError(f"alphabet size must be >= 2, got {A}")
        for a in range(A):
            if not T[a].any():
                raise StructuralError(f"symbol {a} has no successor (row {a} all zero)")
        for b in range(A):
            if not T[:, b].any():
                raise StructuralError(f"symbol {b} has no predecessor (column {b} all zero)")
        self.alphabet_size = A
        self.transitions = T
        self.transitions.setflags(write=False)
        self._strongly_connected = None

    @classmethod
    def full_shift(cls, alphabet_size: int) -> "ShiftSystem":
        return cls(np.ones((alphabet_size, alphabet_size), dtype=bool))

    @classmethod
    def golden_mean(cls) -> "ShiftSystem":
        return cls([[1, 1], [1, 0]])

    def __repr__(self):
        return f"ShiftSystem(A={self.alphabet_size})"

    # -- graph structure ---------------------------------------------------

    def _reachable_from(self, start: int, reverse: bool = False) -> np.ndarray:
        """Boolean mask of the symbols reachable from `start` (reaching it if reverse)."""
        T = self.transitions.T if reverse else self.transitions
        return _bfs(T, [start])[0] >= 0

    def strongly_connected(self) -> bool:
        if self._strongly_connected is None:
            fwd = self._reachable_from(0)
            bwd = self._reachable_from(0, reverse=True)
            self._strongly_connected = bool(fwd.all() and bwd.all())
        return self._strongly_connected

    def require_strongly_connected(self):
        if not self.strongly_connected():
            fwd = self._reachable_from(0)
            bwd = self._reachable_from(0, reverse=True)
            missing = int(np.flatnonzero(~(fwd & bwd))[0])
            direction = "unreachable from" if not fwd[missing] else "cannot reach"
            raise StructuralError(
                f"transition digraph is not strongly connected: symbol {missing} "
                f"{direction} symbol 0"
            )

    @cached_property
    def connectors(self) -> dict:
        """shortest_connectors of this system, found once; every gluing
        certificate on it reads this dict and must not change it."""
        return shortest_connectors(self)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def is_admissible(sys: ShiftSystem, word) -> bool:
    w = tuple(int(s) for s in word)
    A = sys.alphabet_size
    if any(s < 0 or s >= A for s in w):
        return False
    return all(sys.transitions[w[i], w[i + 1]] for i in range(len(w) - 1))


def count_words(sys: ShiftSystem, n: int):
    """Number of admissible words of length n, in exact integer arithmetic.

    Equals the sum of entries of T^(n-1); realizes s(X, k, 2^-level) through
    the Resolution identity. Python ints rule out overflow.
    """
    if n < 1:
        raise ConfigError(f"word length must be >= 1, got {n}")
    A = sys.alphabet_size
    T = [[int(sys.transitions[a, b]) for b in range(A)] for a in range(A)]
    # row vector of counts per final symbol
    vec = [1] * A
    for _ in range(n - 1):
        vec = [sum(vec[a] * T[a][b] for a in range(A)) for b in range(A)]
    return sum(vec)


def _refuse_over_budget(sys: ShiftSystem, n: int, budget: int | None):
    """Refuse a word length below 1, or one with more admissible words than the budget."""
    if n < 1:
        raise ConfigError(f"word length must be >= 1, got {n}")
    total = count_words(sys, n)
    if budget is not None and total > budget:
        raise ResourceBudgetError(
            f"enumerating {total} words of length {n} exceeds the budget of {budget}",
            n=n,
        )


def word_matrix(sys: ShiftSystem, n: int, budget: int | None = DEFAULT_WORD_BUDGET):
    """All admissible words of length n as a (count, n) uint8 matrix, lexicographic."""
    _refuse_over_budget(sys, n, budget)
    return kernels.word_matrix(sys.transitions.astype(np.uint8), n)


def weight_classes(sys: ShiftSystem, n: int, values, budget: int | None = DEFAULT_WORD_BUDGET):
    """The words of length n ranked by their memory-1 Birkhoff sums under the
    symbol values `values` (kernels.weight_classes); refused like word_matrix
    before any head or tail is spelled."""
    _refuse_over_budget(sys, n, budget)
    return kernels.weight_classes(sys.transitions, n, values)


def _bfs(adj: np.ndarray, first):
    """Breadth-first search of a boolean digraph from the vertex list `first`.

    Returns (layer, parent) int arrays: `first` is layer 0, unreached
    vertices have layer -1, and parent[v] is the first-found predecessor of
    v (-1 in layer 0). Each frontier is scanned in discovery order and each
    vertex's successors in ascending order.
    """
    layer = np.full(adj.shape[0], -1, dtype=np.int64)
    parent = np.full(adj.shape[0], -1, dtype=np.int64)
    frontier = np.asarray(first, dtype=np.int64)
    layer[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        rows, succ = np.nonzero(adj[frontier])
        new = layer[succ] < 0
        rows, succ = rows[new], succ[new]
        _, first_hit = np.unique(succ, return_index=True)
        first_hit.sort()
        parent[succ[first_hit]] = frontier[rows[first_hit]]
        frontier = succ[first_hit]
        layer[frontier] = depth
    return layer, parent


def shortest_connectors(sys: ShiftSystem) -> dict:
    """For each ordered pair (a, b): the lexicographically least shortest word c
    with a . c . b admissible (c may be empty). Requires strong connectivity.
    """
    sys.require_strongly_connected()
    T = sys.transitions
    out = {}
    for a in range(sys.alphabet_size):
        layer, parent = _bfs(T, np.flatnonzero(T[a]))
        for b in range(sys.alphabet_size):
            if T[a, b]:
                out[(a, b)] = ()
                continue
            if layer[b] < 0:
                raise StructuralError(f"no path from symbol {a} to symbol {b}")
            path = []
            u = b
            while parent[u] >= 0:
                u = int(parent[u])
                path.append(u)
            out[(a, b)] = tuple(reversed(path))
    return out


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def load_system(path) -> ShiftSystem:
    """Load a system definition file.

    Schema: {"alphabet": A, "transitions": [[0|1, ...], ...]} or the full
    shift abbreviation {"alphabet": A, "full": true}.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read system file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"system file {path} is not valid JSON: {exc}") from exc
    return system_from_dict(data, origin=str(path))


def system_from_dict(data, origin="<dict>") -> ShiftSystem:
    if not isinstance(data, dict) or "alphabet" not in data:
        raise ConfigError(f"{origin}: expected an object with an 'alphabet' field")
    A = data["alphabet"]
    if not isinstance(A, int) or A < 2:
        raise ConfigError(f"{origin}: 'alphabet' must be an integer >= 2, got {A!r}")
    if data.get("full"):
        return ShiftSystem.full_shift(A)
    rows = data.get("transitions")
    if not isinstance(rows, list) or len(rows) != A:
        raise ConfigError(f"{origin}: 'transitions' must be a list of {A} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != A:
            raise ConfigError(f"{origin}: transitions row {i} must have {A} entries")
        for j, v in enumerate(row):
            if v not in (0, 1, True, False):
                raise ConfigError(f"{origin}: transitions[{i}][{j}] must be 0 or 1, got {v!r}")
    try:
        return ShiftSystem(rows)
    except (ConfigError, StructuralError) as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def word_str(word) -> str:
    return "".join(str(int(s)) for s in word)


def parse_word(text: str) -> tuple:
    # str.isdigit alone admits digits that int() cannot read, such as "\u00b2"
    if text and not (text.isascii() and text.isdigit()):
        raise ConfigError(f"word {text!r} must be a digit string")
    return tuple(int(c) for c in text)
