"""Ergodic measures with computable pressure, as Markov chains on the
transfer lift, and a sampler sweeping the ergodic pressure spectrum.

The sampler combines three constructive families: all primitive cycles up
to a length cap (entropy zero, pressure = mean potential along the cycle),
the Gibbs-type chain built from the weighted Perron right eigenvector
(attains the topological pressure), and row-renormalized interpolations
between the two. A chain on the transfer lift is its edge probabilities,
aligned with the lift's edge arrays, and its pressure is its entropy plus
its integral. The stationary vector of the Gibbs chain comes from one exact
linear solve; those of the interpolations are low-rank updates of that
solve, taken in one batch per number of lift states the cycles visit, not
cycle by cycle. A cycle's mean is read from the lift edges its steps take.

Every entry point takes the potential alone and reads its system from it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import ShiftSystem, count_words, word_matrix
from .kernels import _BLOCK_ROWS
from .potentials import Potential, _Lift
from .thermo import PressureReport, pressure_floor, pressure_oracle
from .errors import ConfigError, StructuralError

MERGE_TOL = 1e-12
MAX_MEASURES = 50_000  # spectrum entries kept; past it the result is partial
_CHUNK = 1 << 14  # (cycle, grid, edge) elements per interpolation batch; it bounds the batch temporaries
NOT_UNIQUE = "the stationary vector is not unique: the chain has more than one recurrent class"


def _bordered(Q: np.ndarray) -> np.ndarray:
    """Matrix of the system pi (Q - I) = 0 in pi, with its last equation
    (minus the sum of the others) replaced by sum(pi) = 1. In exact
    arithmetic it is singular exactly when the chain has more than one
    recurrent class."""
    M = Q.T - np.eye(Q.shape[0])
    M[-1] = 1.0
    return M


def _stationary(Q: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix, by one linear solve of
    the bordered system."""
    rhs = np.zeros(Q.shape[0])
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(_bordered(Q), rhs)
    except np.linalg.LinAlgError:
        raise StructuralError(NOT_UNIQUE) from None


def _entropy_rate(pi_src: np.ndarray, q: np.ndarray) -> np.ndarray:
    """-sum pi(source) q ln q over the transitions q along the last axis
    (0 ln 0 = 0). 0 minus the sum, not its negation, so that a chain with no
    entropy reports 0.0 and not -0.0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(q), 0.0)
    return 0.0 - np.sum(pi_src * terms, axis=-1)


# ---------------------------------------------------------------------------
# chains on the transfer lift, as probabilities of its edges
# ---------------------------------------------------------------------------

class _LiftChain:
    """Markov chain on the transfer-lift states: the edge weights (aligned
    with lift.src and lift.dst) divided by their source state's total give
    the edge probabilities q; pi is the stationary vector."""

    def __init__(self, lift: _Lift, weights: np.ndarray):
        self.lift = lift
        self.q = _normalized(lift, weights)
        self.pi = _stationary(self.matrix())

    def matrix(self) -> np.ndarray:
        """The dense (V, V) transition matrix."""
        V = self.lift.n_states
        Q = np.zeros((V, V))
        Q[self.lift.src, self.lift.dst] = self.q
        return Q

    @cached_property
    def bordered_inverse(self) -> np.ndarray:
        """Inverse of the bordered matrix `_stationary` solves with."""
        try:
            return np.linalg.inv(_bordered(self.matrix()))
        except np.linalg.LinAlgError:
            raise StructuralError(NOT_UNIQUE) from None

    def entropy(self) -> float:
        return float(_entropy_rate(self.pi[self.lift.src], self.q))

    def integral(self) -> float:
        terms = self.pi[self.lift.src] * self.q * self.lift.wgt
        # cumsum adds left to right in edge order (np.sum would add pairwise)
        return float(np.cumsum(terms)[-1])


def _normalized(lift: _Lift, weights: np.ndarray) -> np.ndarray:
    """Edge weights, (..., E), divided by the total of their source state
    (rows with no weight stay zero)."""
    V = lift.n_states
    w = weights.reshape(-1, weights.shape[-1])
    # one bincount over all chains adds each row's edges in edge order
    keys = lift.src + V * np.arange(len(w))[:, None]
    rows = np.bincount(keys.ravel(), weights=w.ravel(), minlength=w.shape[0] * V)
    rows = np.where(rows > 0, rows, 1.0).reshape(-1, V)
    return (w / rows[:, lift.src]).reshape(weights.shape)


def _interpolated_chains(gibbs: _LiftChain, q_cycles: np.ndarray, ts: np.ndarray):
    """Edge probabilities q (n, G, E) and stationary vectors pi (n, G, V) of
    the chains normalize((1 - t) q_gibbs + t q_cycle) for the G values t in
    ts, toward each of n cycles (q_cycles, (n, E)) that visit the same number
    s of lift states.

    Such a chain differs from the Gibbs chain only in the rows of the s
    states S the cycle visits, so its bordered matrix is M_t = M_0 + t U E_S^T:
    U holds those rows' change q_cycle - q_gibbs (bordered row zeroed) and
    E_S selects the states of S. With Z = M_0^-1 U the Woodbury identity
    (Hager, SIAM Review 1989) solves M_t x = b as

        x = y - t Z (I_s + t Z[S])^-1 y[S],   y = M_0^-1 b.

    The other rows of the exact chain differ from the Gibbs rows in the last
    ulp, and near t = 1 the update loses about two digits, so the solution
    is refined once: the residual of the exact chain's bordered system,
    taken on the lift edges in longdouble, is solved with the same operator.
    Every product is stacked over the cycles, one cycle per 2-D slice, so a
    cycle's chains do not depend on the others in the batch.
    """
    lift = gibbs.lift
    V = lift.n_states
    n = len(q_cycles)
    q = _normalized(lift, (1.0 - ts)[:, None] * gibbs.q + ts[:, None] * q_cycles[:, None])

    visited = np.zeros((n, V), dtype=bool)
    c, e = np.nonzero(q_cycles > 0)
    visited[c, lift.src[e]] = True
    S = np.nonzero(visited)[1].reshape(n, -1)
    s = S.shape[1]
    slot = np.cumsum(visited, axis=1) - 1  # column of each visited state in S
    c, e = np.nonzero(visited[:, lift.src])
    U = np.zeros((n, V, s))
    U[c, lift.dst[e], slot[c, lift.src[e]]] = q_cycles[c, e] - gibbs.q[e]
    U[:, -1] = 0.0
    inverse = gibbs.bordered_inverse
    Z = inverse @ U
    cycle = np.arange(n)[:, None]
    try:
        K = np.linalg.inv(np.eye(s) + ts[:, None, None] * Z[cycle, S][:, None])
    except np.linalg.LinAlgError:
        raise StructuralError(NOT_UNIQUE) from None
    Zt = Z.transpose(0, 2, 1)

    def solve(y):
        """M_t^-1 b for the rows y = M_0^-1 b of an (n, G, V) array."""
        ys = y[cycle[:, :, None], np.arange(len(ts))[:, None], S[:, None]]
        # a last-axis sum adds in the same order for any leading shape
        return y - ts[:, None] * ((K * ys[..., None, :]).sum(axis=-1) @ Zt)

    pi = solve(np.broadcast_to(gibbs.pi, (n, len(ts), V)))
    exact = pi.astype(np.longdouble)
    residual = exact.copy()
    g = np.arange(len(ts))[:, None]
    np.subtract.at(residual, (cycle[:, :, None], g, lift.dst), q * exact[..., lift.src])
    residual[..., -1] = 1.0 - exact.sum(axis=-1)
    return q, pi + solve(residual.astype(float) @ inverse.T)


def gibbs_chain(phi: Potential, oracle: PressureReport) -> _LiftChain:
    """Chain with q(i -> j) = exp(phi + x[j] - x[i] - ln lambda), rows
    normalized, for the log right vector x and the value ln lambda of phi's
    oracle report. Its pressure is the topological pressure (exactly for
    the lift, to the oracle's bound here)."""
    lift = phi.lift
    x = oracle.extras["log_right"]
    return _LiftChain(lift, np.exp(lift.wgt + x[lift.dst] - x[lift.src] - oracle.value))


def _cycle_edges(lift: _Lift, cycles: np.ndarray) -> np.ndarray:
    """Lift edge of every step of n cycles of one length p, (n, p): step k
    closes the window starting at cycle position k."""
    c = lift.context
    n, p = cycles.shape
    ext = cycles[:, np.arange(p + c) % p]
    # the state at step k is the one whose code is the base-A value of ext[k : k + c]
    codes = np.zeros((n, p + 1), dtype=np.int64)
    for j in range(c):
        codes = codes * lift.alphabet_size + ext[:, j : j + p + 1]
    states = np.searchsorted(lift.codes, codes)
    # edges are ordered by source, then by symbol, which is the last letter
    # of the destination, so the (src, dst) keys increase along the arrays
    V = lift.n_states
    return np.searchsorted(lift.src * V + lift.dst, states[:, :-1] * V + states[:, 1:])


def _cycle_means(lift: _Lift, edges: np.ndarray) -> list:
    """Mean of phi along each cycle from its lift edges, (n, p): the sum of
    its window values correctly rounded (so independent of their order)."""
    return [math.fsum(row) / edges.shape[1] for row in lift.wgt[edges].tolist()]


def primitive_cycles(sys: ShiftSystem, max_len: int, budget: int = 2_000_000):
    """All primitive cycles up to the length cap, canonical rotation only, as
    one (count, p) uint8 matrix per length p, rows in lexicographic order.

    The canonical rotation is the Lyndon word: a wrap-admissible word is kept
    exactly when it is strictly smaller than each of its other rotations,
    which also rules out powers of shorter words (Duval, J. Algorithms 1983).
    Rotations are compared symbol by symbol, in blocks of _BLOCK_ROWS rows.

    Returns (cycles, truncated): truncated is the first length whose word
    count exceeded the budget, or None.
    """
    cycles = []
    for p in range(1, max_len + 1):
        if count_words(sys, p) > budget:
            return cycles, p
        words = word_matrix(sys, p, budget)
        words = words[sys.transitions[words[:, -1], words[:, 0]]]
        keep = np.ones(len(words), dtype=bool)
        for start in range(0, len(words), _BLOCK_ROWS):
            block = words[start : start + _BLOCK_ROWS]
            rows = np.arange(len(block))
            for k in range(1, p):
                rotated = np.roll(block, -k, axis=1)
                differ = block != rotated
                first = differ.argmax(axis=1)  # the first differing symbol
                keep[start : start + len(block)] &= differ[rows, first] & (
                    block[rows, first] < rotated[rows, first]
                )
        cycles.append(words[keep])
    return cycles, None


def _interpolation_terms(chain: _LiftChain, edges: list, n: int, ts: np.ndarray):
    """Entropies and integrals, (n, G), of the interpolations toward the first
    n cycles of the per-length edge arrays `edges`.

    The cycles are batched by the number of lift states they visit, in
    chunks of at most _CHUNK (cycle, grid, edge) elements."""
    lift = chain.lift
    E = len(lift.src)
    visits = np.concatenate([1 + (np.diff(np.sort(lift.src[e]), axis=1) != 0).sum(axis=1) for e in edges])
    # one row of steps per cycle, padded with the dummy edge E
    cap = max(e.shape[1] for e in edges)
    steps = np.concatenate([np.pad(e, ((0, 0), (0, cap - e.shape[1])), constant_values=E) for e in edges])
    entropies = np.empty((n, len(ts)))
    integrals = np.empty((n, len(ts)))
    size = max(1, _CHUNK // (len(ts) * E))
    for s in range(1, cap + 1):
        group = np.flatnonzero(visits[:n] == s)
        for start in range(0, len(group), size):
            ids = group[start : start + size]
            keys = steps[ids] + (E + 1) * np.arange(len(ids))[:, None]
            counts = np.bincount(keys.ravel(), minlength=len(ids) * (E + 1)).reshape(-1, E + 1)
            q, pi = _interpolated_chains(chain, _normalized(lift, counts[:, :E]), ts)
            pi_src = pi[..., lift.src]
            entropies[ids] = _entropy_rate(pi_src, q)
            # cumsum adds left to right in edge order, as _LiftChain.integral does
            integrals[ids] = np.cumsum(pi_src * q * lift.wgt, axis=-1)[..., -1]
    return entropies, integrals


class SpectrumResult(NamedTuple):
    entries: np.recarray  # one (kind, parameter, entropy, integral, pressure) record per row
    floor: float
    ceiling: float
    max_gap: float
    partial: bool
    notes: list


def spectrum_sample(
    phi: Potential,
    cycle_cap: int = 8,
    grid: int = 20,
    budget: int = 2_000_000,
) -> SpectrumResult:
    """Sample the ergodic pressure spectrum.

    Emits every primitive cycle up to the cap, the Gibbs chain, and the
    row-renormalized interpolation from the Gibbs chain toward each cycle's
    empirical chain over a `grid`-point parameter grid in [0, 1), as one
    record array sorted by (pressure, kind, parameter). max_gap is the widest
    gap in [floor, ceiling] between its ends and the pressures, merged within
    1e-12. Exceeding a budget (the cycle word budget, or MAX_MEASURES
    entries) flags the result as partial rather than failing.
    """
    sys = phi.sys
    sys.require_strongly_connected()
    if cycle_cap > 12:
        raise ConfigError("cycle length cap is limited to 12")
    if cycle_cap < 0:
        raise ConfigError(f"cycle length cap must be >= 0, got {cycle_cap}")
    if grid < 1:
        raise ConfigError(f"grid must be >= 1, got {grid}")
    notes = []
    partial = MAX_MEASURES < 1  # no room even for the Gibbs entry

    floor = pressure_floor(phi)
    oracle = pressure_oracle(phi)
    ceiling = oracle.value

    # uniform steps toward the deterministic end produce pressure jumps
    # ~ H(eps) there; the squared ramp equalizes the jump sizes
    ts = 1.0 - (1.0 - np.arange(1, grid) / grid) ** 2
    # entries come in generation order: the Gibbs chain, then each cycle
    # followed by its grid; the budget keeps a prefix of that order
    per = 1 + len(ts)
    room = MAX_MEASURES - min(MAX_MEASURES, 1)

    chain = gibbs_chain(phi, oracle)
    if len(ts) and cycle_cap and room > 1:
        # the interpolations need the inverse; its (V, V) temporaries reuse
        # the space the Gibbs solve has just freed
        chain.bordered_inverse
    entropy, integral = chain.entropy(), chain.integral()
    lift = chain.lift

    cycles, truncated_at = primitive_cycles(sys, cycle_cap, budget)
    if truncated_at is not None:
        partial = True
        notes.append(f"cycle enumeration stopped before length {truncated_at} (budget)")
    n_cycles = sum(map(len, cycles))
    if n_cycles and n_cycles * per >= room:
        partial = True
        stage = "cycle sweep" if room <= 0 or (room - 1) % per == 0 else "interpolation"
        notes.append(f"measure count budget reached during {stage}")
    # cycle k keeps its entry when k * per < room and is solved when
    # k * per + 1 < room: the whole grid, even when the budget keeps only
    # part of it, so a kept entry does not depend on the budget
    listed = min(n_cycles, max(0, -(-room // per)))
    solved = min(n_cycles, max(0, -(-(room - 1) // per))) if len(ts) else 0

    words = []
    for block in cycles:
        words.append(block[: listed - sum(map(len, words))])
    edges = [_cycle_edges(lift, w) for w in words if len(w)]
    names = ["".join(map(str, row)) for w in words for row in w.tolist()]
    means = np.array([m for e in edges for m in _cycle_means(lift, e)])

    entropies = np.zeros((listed, per))
    integrals = np.zeros((listed, per))
    if solved:
        entropies[:solved, 1:], integrals[:solved, 1:] = _interpolation_terms(chain, edges, solved, ts)
    integrals[:, 0] = means
    pressures = entropies + integrals
    pressures[:, 0] = means  # 0.0 + x is not x for x = -0.0

    # sort by (pressure, kind, parameter); kinds are ranked by name
    rank = np.concatenate(([1], np.tile([0] + [2] * len(ts), listed)))
    suffixes = ["", *(f":{t:.6f}" for t in ts)]
    params = np.concatenate(([""], np.char.add(np.array(names, dtype=str)[:, None], suffixes).ravel()))
    columns = [
        np.concatenate(([x], a.ravel()))[:MAX_MEASURES]
        for x, a in ((entropy, entropies), (integral, integrals), (entropy + integral, pressures))
    ]
    kept = len(columns[0])
    order = np.lexsort((params[:kept], rank[:kept], columns[2]))
    entries = np.rec.fromarrays(
        [np.array(["cycle", "gibbs", "interp"])[rank[order]], params[order], *(c[order] for c in columns)],
        names=("kind", "parameter", "entropy", "integral", "pressure"),
    )

    # the oracle's value may lie below the floor, within its error_bound, on
    # a potential whose pressure is its floor; the interval is then one point
    top = max(ceiling, floor)
    values = []
    for v in entries.pressure.tolist():
        if not values or v - values[-1] > MERGE_TOL:
            values.append(v)
    anchors = np.sort(np.concatenate((values, [floor, top])))
    inside = anchors[(floor - 1e-12 <= anchors) & (anchors <= top + 1e-12)]
    max_gap = float(np.diff(inside).max()) if len(inside) > 1 else top - floor
    return SpectrumResult(
        entries=entries,
        floor=floor,
        ceiling=ceiling,
        max_gap=max_gap,
        partial=partial,
        notes=notes,
    )
