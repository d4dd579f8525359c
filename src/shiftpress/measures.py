"""Ergodic measures with computable pressure: Markov chains and periodic
orbits, plus a sampler sweeping the ergodic pressure spectrum.

The sampler combines three constructive families: all primitive cycles up
to a length cap (entropy zero, pressure = mean potential along the cycle),
the Gibbs-type chain built from the weighted Perron right eigenvector
(attains the topological pressure), and row-renormalized interpolations
between the two. A chain on the transfer lift is its edge probabilities,
aligned with the lift's edge arrays. The stationary vectors of the Gibbs
chain and of a `MarkovMeasure` come from one exact linear solve; those of
the interpolations are low-rank updates of the Gibbs solve.

Every entry point takes the potential alone and reads its system from it;
`measure_pressure` refuses a measure that lives on another system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import ShiftSystem, _bfs, count_words, word_matrix
from .potentials import Potential, _Lift
from .thermo import transfer_spectrum, pressure_floor, pressure_oracle
from .errors import ConfigError, PreconditionError, StructuralError

MERGE_TOL = 1e-12
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
    (0 ln 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(q), 0.0)
    return -np.sum(pi_src * terms, axis=-1)


class MarkovMeasure:
    """Row-stochastic chain supported inside the transition structure."""

    def __init__(self, sys: ShiftSystem, stochastic):
        Q = np.asarray(stochastic, dtype=float)
        A = sys.alphabet_size
        if Q.shape != (A, A):
            raise ConfigError(f"stochastic matrix must be {A}x{A}, got {Q.shape}")
        if (Q < 0).any():
            raise ConfigError("stochastic matrix has negative entries")
        rowsum = Q.sum(axis=1)
        if np.abs(rowsum - 1.0).max() > 1e-9:
            raise ConfigError(f"rows must sum to 1, worst deviation {np.abs(rowsum-1).max():.3g}")
        if ((Q > 0) & ~sys.transitions).any():
            raise ConfigError("chain puts mass on a forbidden transition")
        self.sys = sys
        self.stochastic = Q / rowsum[:, None]
        self.stationary = _stationary(self.stochastic)
        # rounding can hide a singular system; one recurrent class holds
        # exactly when every state reaches the state of largest mass
        first = [int(np.argmax(self.stationary))]
        if (_bfs(self.stochastic.T > 0, first)[0] < 0).any():
            raise StructuralError(NOT_UNIQUE)

    @classmethod
    def bernoulli(cls, sys: ShiftSystem, probs) -> "MarkovMeasure":
        p = np.asarray(probs, dtype=float)
        Q = np.tile(p, (sys.alphabet_size, 1))
        return cls(sys, Q)


class PeriodicOrbitMeasure:
    """Equidistribution on the orbit of a primitive cycle word."""

    def __init__(self, sys: ShiftSystem, cycle):
        w = tuple(int(s) for s in cycle)
        p = len(w)
        if p < 1:
            raise ConfigError("cycle must be nonempty")
        for k in range(p):
            if not sys.transitions[w[k], w[(k + 1) % p]]:
                raise ConfigError(f"cycle {w} is not admissible at position {k}")
        for d in range(1, p):
            if p % d == 0 and w == w[:d] * (p // d):
                raise ConfigError(f"cycle {w} is a power of the shorter cycle {w[:d]}")
        self.sys = sys
        self.cycle = w


def markov_entropy(mu: MarkovMeasure) -> float:
    """Entropy rate -sum_a pi_a sum_b Q[ab] ln Q[ab] (0 ln 0 = 0)."""
    return float(np.sum(_entropy_rate(mu.stationary[:, None], mu.stochastic)))


def _markov_integral(phi: Potential, mu: MarkovMeasure) -> float:
    """integral of phi: sum over admissible memory-words of mu(cylinder) * phi."""
    words = word_matrix(phi.sys, phi.memory).astype(np.intp)
    prob = mu.stationary[words[:, 0]]
    for k in range(phi.memory - 1):
        prob = prob * mu.stochastic[words[:, k], words[:, k + 1]]
    codes = words @ phi.sys.alphabet_size ** np.arange(phi.memory - 1, -1, -1)
    return math.fsum((prob * phi.values_flat[codes]).tolist())


def measure_pressure(phi: Potential, mu) -> float:
    """h_mu + integral(phi) for a Markov chain; mean of phi along the cycle
    (entropy zero) for a periodic-orbit measure. The measure must live on
    the potential's system."""
    if not isinstance(mu, (MarkovMeasure, PeriodicOrbitMeasure)):
        raise ConfigError(f"unsupported measure type {type(mu).__name__}")
    if not np.array_equal(mu.sys.transitions, phi.sys.transitions):
        raise ConfigError("the measure and the potential live on different systems")
    if isinstance(mu, MarkovMeasure):
        return markov_entropy(mu) + _markov_integral(phi, mu)
    return _cycle_mean(phi.lift, _cycle_lift_chain(phi.lift, mu.cycle))


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

    def pressure(self) -> float:
        return self.entropy() + self.integral()


def _normalized(lift: _Lift, weights: np.ndarray) -> np.ndarray:
    """Edge weights, (E,) or (G, E), divided by the total of their source
    state (rows with no weight stay zero)."""
    V = lift.n_states
    w = np.atleast_2d(weights)
    # one bincount over all chains adds each row's edges in edge order
    keys = lift.src + V * np.arange(len(w))[:, None]
    rows = np.bincount(keys.ravel(), weights=w.ravel(), minlength=w.shape[0] * V)
    rows = np.where(rows > 0, rows, 1.0).reshape(-1, V)
    return (w / rows[:, lift.src]).reshape(weights.shape)


def _interpolated_chains(gibbs: _LiftChain, q_cycle: np.ndarray, ts: np.ndarray):
    """Edge probabilities q (G, E) and stationary vectors pi (G, V) of the
    chains normalize((1 - t) q_gibbs + t q_cycle) for the G values t in ts.

    Such a chain differs from the Gibbs chain only in the rows of the p
    states S the cycle visits, so its bordered matrix is M_t = M_0 + t U E_S^T:
    U holds those rows' change q_cycle - q_gibbs (bordered row zeroed) and
    E_S selects the states of S. With Z = M_0^-1 U the Woodbury identity
    (Hager, SIAM Review 1989) solves M_t x = b as

        x = y - t Z (I_p + t Z[S])^-1 y[S],   y = M_0^-1 b.

    The other rows of the exact chain differ from the Gibbs rows in the last
    ulp, and near t = 1 the update loses about two digits, so the solution
    is refined once: the residual of the exact chain's bordered system,
    taken on the lift edges in longdouble, is solved with the same operator.
    """
    lift = gibbs.lift
    V = lift.n_states
    q = _normalized(lift, (1.0 - ts)[:, None] * gibbs.q + ts[:, None] * q_cycle)

    visited = np.zeros(V, dtype=bool)
    visited[lift.src[q_cycle > 0]] = True
    S = np.flatnonzero(visited)
    out = visited[lift.src]
    U = np.zeros((V, len(S)))
    U[lift.dst[out], np.searchsorted(S, lift.src[out])] = (q_cycle - gibbs.q)[out]
    U[-1] = 0.0
    inverse = gibbs.bordered_inverse
    Z = inverse @ U
    try:
        K = np.linalg.inv(np.eye(len(S)) + ts[:, None, None] * Z[S])
    except np.linalg.LinAlgError:
        raise StructuralError(NOT_UNIQUE) from None

    def solve(y):
        """M_t^-1 b for the rows y = M_0^-1 b of a (G, V) array."""
        return y - ts[:, None] * (np.einsum("gij,gj->gi", K, y[:, S]) @ Z.T)

    pi = solve(np.broadcast_to(gibbs.pi, (len(ts), V)))
    exact = pi.astype(np.longdouble)
    residual = exact.copy()
    g = np.arange(len(ts))[:, None]
    np.subtract.at(residual, (g, lift.dst), q * exact[:, lift.src])
    residual[:, -1] = 1.0 - exact.sum(axis=1)
    return q, pi + solve(residual.astype(float) @ inverse.T)


def gibbs_chain(phi: Potential, tol: float = 1e-13) -> _LiftChain:
    """Chain with q(i -> j) proportional to exp(phi) right[j] / right[i] for
    the weighted Perron right eigenvector; the row normalization divides by
    the eigenvalue. Its pressure equals the topological pressure (exactly
    for the lift, to eigen-precision here)."""
    _, right, _ = transfer_spectrum(phi, tol=tol)
    if not (right > 0).all():
        raise PreconditionError("the Perron vector underflows to 0: the potential's values spread too widely")
    lift = phi.lift
    return _LiftChain(lift, np.exp(lift.wgt - phi.max_value) * right[lift.dst] / right[lift.src])


def _cycle_lift_chain(lift: _Lift, cycle: tuple) -> np.ndarray:
    """Counts per lift edge of the steps the cycle takes on lift states: step
    k closes the window starting at cycle position k."""
    c = lift.context
    p = len(cycle)
    ext = np.array(cycle * (2 + c // p))
    V = lift.n_states
    # the state at step k is the one whose code is the base-A value of ext[k : k + c]
    codes = np.correlate(ext, lift.alphabet_size ** np.arange(c - 1, -1, -1), "valid")[:p]
    states = np.searchsorted(lift.codes, codes)
    # edges are ordered by source, then by symbol, which is the last letter
    # of the destination, so the (src, dst) keys increase along the arrays
    keys = lift.src * V + lift.dst
    edges = np.searchsorted(keys, states * V + np.roll(states, -1))
    return np.bincount(edges, minlength=len(keys))


def _cycle_mean(lift: _Lift, counts: np.ndarray) -> float:
    """Mean of phi along a cycle from its lift edge counts, the sum of its
    window values correctly rounded (so independent of their order)."""
    return math.fsum(np.repeat(lift.wgt, counts).tolist()) / int(counts.sum())


def primitive_cycles(sys: ShiftSystem, max_len: int, budget: int = 2_000_000):
    """All primitive cycles up to the length cap, canonical rotation only.

    Returns (cycles, truncated): truncated is the first length whose word
    count exceeded the budget, or None.
    """
    cycles = []
    for p in range(1, max_len + 1):
        if count_words(sys, p) > budget:
            return cycles, p
        words = word_matrix(sys, p, budget)
        wrap_ok = sys.transitions[words[:, -1].astype(np.intp), words[:, 0].astype(np.intp)]
        for row in words[wrap_ok]:
            w = tuple(int(s) for s in row)
            rots = [w[k:] + w[:k] for k in range(p)]
            if w != min(rots):
                continue
            if any(p % d == 0 and w == w[:d] * (p // d) for d in range(1, p)):
                continue
            cycles.append(w)
    return cycles, None


@dataclass
class SpectrumEntry:
    kind: str
    parameter: str
    entropy: float
    integral: float
    pressure: float


@dataclass
class SpectrumResult:
    entries: list
    values: list
    floor: float
    ceiling: float
    max_gap: float
    partial: bool
    notes: list = field(default_factory=list)


def spectrum_sample(
    phi: Potential,
    cycle_cap: int = 8,
    grid: int = 20,
    max_measures: int = 50_000,
    budget: int = 2_000_000,
) -> SpectrumResult:
    """Sample the ergodic pressure spectrum.

    Emits every primitive cycle up to the cap, the Gibbs chain, and the
    row-renormalized interpolation from the Gibbs chain toward each cycle's
    empirical chain over a `grid`-point parameter grid in [0, 1). Pressures
    within 1e-12 are merged in the deduplicated value list. Exceeding a
    budget flags the result as partial rather than failing.
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
    partial = max_measures < 1  # no room even for the Gibbs entry

    floor = pressure_floor(phi)
    ceiling = pressure_oracle(phi).value

    chain = gibbs_chain(phi)
    entropy, integral = chain.entropy(), chain.integral()
    entries = [SpectrumEntry("gibbs", "", entropy, integral, entropy + integral)][:max_measures]

    cycles, truncated_at = primitive_cycles(sys, cycle_cap, budget)
    if truncated_at is not None:
        partial = True
        notes.append(f"cycle enumeration stopped before length {truncated_at} (budget)")

    lift = chain.lift
    # uniform steps toward the deterministic end produce pressure jumps
    # ~ H(eps) there; the squared ramp equalizes the jump sizes
    ts = 1.0 - (1.0 - np.arange(1, grid) / grid) ** 2
    for w in cycles:
        counts = _cycle_lift_chain(lift, w)
        if len(entries) < max_measures:
            name = "".join(map(str, w))
            p_cycle = _cycle_mean(lift, counts)
            entries.append(SpectrumEntry("cycle", name, 0.0, p_cycle, p_cycle))
        if len(entries) >= max_measures:
            partial = True
            notes.append("measure count budget reached during cycle sweep")
            break
        # the whole grid is solved even when the budget keeps only part of
        # it, so a kept entry does not depend on the budget
        q, pi = _interpolated_chains(chain, _normalized(lift, counts), ts)
        pi_src = pi[:, lift.src]
        entropies = _entropy_rate(pi_src, q).tolist()
        # cumsum adds left to right in edge order, as _LiftChain.integral does
        integrals = np.cumsum(pi_src * q * lift.wgt, axis=1)[:, -1].tolist()
        room = max_measures - len(entries)
        for t, h, i in zip(ts[:room], entropies, integrals):
            entries.append(SpectrumEntry("interp", f"{name}:{t:.6f}", h, i, h + i))
        if len(entries) >= max_measures:
            partial = True
            notes.append("measure count budget reached during interpolation")
            break

    entries.sort(key=lambda e: (e.pressure, e.kind, e.parameter))
    values = []
    for e in entries:
        if not values or e.pressure - values[-1] > MERGE_TOL:
            values.append(e.pressure)

    anchors = sorted(set(values) | {floor, ceiling})
    inside = [v for v in anchors if floor - 1e-12 <= v <= ceiling + 1e-12]
    max_gap = max(
        (b - a for a, b in zip(inside, inside[1:])), default=ceiling - floor
    )
    return SpectrumResult(
        entries=entries,
        values=values,
        floor=floor,
        ceiling=ceiling,
        max_gap=max_gap,
        partial=partial,
        notes=notes,
    )
