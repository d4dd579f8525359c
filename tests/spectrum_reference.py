"""The per-cycle spectrum route, kept as the reference for the batched one in
shiftpress.measures: cycles from explicit rotation lists, one Woodbury
update per cycle, and entries sorted on a tuple key."""

import math

import numpy as np

from shiftpress import measures
from shiftpress.core import count_words, word_matrix
from shiftpress.errors import StructuralError
from shiftpress.thermo import pressure_oracle


def primitive_cycles(sys, max_len, budget=2_000_000):
    """All primitive cycles up to the length cap, canonical rotation only,
    as tuples. Returns (cycles, truncated)."""
    cycles = []
    for p in range(1, max_len + 1):
        if count_words(sys, p) > budget:
            return cycles, p
        words = word_matrix(sys, p, budget)
        wrap_ok = sys.transitions[words[:, -1].astype(np.intp), words[:, 0].astype(np.intp)]
        for w in map(tuple, words[wrap_ok].tolist()):
            rots = [w[k:] + w[:k] for k in range(p)]
            if w != min(rots):
                continue
            if any(p % d == 0 and w == w[:d] * (p // d) for d in range(1, p)):
                continue
            cycles.append(w)
    return cycles, None


def cycle_lift_counts(lift, cycle):
    """Counts per lift edge of the steps the cycle takes on lift states."""
    c = lift.context
    p = len(cycle)
    ext = np.array(cycle * (2 + c // p))
    V = lift.n_states
    codes = np.correlate(ext, lift.alphabet_size ** np.arange(c - 1, -1, -1), "valid")[:p]
    states = np.searchsorted(lift.codes, codes)
    keys = lift.src * V + lift.dst
    edges = np.searchsorted(keys, states * V + np.roll(states, -1))
    return np.bincount(edges, minlength=len(keys))


def interpolated_chains(gibbs, q_cycle, ts):
    """Edge probabilities q (G, E) and stationary vectors pi (G, V) of the
    chains normalize((1 - t) q_gibbs + t q_cycle) toward one cycle, by one
    rank-p Woodbury update of the Gibbs solve and one longdouble refinement."""
    lift = gibbs.lift
    V = lift.n_states
    q = measures._normalized(lift, (1.0 - ts)[:, None] * gibbs.q + ts[:, None] * q_cycle)

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
        raise StructuralError(measures.NOT_UNIQUE) from None

    def solve(y):
        ys = y[:, S]
        return y - ts[:, None] * ((K * ys[..., None, :]).sum(axis=-1) @ Z.T)

    pi = solve(np.broadcast_to(gibbs.pi, (len(ts), V)))
    exact = pi.astype(np.longdouble)
    residual = exact.copy()
    g = np.arange(len(ts))[:, None]
    np.subtract.at(residual, (g, lift.dst), q * exact[:, lift.src])
    residual[:, -1] = 1.0 - exact.sum(axis=1)
    return q, pi + solve(residual.astype(float) @ inverse.T)


def spectrum_entries(phi, cycle_cap, grid, max_measures=50_000, budget=2_000_000):
    """(entries, partial, notes) of spectrum_sample by the per-cycle route;
    entries are (kind, parameter, entropy, integral, pressure) tuples."""
    chain = measures.gibbs_chain(phi, pressure_oracle(phi))
    lift = chain.lift
    entropy, integral = chain.entropy(), chain.integral()
    entries = [("gibbs", "", entropy, integral, entropy + integral)][:max_measures]
    partial = max_measures < 1
    notes = []
    cycles, truncated_at = primitive_cycles(phi.sys, cycle_cap, budget)
    if truncated_at is not None:
        partial = True
        notes.append(f"cycle enumeration stopped before length {truncated_at} (budget)")
    ts = 1.0 - (1.0 - np.arange(1, grid) / grid) ** 2
    for w in cycles:
        counts = cycle_lift_counts(lift, w)
        if len(entries) < max_measures:
            name = "".join(map(str, w))
            mean = math.fsum(np.repeat(lift.wgt, counts).tolist()) / int(counts.sum())
            entries.append(("cycle", name, 0.0, mean, mean))
        if len(entries) >= max_measures:
            partial = True
            notes.append("measure count budget reached during cycle sweep")
            break
        q, pi = interpolated_chains(chain, measures._normalized(lift, counts), ts)
        pi_src = pi[:, lift.src]
        entropies = measures._entropy_rate(pi_src, q).tolist()
        integrals = np.cumsum(pi_src * q * lift.wgt, axis=1)[:, -1].tolist()
        room = max_measures - len(entries)
        for t, h, i in zip(ts[:room], entropies, integrals):
            entries.append(("interp", f"{name}:{t:.6f}", h, i, h + i))
        if len(entries) >= max_measures:
            partial = True
            notes.append("measure count budget reached during interpolation")
            break
    entries.sort(key=lambda e: (e[4], e[0], e[1]))
    return entries, partial, notes


def _fmt(x) -> str:
    """A CSV field as the per-value writer printed it."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def csv_rows(entries) -> list:
    """The CSV lines of the entries, one value at a time."""
    return [",".join(_fmt(v) for v in row) for row in entries]
