"""Partition functions, pressure estimators, the transfer-operator oracle
and maximal Birkhoff averages.

Two independent routes to pressure are kept side by side:

* `pressure_enumerate` evaluates the finite-n partition function Theta
  exactly (explicit word enumeration for arbitrary segment classes, an
  exact transfer recursion for the unrestricted class) and reports the
  growth sequence (1/n) ln Theta with its spread;
* `pressure_oracle` computes ln of the dominant eigenvalue of the weighted
  transfer lift by one log-domain iteration on its edges, stopped when a
  Collatz-Wielandt bracket has closed; any period of the lift needs no
  special case.

Every entry point takes the potential alone: it carries its system
(`phi.sys`), its values (`phi.values_flat`) and its one transfer lift
(`phi.lift`), which every transfer computation reads. All values are in
nats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    Resolution,
    count_words,
    word_matrix,
    DEFAULT_WORD_BUDGET,
)
from .potentials import Potential, _Lift, birkhoff_batch  # noqa: F401 (perfbench traces thermo._Lift)
from .segments import SegmentClass
from .errors import ConfigError, PreconditionError, ResourceBudgetError
from . import kernels

NEG_INF = float("-inf")
EPS = float(np.finfo(float).eps)
ORACLE_TOL = 1e-13  # width at which perron_log's bracket has closed
PERRON_MAXITER = 10**4  # iterations before perron_log refuses
FINITE_MEANS_N = 20  # finite-n means next to the pressure floor in `pstar`


class PressureReport(NamedTuple):
    """A pressure value with its provenance.

    error_bound is, for oracle reports, the half-width of the
    Collatz-Wielandt bracket plus a rounding slack, a proven bound on the
    distance to the exact value (see perron_log); for enumeration reports
    it is the spread of (1/n) ln Theta over the top half of the sampled
    range. math.inf encodes "unbounded".
    """

    value: float
    method: str
    params: dict
    error_bound: float
    extras: dict

    def to_dict(self):
        return {
            "value": self.value,
            "method": self.method,
            "params": self.params,
            "error_bound": "unbounded" if math.isinf(self.error_bound) else self.error_bound,
            "extras": {
                k: v for k, v in self.extras.items() if not isinstance(v, np.ndarray)
            },
        }


def log_sum_exp(values) -> float:
    """ln sum e^v over an array (or list) of floats: np.exp of the values
    shifted by their max, summed exactly by math.fsum; a Python float, so a
    JSON artifact can carry it."""
    vals = np.asarray(values, dtype=float)
    vals = vals[vals != NEG_INF]
    if not vals.size:
        return NEG_INF
    mx = float(vals.max())
    return mx + math.log(math.fsum(np.exp(vals - mx).tolist()))


def _row_group_ids(mat: np.ndarray):
    """Group identical rows of a matrix whose identical rows are contiguous,
    such as prefixes of lexicographic `word_matrix` rows; returns (n_groups,
    group id per row), the ids numbering the groups in row order."""
    change = np.ones(mat.shape[0], dtype=bool)
    change[1:] = (mat[1:] != mat[:-1]).any(axis=1)
    ids = np.cumsum(change) - 1
    return int(ids[-1]) + 1, ids


def perron_log(n_states: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray):
    """ln rho of the matrix L with L[src[e], dst[e]] = exp(wgt[e]), its edges
    ordered by source and its support strongly connected.

    The weights are shifted by their max and the right vector x is kept in
    logs, so nothing underflows. Each step forms y = ln(L e^x) and the
    Collatz-Wielandt bracket min(y - x) <= ln rho <= max(y - x) (Horn &
    Johnson, Matrix Analysis, 8.1.26), then moves x to ln(e^x + L e^x / c),
    c the midpoint, normalized to max 0. I + L / c is primitive (ibid.,
    8.4.1), so periodic support needs no special case.

    Slack: with u = eps / 2, W = max |w| (shifted weights), X = max |x| and
    D the largest out-degree, t = w + x[dst] and y are at most T = W + X
    and Y = T + ln D in size. To first order a computed y - x is off by
    u (T + 2 T + 8 + D + 8 ln D + Y + Y + X): t, t - max t, exp (4 ulps),
    the sum, log (4 ulps), y and y - x. Rounding w moves ln rho by u W, and
    the midpoint and the shift added back round by u (Y + X) and u |value|.
    The total is below u (8 W + 8 X + 12 D + 8 + |value|), and
    slack = 8 eps (W + X + D + 1) + eps |value| exceeds it by at least
    8 u (W + X + 1), room for the higher-order terms.

    Stops when the computed width is below max(ORACLE_TOL, 2 slack), and
    returns (value, x, info): value, the midpoint, is within
    info["error_bound"] = half-width + slack of ln rho; info also holds the
    bracket and the iteration count. Refuses a bracket still open after
    PERRON_MAXITER iterations.
    """
    shift = float(wgt.max())
    w = wgt - shift
    starts = np.searchsorted(src, np.arange(n_states))
    scale = float(-w.min()) + int(np.diff(starts, append=len(src)).max()) + 1
    x = np.zeros(n_states)
    for k in range(1, PERRON_MAXITER + 1):
        t = w + x[dst]
        top = np.maximum.reduceat(t, starts)
        y = top + np.log(np.add.reduceat(np.exp(t - top[src]), starts))
        lo, hi = float((y - x).min()), float((y - x).max())
        mid = 0.5 * (lo + hi)
        slack = EPS * (8 * (scale - float(x.min())) + abs(mid + shift))
        if hi - lo <= max(ORACLE_TOL, 2 * slack):
            info = {"bracket": [lo + shift, hi + shift], "error_bound": 0.5 * (hi - lo) + slack, "iterations": k}
            return mid + shift, x, info
        x = np.logaddexp(x, y - mid)
        x -= x.max()
    raise PreconditionError(f"the bracket [{lo + shift!r}, {hi + shift!r}] of ln rho has not closed after {k} iterations")


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------

def partition_function(
    phi: Potential,
    seg: SegmentClass,
    n: int,
    delta: Resolution,
    eps: Resolution | None = None,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> float:
    """ln Theta(seg, phi, n, delta, eps).

    A maximal (n, delta)-separated set is the family of admissible words of
    length n + delta.level - 1 meeting the class; the supremum picks, per
    cylinder, the member maximizing the (eps-smeared) length-n Birkhoff sum.
    For the unrestricted class an exact transfer recursion replaces explicit
    enumeration, which keeps large n and alphabets feasible; general classes
    enumerate under the word budget and never truncate silently.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if seg.kind in ("empty", "zero-length"):
        return NEG_INF
    m = phi.memory
    l_sep = delta.level
    l_eps = eps.level if eps is not None else None
    L_sep = n + l_sep - 1
    L_eval = n + max(m, l_sep, l_eps or 1) - 1

    if seg.kind == "all" and (l_eps is None or l_eps >= m) and L_sep >= max(m - 1, 1):
        return _partition_all_dp(phi, n, L_sep)

    total = count_words(phi.sys, L_eval)
    if budget is not None and total > budget:
        raise ResourceBudgetError(
            f"partition function at n={n} needs {total} words of length {L_eval}, "
            f"budget is {budget}",
            n=n,
        )
    words = word_matrix(phi.sys, L_eval, budget)
    if words.shape[0] == 0:
        return NEG_INF
    phis = birkhoff_batch(phi, words, n)
    member = seg.batch(words, n)
    if not member.any():
        return NEG_INF

    if l_eps is not None:
        # smearing: the ball around x is unrestricted by the class
        ball_len = n + l_eps - 1
        n_ball, ball_ids = _row_group_ids(words[:, :ball_len])
        ball_max = np.full(n_ball, NEG_INF)
        np.maximum.at(ball_max, ball_ids, phis)
        values = ball_max[ball_ids]
    else:
        values = phis

    # per separation cylinder: best class member
    n_sep, sep_ids = _row_group_ids(words[:, :L_sep])
    cyl_best = np.full(n_sep, NEG_INF)
    np.maximum.at(cyl_best, sep_ids[member], values[member])
    return log_sum_exp(cyl_best[cyl_best > NEG_INF])


def _partition_all_dp(phi: Potential, n: int, L_sep: int) -> float:
    """Exact ln Theta for the unrestricted class via the transfer recursion.

    Weights are shifted by max phi so the running vector stays bounded by
    the word count; the shift is restored at the end. When the memory
    window outruns the separation cylinder (memory > delta level), the
    remaining windows are resolved by a per-state best-extension tail.
    """
    lift = phi.lift
    m = phi.memory
    c = lift.context
    shift = phi.max_value
    V = lift.n_states
    if m == 1:
        # each leading symbol closes a memory-1 window
        vec = np.exp(phi.values_flat - shift)
        applied = 1
    else:
        vec = np.ones(V)
        applied = 0
    step = np.exp(lift.wgt - shift)
    for j in range(c, L_sep):
        k = j - m + 1
        use_phi = 0 <= k < n
        # bincount adds into each destination in edge order
        weights = vec[lift.src] * step if use_phi else vec[lift.src]
        vec = np.bincount(lift.dst, weights=weights, minlength=V)
        if use_phi:
            applied += 1
    extra = n - applied
    if extra > 0:
        # best shifted window-sum over length-`extra` extensions starting at
        # each boundary state (all remaining windows close during them)
        tail = np.zeros(V)
        for _ in range(extra):
            new_tail = np.full(V, NEG_INF)
            np.maximum.at(new_tail, lift.src, (lift.wgt - shift) + tail[lift.dst])
            tail = new_tail
        total = float(vec @ np.exp(tail))
    else:
        total = float(vec.sum())
    if total <= 0:
        return NEG_INF
    return math.log(total) + shift * n


def pressure_enumerate(
    phi: Potential,
    seg: SegmentClass,
    delta: Resolution,
    eps: Resolution | None,
    n_range: tuple,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> PressureReport:
    """Finite-range pressure estimate with the spread over the top half of
    the range as the error bound.

    The reported value is the least of (1/n) ln Theta over the sampled
    range: the partition function is submultiplicative for finite-memory
    potentials, so every sampled quotient upper-bounds the limiting growth
    rate and the least one is the tightest finite-n proxy. It also makes
    the estimate monotonically improve as n_max grows. A class with no words
    at any length of the top half has estimate -inf.
    """
    n_min, n_max = n_range
    if n_min < 2 or n_max < n_min:
        raise ConfigError(f"n_range must satisfy 2 <= n_min <= n_max, got {n_range}")
    ns = list(range(n_min, n_max + 1))
    seq = []
    for n in ns:
        logtheta = partition_function(phi, seg, n, delta, eps, budget)
        seq.append(logtheta / n if logtheta != NEG_INF else NEG_INF)
    top = seq[len(seq) // 2 :]
    finite_top = [a for a in top if a != NEG_INF]
    if not finite_top:
        # no class word at any length of the top half: the class has no
        # long words, so its growth rate is -inf, whatever short words gave
        value, error = NEG_INF, 0.0
    else:
        value = min(a for a in seq if a != NEG_INF)
        error = max(finite_top) - min(finite_top) if len(finite_top) == len(top) else math.inf
    return PressureReport(
        value=value,
        method="enumeration",
        params={
            "n_min": n_min,
            "n_max": n_max,
            "delta_level": delta.level,
            "eps_level": eps.level if eps is not None else 0,
        },
        error_bound=error,
        extras={"sequence": seq, "class": seg.description},
    )


def pressure_oracle(phi: Potential) -> PressureReport:
    """Topological pressure as ln of the dominant eigenvalue of the weighted
    lift phi.lift; extras["log_right"] is the log right Perron vector."""
    phi.sys.require_strongly_connected()
    lift = phi.lift
    value, log_right, info = perron_log(lift.n_states, lift.src, lift.dst, lift.wgt)
    return PressureReport(
        value=value,
        method="oracle",
        params={"memory": phi.memory, "states": lift.n_states, "tol": ORACLE_TOL},
        error_bound=info["error_bound"],
        extras={"bracket": info["bracket"], "iterations": info["iterations"], "log_right": log_right},
    )


# ---------------------------------------------------------------------------
# maximal Birkhoff averages
# ---------------------------------------------------------------------------

def pressure_floor(phi: Potential) -> float:
    """liminf_n sup_x (1/n) * (n-step Birkhoff sum): the floor of the ergodic
    pressure interval. For finite-memory potentials on a transitive SFT this
    equals the maximum mean cycle weight of the weighted lift, computed by
    Karp's dynamic program."""
    phi.sys.require_strongly_connected()
    lift = phi.lift
    return float(kernels.karp_kernel(lift.n_states, lift.src, lift.dst, lift.wgt))


def _birkhoff_sups(phi: Potential, n_max: int) -> list:
    """sup over admissible words of the n-step Birkhoff sum for n = 1..n_max,
    from one max-plus pass that records the best sum each time a window closes."""
    lift = phi.lift
    best = phi.values_flat if phi.memory == 1 else np.zeros(lift.n_states)
    sups = [float(best.max())] if phi.memory == 1 else []
    while len(sups) < n_max:
        new = np.full(lift.n_states, NEG_INF)
        np.maximum.at(new, lift.dst, best[lift.src] + lift.wgt)
        best = new
        sups.append(float(best.max()))
    return sups


def birkhoff_sup(phi: Potential, n: int) -> float:
    """sup over admissible words of the n-step Birkhoff sum (max-plus recursion)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return _birkhoff_sups(phi, n)[-1]


def birkhoff_sup_sequence(phi: Potential):
    """The finite-n means sup_x (1/n) Phi(x, n), n = 1..FINITE_MEANS_N, reported
    next to the cycle value so a liminf/limit discrepancy would be visible."""
    return [v / n for n, v in enumerate(_birkhoff_sups(phi, FINITE_MEANS_N), 1)]
