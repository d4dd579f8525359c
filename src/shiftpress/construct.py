"""Construction of compact invariant subsystems with prescribed pressure.

Given a target alpha strictly between the pressure floor (max cycle mean)
and the topological pressure, the driver selects a set E of length-N core
words whose weight sum is pinned to the e^{N alpha} scale, then closes the
set of all connector-glued concatenations of E-words under the shift. The
resulting subsystem is materialized as a word-position presentation whose
dominant eigenvalue, from one junction-renewal solve, is checked against
both sides of the eta0 band around alpha; extras["basis"] of each report
says why that side holds. The finite-window sums are test oracles only.
A density sweep shares one Preparation, the alpha-independent work, across
its alpha values, grid and structure gate: one pressure interval, on the
potential as given, and each N's core words ranked once, as one weight-class
key per word. Connectors are found and proven once per system
(`ShiftSystem.connectors`), so the gluing gap tau is the system's and
N0 = 1: the N search's `N > max(N0, N1)` reads N1 or 1.

Every stage takes the potential alone, which carries its system. Memory
>= 2 potentials are recoded to memory 1 on the m-block system, the edge
graph of the potential's transfer lift; the recoded potential carries that
system, and reported quantities are mapped back.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    ShiftSystem,
    Resolution,
    count_words,
    is_admissible,
    weight_classes,
    word_matrix,
    word_str,
    DEFAULT_WORD_BUDGET,
)
from .kernels import _BLOCK_ROWS, rank_weights, word_rows
from .potentials import Potential, birkhoff_batch, variation
from .segments import SegmentClass, OrbitDecomposition, affix_bounded
from .gluing import check_gluing, glue_words
from .thermo import (
    PressureReport,
    partition_function,
    pressure_oracle,
    pressure_floor,
    birkhoff_sup,
    log_sum_exp,
    NEG_INF,
)
from .errors import (
    CertificateError,
    ConfigError,
    InfeasibleError,
    PreconditionError,
    ResourceBudgetError,
)
from .structure import ConstructConfig, check_structure_conditions


# ---------------------------------------------------------------------------
# memory-1 recoding
# ---------------------------------------------------------------------------

def _project(blocks: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Base words spelled by a matrix of recoded words (overlapping block decode)."""
    return np.concatenate([blocks[words[:, 0]], blocks[words[:, 1:], -1]], axis=1)


def _recode_memory_one(phi: Potential, dec: OrbitDecomposition):
    """Recode a memory-m potential to a memory-1 one on the m-block system.

    The m-block system is the edge graph of phi.lift: edge i, an m-word, may
    precede edge j when i ends where j starts, and carries the phi value it
    closes. The block map is a conjugacy, so pressures, cycle means and the
    glued subsystem transfer exactly; the decomposition's classes and split
    see recoded word matrices projected through blocks, the (edges, m) array
    of base m-words that is returned with the recoded potential.
    """
    m = phi.memory
    if m == 1:
        return phi, dec, None
    lift, A = phi.lift, phi.sys.alphabet_size
    # word matrices hold symbols as uint8, so a larger alphabet would wrap
    if lift.wgt.shape[0] > 256:
        raise ResourceBudgetError(
            f"recoding memory {m} to memory 1 gives {lift.wgt.shape[0]} symbols, "
            "above the 256 that word matrices hold"
        )
    # edge i spells its source state followed by the last symbol of its destination
    codes = lift.codes[lift.src] * A + lift.codes[lift.dst] % A
    blocks = np.stack(np.unravel_index(codes, (A,) * m), axis=1).astype(np.uint8)
    sys_c = ShiftSystem(lift.dst[:, None] == lift.src[None, :])
    phi_c = Potential.from_arrays(sys_c, 1, np.arange(lift.wgt.shape[0]), lift.wgt)

    def member_through(cls: SegmentClass) -> SegmentClass:
        if cls.kind in ("all", "empty"):
            return cls
        return SegmentClass(lambda words, n: cls.batch(_project(blocks, words), n), f"recoded({cls.description})")

    dec_c = OrbitDecomposition(
        base=member_through(dec.base),
        prefix_class=member_through(dec.prefix_class),
        core_class=member_through(dec.core_class),
        suffix_class=member_through(dec.suffix_class),
        split=lambda words, n: dec.split(_project(blocks, words), n),
        name=dec.name,
    )
    return phi_c, dec_c, blocks


# ---------------------------------------------------------------------------
# core word selection
# ---------------------------------------------------------------------------

def class_log_weight_sum(
    phi: Potential,
    seg: SegmentClass,
    n: int,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> float:
    """ln of the sum of e^{Birkhoff(w, n)} over class words of length n: the
    partition function at separation level 1, where each word is its own
    cylinder. Called on memory-1 potentials only (construction world)."""
    return partition_function(phi, seg, n, Resolution(1), None, budget)


_REFUSALS = (InfeasibleError, ResourceBudgetError, PreconditionError)


def _remembered(memo: dict, key, compute):
    """compute() on the first request of key, its kept value afterwards. A
    refusal it raises is kept too, and raised again unchanged."""
    if key not in memo:
        try:
            memo[key] = (compute(), None)
        except _REFUSALS as exc:
            memo[key] = (None, exc)
    value, refusal = memo[key]
    if refusal is not None:
        raise refusal
    return value


class CoreWords:
    """Per-length data of one core class, each computed on first request and
    kept: sup Birkhoff(x, N), ln of the class weight sum, and the class words
    ranked for the greedy selection, one small-integer weight class per word."""

    def __init__(self, phi: Potential, core: SegmentClass, budget: int | None):
        self.phi, self.core, self.budget = phi, core, budget
        self._memo = {}

    def sup(self, N: int) -> float:
        return _remembered(self._memo, ("sup", N), lambda: birkhoff_sup(self.phi, N))

    def log_total(self, N: int) -> float:
        return _remembered(
            self._memo, ("total", N),
            lambda: class_log_weight_sum(self.phi, self.core, N, self.budget),
        )

    def ranked(self, N: int):
        """(index, weights, key, starts): the class words of length N in
        classes of equal Birkhoff sum weights[c], by descending sum, ranked
        class by class from position starts[c] (starts[-1] counts them all)
        and lexicographically within one. key[i] is the class of row index[i]
        of word_matrix(phi.sys, N), or of row i when index is None (the class
        of every word, ranked from its halves' symbol counts, no word spelled)."""
        return _remembered(self._memo, ("ranked", N), lambda: self._rank(N))

    def _rank(self, N: int):
        if self.core.kind == "all":
            index = None
            weights, key, sizes = weight_classes(self.phi.sys, N, self.phi.values_flat, self.budget)
        else:
            words = word_matrix(self.phi.sys, N, self.budget)
            index = np.flatnonzero(self.core.batch(words, N))
            weights, key, sizes = rank_weights(birkhoff_batch(self.phi, words[index], N))
        return index, weights, key, np.concatenate(([0], np.cumsum(sizes)))

    def greedy(self, N: int, limit: float):
        """(rows, phis, total): the ranked class words of length N taken while
        their running weight sum, added in turn as np.cumsum adds, stays <=
        limit, and one more (all of them if it never passes limit): their rows
        in word_matrix(phi.sys, N), their Birkhoff sums, and the last sum."""
        index, weights, key, starts = self.ranked(N)
        exps, total = np.exp(weights), 0.0
        for first in range(0, key.size, _BLOCK_ROWS):
            sums = np.empty(min(_BLOCK_ROWS, key.size - first) + 1)
            sums[0] = total
            sums[1:] = exps[np.searchsorted(starts, np.arange(first, first + sums.size - 1), side="right") - 1]
            np.cumsum(sums, out=sums)
            k = first + min(int(np.searchsorted(sums[1:], limit, side="right")) + 1, sums.size - 1)
            total = float(sums[k - first])
            if total > limit:
                break
        # every word of the classes before cut, and those of class cut before end
        cut = int(np.searchsorted(starts, k - 1, side="right")) - 1
        end, left = 0, k - int(starts[cut])
        while left:
            hits = np.flatnonzero(key[end : end + _BLOCK_ROWS] == cut)[:left]
            left -= hits.size
            end += int(hits[-1]) + 1 if left == 0 else _BLOCK_ROWS
        chosen = np.concatenate((np.flatnonzero(key[:end] <= cut), end + np.flatnonzero(key[end:] < cut)))
        chosen = chosen[np.argsort(key[chosen], kind="stable")]
        return (chosen if index is None else index[chosen]), weights[key[chosen]], total


def select_words(
    phi: Potential,
    core: SegmentClass,
    alpha: float,
    eta: float,
    N: int,
    budget: int | None = DEFAULT_WORD_BUDGET,
    *,
    core_words: CoreWords | None = None,
):
    """Greedy selection of core words with pinned total weight.

    Orders candidates by descending weight (lexicographic tie-break) and
    keeps adding while the running sum is still <= e^{N(alpha-eta)}; the
    resulting total lies strictly between e^{N(alpha-eta)} and
    e^{N(alpha+eta)} provided no single word overshoots (checked) and the
    class carries enough weight (checked). The words are ranked in classes
    of equal weight (CoreWords.greedy), and only the selected rows are
    spelled. core_words, the CoreWords of the same (phi, core, budget), lets
    a sweep rank each N's words once.
    Returns (word matrix, per-word Birkhoff sums, selection info).
    """
    if phi.memory != 1:
        raise PreconditionError("select_words expects a memory-1 potential")
    if core_words is None:
        core_words = CoreWords(phi, core, budget)
    lower = N * (alpha - eta)
    upper = N * (alpha + eta)
    sup_phi = core_words.sup(N)
    if not sup_phi < lower:
        raise InfeasibleError(
            f"single-word weight bound fails: sup Birkhoff(x,{N}) = {sup_phi:.6f} "
            f">= N(alpha-eta) = {lower:.6f}",
            diagnostics=[("sup_birkhoff < N(alpha-eta)", sup_phi, lower)],
        )
    total_log = core_words.log_total(N)
    if not total_log > upper:
        raise InfeasibleError(
            f"class weight too small: ln sum e^Birkhoff = {total_log:.6f} "
            f"<= N(alpha+eta) = {upper:.6f}",
            diagnostics=[("ln_total > N(alpha+eta)", total_log, upper)],
        )
    lo_val = math.exp(lower)
    hi_val = math.exp(upper)
    rows, phis, total = core_words.greedy(N, lo_val)
    if not (lo_val < total < hi_val):
        raise InfeasibleError(
            f"greedy sum {total:.6g} escaped the window ({lo_val:.6g}, {hi_val:.6g})",
            diagnostics=[("lower < sum < upper", lo_val, total)],
        )
    info = {
        "count": int(rows.size),
        "log_sum": math.log(total),
        "target_low": lower,
        "target_high": upper,
    }
    return word_rows(phi.sys.transitions, N, rows), phis, info


# ---------------------------------------------------------------------------
# the glued subsystem
# ---------------------------------------------------------------------------

RENEWAL_TOL = 1e-13
RENEWAL_MAX_EVALUATIONS = 200  # evaluations of ln rho(B(s)) before the renewal root is refused
_UNIT = 2.0**-53  # unit roundoff of float64
COUNTING_N = range(2, 9)  # block counts the exhaustive counting-bound check accepts
COUNTING_CLASSES = 2_000_000  # K^n classes the counting-bound check enumerates at most
DIGRAPH_MAX_EDGES = 20_000  # a larger presentation is reported as a size summary
AFFIX_CAPS = (0, 1, 2, 4)  # affix caps scanned for a glued core, in order
C0_N_CAP = 10  # word lengths the partition floor of the core is fitted over


class GluedSubshift:
    """Shift-closure of all connector-glued concatenations of the chosen words.

    The connectors are held as A x A arrays: conn_len[a, b] and conn_phi[a, b]
    are the length and Birkhoff sum of the connector from a to b. The
    presentation walks word positions (i, p) and connector positions; every
    bi-infinite walk spells an admissible base sequence, the spelled
    subshift is shift-invariant, and all pressure computations happen on
    this finite object. Cross edges at word boundaries factor through the
    (last symbol, first symbol) pair, which keeps B(s) and the edge count
    linear in the number of words; only the explicit table lists the edges.
    """

    def __init__(self, phi: Potential, words: np.ndarray, params: dict | None = None,
                 phis: np.ndarray | None = None):
        """phis: the words' Birkhoff sums, when the caller already has them."""
        if phi.memory != 1:
            raise PreconditionError("GluedSubshift expects a memory-1 potential")
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim != 2 or 0 in words.shape:
            raise ConfigError("the selected word set must be a nonempty matrix of nonempty words")
        self.sys = sys = phi.sys
        self.phi = phi
        self.words = words
        self.params = dict(params or {})
        self.K, self.N = words.shape
        self.first = words[:, 0].astype(np.intp)
        self.last = words[:, -1].astype(np.intp)
        self.phis = birkhoff_batch(phi, words, self.N) if phis is None else np.asarray(phis, dtype=float)
        self.conn = sys.connectors
        shape = (sys.alphabet_size,) * 2
        conns = [self.conn[pair] for pair in np.ndindex(shape)]
        self.conn_len = np.array([len(c) for c in conns], dtype=np.intp).reshape(shape)
        self.conn_phi = np.array([math.fsum(phi.values_flat[list(c)].tolist()) for c in conns]).reshape(shape)
        self.tau = int(self.conn_len.max())

    # -- junction renewal ---------------------------------------------------

    def _pair_log_weight(self):
        """logW[b][a'] = ln sum over words starting at b and ending at a'."""
        A = self.sys.alphabet_size
        logW = np.full((A, A), NEG_INF)
        for b in range(A):
            for a2 in range(A):
                sel = (self.first == b) & (self.last == a2)
                if sel.any():
                    logW[b, a2] = log_sum_exp(self.phis[sel])
        return logW

    def _log_terms(self, s: float, logW: np.ndarray) -> np.ndarray:
        """L[a, b, a'] = ln of the connector (a, b) then the words from b to
        a', each step discounted by e^-s: B(s)[a, a'] is the sum over b of
        e^L[a, b, a']. -inf where no word runs from b to a'."""
        return (self.conn_phi - s * (self.conn_len + self.N))[:, :, None] + logW[None, :, :]

    def _renewal_point(self, s: float, logW: np.ndarray):
        """(f, slope, quotients, slack) of f(s) = ln rho(B(s)) at s.

        B(s) is formed as e^m B~, m the largest log term, so no entry
        overflows. rho and the left and right Perron vectors u, v of B~ come
        from np.linalg.eig, and slope = f'(s) = u'B~'v / (rho u'v), where
        B~'[a, a'] = -sum_b (conn_len[a, b] + N) e^(L[a, b, a'] - m) is the
        derivative of B(s) scaled the same way. quotients are the computed
        ln((B v)_i / v_i), whose min and max bracket f(s) for any positive v
        (Collatz-Wielandt), and slack bounds their rounding error; see
        log_pressure.
        """
        L = self._log_terms(s, logW)
        m = float(L.max())
        terms = np.exp(L - m)
        B = terms.sum(axis=1)
        right, left = (np.linalg.eig(M) for M in (B, B.T))
        rho = float(right[0].real.max())
        v = np.abs(right[1][:, right[0].real.argmax()].real)
        u = np.abs(left[1][:, left[0].real.argmax()].real)
        k = (self.conn_len + self.N)[:, :, None]
        slope = -float(u @ (k * terms).sum(axis=1) @ v) / (rho * float(u @ v))
        with np.errstate(divide="ignore", invalid="ignore"):
            quotients = m + np.log(B @ v / v)
        size = (2 * abs(s) * k + np.abs(self.conn_phi)[:, :, None] + 2 * np.abs(L))[np.isfinite(L)].max()
        slack = 2 * _UNIT * (float(size) + 2 * abs(m) + 2 * float(np.abs(quotients).max()) + 2 * B.shape[0] + 2)
        return m + math.log(rho), slope, quotients, slack

    def log_pressure(self):
        """(lo, hi, info): a proven bracket of ln lambda, lambda the dominant
        presentation eigenvalue, from the junction renewal equation.

        f(s) = ln rho(B(s)) is strictly decreasing and crosses 0 exactly at
        s = ln lambda. Each entry of B(s) is a sum of exponentials affine in
        s, so f is convex (Kingman, Quart. J. Math. 12, 1961), and Newton
        steps from a point where f > 0 rise monotonically to the root. The
        start is the mean word weight - 2, lowered by 2 until f > 0.

        The bracket is [r - h, r + h], r the root estimate, with the
        half-width h = 0.4 RENEWAL_TOL, or 4 slack / |f'| where the rounding
        slack at r needs more. The steps stop when one is below h / 8, and r
        is the last iterate plus its step. Both ends are proven by
        Collatz-Wielandt: for B >= 0 and any v > 0, min_i (Bv)_i / v_i <=
        rho(B) <= max_i (Bv)_i / v_i. With v the computed Perron vector at
        each end and q_i the computed ln((Bv)_i / v_i), lo needs
        min_i q_i > slack and hi needs max_i q_i < -slack.

        The slack bounds |q_i computed - q_i exact| to first order, taking
        conn_phi, logW and s as exact data, with u = 2^-53 the unit roundoff
        and exp and log within one ulp:
        - L = conn_phi - s k + logW, k = conn_len + N an exact integer, takes
          three roundings: at most u (2|s| k + |conn_phi| + |L|);
        - L - m adds u (|L| + |m|) and exp 2u relative, so each term of B~
          is off by at most u (2|s| k + |conn_phi| + 2|L| + |m| + 2)
          relative, and a sum of them by the largest of these over the
          finite terms;
        - the sums over b and the products B~ v add at most A nonnegative
          terms each: (2A - 1) u relative;
        - the division by v_i adds u, the log u |ln q~_i| with
          |ln q~_i| <= |q_i| + |m|, and the addition of m u |q_i|.
        Altogether u (max(2|s| k + |conn_phi| + 2|L|) + 2|m| + 2|q_i| +
        2A + 2); the slack is twice that, at the largest |q_i|, which covers
        the second-order terms.

        info holds the number of evaluations of f and the proven quotients,
        e^min q at lo and e^max q at hi. An end that is not proven is
        refused with both ends and their log quotients.
        """
        logW = self._pair_log_weight()
        s = float(log_sum_exp(self.phis) / self.N) - 2.0
        f, slope, _, slack = self._renewal_point(s, logW)
        evaluations = 1
        while not f > 0.0:
            if evaluations == RENEWAL_MAX_EVALUATIONS:
                raise PreconditionError(f"no rate with rho(B) > 1 found down to {s!r}")
            s -= 2.0
            f, slope, _, slack = self._renewal_point(s, logW)
            evaluations += 1
        while True:
            step = -f / slope
            s += step
            half = max(0.4 * RENEWAL_TOL, 4 * slack / abs(slope))
            if abs(step) < half / 8:
                break
            if evaluations == RENEWAL_MAX_EVALUATIONS:
                raise PreconditionError(f"the renewal Newton steps did not settle: the last step was {step!r}")
            f, slope, _, slack = self._renewal_point(s, logW)
            evaluations += 1
        lo, hi = s - half, s + half
        (_, _, q_lo, slack_lo), (_, _, q_hi, slack_hi) = (self._renewal_point(x, logW) for x in (lo, hi))
        low, high = float(q_lo.min()), float(q_hi.max())
        if not (low > slack_lo and high < -slack_hi):
            raise PreconditionError(
                f"the renewal root bracket [{lo!r}, {hi!r}] is not proven: the least log Collatz-Wielandt "
                f"quotient at lo is {low!r} against a slack of {slack_lo:.3g}, the greatest at hi {high!r} "
                f"against {-slack_hi:.3g}"
            )
        return lo, hi, {"evaluations": evaluations + 2, "quotients": [math.exp(low), math.exp(high)]}

    # -- finite-window partition sums ----------------------------------------

    def log_theta(self, n: int, level: int, anchored: bool) -> float:
        """ln Theta over presentation paths: windows of n weighted symbols plus
        level-1 trailing symbols. Paths are counted, not spelled words, so
        phase-ambiguous spellings may be counted more than once; reports flag
        this. anchored=True restricts windows to start at word starts."""
        L = n + level - 1
        shift = self.phi.max_value
        wsym = np.exp(self.phi.values_flat - shift)
        A = self.sys.alphabet_size
        word_w = wsym[self.words.astype(np.intp)]  # (K, N) per-position weights
        word_1 = np.ones_like(word_w)
        conn_w = {p: wsym[np.array(c, dtype=np.intp)] if c else np.empty(0) for p, c in self.conn.items()}
        conn_1 = {p: np.ones(len(c)) for p, c in self.conn.items()}

        if anchored:
            x_word = np.zeros((self.K, self.N))
            x_word[:, 0] = word_w[:, 0]
            x_conn = {p: np.zeros(len(c)) for p, c in self.conn.items()}
        else:
            x_word = word_w.copy()
            x_conn = {p: conn_w[p].copy() for p in self.conn}

        for t in range(1, L):
            weighted = t < n
            ww = word_w if weighted else word_1
            cw = conn_w if weighted else conn_1
            end_mass = np.bincount(self.last, weights=x_word[:, self.N - 1], minlength=A)
            inflow = np.zeros(A)
            new_conn = {}
            for (a, b), c in self.conn.items():
                arr = x_conn[(a, b)]
                if len(c) == 0:
                    inflow[b] += end_mass[a]
                    new_conn[(a, b)] = arr
                    continue
                out = np.empty(len(c))
                out[0] = end_mass[a] * cw[(a, b)][0]
                if len(c) > 1:
                    out[1:] = arr[:-1] * cw[(a, b)][1:]
                inflow[b] += arr[-1]
                new_conn[(a, b)] = out
            new_word = np.zeros_like(x_word)
            new_word[:, 1:] = x_word[:, :-1] * ww[:, 1:]
            new_word[:, 0] = inflow[self.first] * ww[:, 0]
            x_word = new_word
            x_conn = new_conn

        total = float(x_word.sum()) + float(sum(arr.sum() for arr in x_conn.values()))
        if total <= 0:
            return NEG_INF
        return math.log(total) + shift * n

    def word_theta(self, n: int, level: int, anchored: bool = False, state_cap: int = 100_000) -> float:
        """Exact ln Theta over distinct spelled words, by a weighted subset
        (follower-set) recursion: every word corresponds to one chain of
        vertex sets, so phase-ambiguous spellings are counted once. Intended
        for small selections; raises when the follower-set family explodes."""
        sym, src, dst = self._presentation
        by_src = np.argsort(src, kind="stable")
        succ = [d.tolist() for d in np.split(dst[by_src], np.cumsum(np.bincount(src, minlength=sym.size))[:-1])]
        L = n + level - 1
        shift = self.phi.max_value
        wsym = np.exp(self.phi.values_flat - shift)
        A = self.sys.alphabet_size
        cur = {}
        for s in range(A):
            if anchored:
                members = frozenset(
                    int(i) * self.N for i in np.nonzero(self.first == s)[0]
                )
            else:
                members = frozenset(int(v) for v in np.nonzero(sym == s)[0])
            if members:
                cur[members] = cur.get(members, 0.0) + wsym[s]
        for t in range(1, L):
            weighted = t < n
            new = {}
            for S, val in cur.items():
                for b in range(A):
                    T = frozenset(v2 for v in S for v2 in succ[v] if sym[v2] == b)
                    if not T:
                        continue
                    new[T] = new.get(T, 0.0) + val * (wsym[b] if weighted else 1.0)
            cur = new
            if len(cur) > state_cap:
                raise ResourceBudgetError(
                    f"follower-set family exceeded {state_cap} states", n=n
                )
            if not cur:
                return NEG_INF
        total = math.fsum(cur.values())
        if total <= 0:
            return NEG_INF
        return math.log(total) + shift * n

    def language_words(self, length: int, budget: int = 1_000_000) -> np.ndarray:
        """All distinct factors of the subshift of the given length, by
        materializing enough glued blocks at every phase and deduplicating."""
        blocks_needed = 2 + (length + self.N + self.tau) // self.N
        if self.K**blocks_needed > budget:
            raise ResourceBudgetError(
                f"language extraction needs {self.K}^{blocks_needed} sequences, over budget {budget}",
                n=length,
            )
        rows = []
        for seq in itertools.product(range(self.K), repeat=blocks_needed):
            glued, _times, _gaps = glue_words(self.sys, [self.words[i] for i in seq])
            limit = len(glued) - length + 1
            for off in range(min(self.N + self.tau, limit)):
                rows.append(glued[off : off + length])
        return np.unique(np.array(rows, dtype=np.uint8), axis=0)

    def finite_pressure_report(
        self,
        level: int,
        anchored: bool,
        blocks: tuple = (3, 5, 8),
        exact_limit: int = 300_000,
        window_cap: int = 44,
    ) -> PressureReport:
        """Finite-window growth estimate, a test oracle for the renewal eigenvalue.

        Small systems extract the actual language once and report exact
        partition sums over a window range (value = least quotient, the
        finite-n upper proxy); large ones fall back to the path recursion at
        a few block multiples and flag the possible phase overcount."""
        span = self.N + self.tau
        exact = self.K <= 64 and window_cap >= 2 * span
        seq = []
        ns = []
        if exact:
            step = max(1, span // 3)
            ns = list(range(span, window_cap + 1, step))
            try:
                for n in ns:
                    seq.append(self.word_theta(n, level, anchored, state_cap=exact_limit) / n)
            except ResourceBudgetError:
                exact = False
                seq = []
        if not exact:
            ns = sorted({max(2, b * span) for b in blocks})
            for n in ns:
                logtheta = self.log_theta(n, level, anchored)
                seq.append(logtheta / n if logtheta != NEG_INF else NEG_INF)
        finite = [a for a in seq if a != NEG_INF]
        value = min(finite) if finite else NEG_INF
        top = seq[len(seq) // 2 :]
        return PressureReport(
            value=value,
            method="enumeration",
            params={"level": level, "windows": ns, "anchored": anchored},
            error_bound=(max(top) - min(top)) if all(a != NEG_INF for a in top) else math.inf,
            extras={"sequence": seq, "exact_words": exact, "path_dp": not exact},
        )

    # -- explicit presentation ------------------------------------------------

    @cached_property
    def _kept_len(self):
        """conn_len with 0 for each connector toward a symbol no word starts
        with: such a connector would end in a sink, so the presentation
        leaves it out. B(s) has no term through it either."""
        return self.conn_len * np.isin(np.arange(self.sys.alphabet_size), self.first)

    def vertex_count(self) -> int:
        return self.K * self.N + int(self._kept_len.sum())

    def edge_count(self) -> int:
        """Edges along words and connectors, into and out of each connector,
        and between directly joined words, counted without listing them."""
        ends, starts = (np.bincount(x, minlength=self.sys.alphabet_size) for x in (self.last, self.first))
        joined = self._kept_len > 0
        along = self.K * (self.N - 1) + np.maximum(self._kept_len - 1, 0).sum()
        return int(along + ends @ joined.sum(1) + joined.sum(0) @ starts + ends @ ~joined @ starts)

    @cached_property
    def _presentation(self):
        """(symbols, src, dst) of the presentation. Word i position p is vertex
        i*N + p; the connector positions follow, pair by pair in row-major
        order, each kept one (see _kept_len). Edges run along the words, then
        between directly joined words (i, j), then per connector: in from
        each word ending at its pair, along it, out to each word starting
        there."""
        A, K, N, kept = self.sys.alphabet_size, self.K, self.N, self._kept_len
        lens = kept.ravel()
        start = K * N + np.cumsum(lens) - lens  # first vertex of each connector
        pair = np.repeat(np.arange(A * A), lens)  # pair a*A + b of each connector vertex
        conn_symbols = [s for p in np.ndindex(A, A) if kept[p] for s in self.conn[p]]
        symbols = np.concatenate([self.words.ravel(), np.array(conn_symbols, dtype=np.uint8)]).astype(np.intp)
        inner = np.arange(K * N).reshape(K, N)[:, :-1].ravel()
        i, j = np.nonzero(self.conn_len[np.ix_(self.last, self.first)] == 0)
        # connector edges, each keyed by (pair, in/along/out) and in order within a key
        i_in, b_in = np.nonzero(kept[self.last] > 0)
        a_out, j_out = np.nonzero(kept[:, self.first] > 0)
        along = np.flatnonzero(np.arange(K * N, symbols.size) + 1 < start[pair] + lens[pair])
        pair_in, pair_out = self.last[i_in] * A + b_in, a_out * A + self.first[j_out]
        order = np.argsort(np.concatenate([3 * pair_in, 3 * pair[along] + 1, 3 * pair_out + 2]), kind="stable")
        along += K * N  # connector index -> vertex
        src = np.concatenate([i_in * N + N - 1, along, start[pair_out] + lens[pair_out] - 1])[order]
        dst = np.concatenate([start[pair_in], along + 1, j_out * N])[order]
        return symbols, np.concatenate([inner, i * N + N - 1, src]), np.concatenate([inner + 1, j * N, dst])

    def explicit_digraph(self):
        """Vertex/edge lists of the presentation, or a size summary past
        DIGRAPH_MAX_EDGES edges, where the quadratic boundary fan-out would
        be unreasonable to emit."""
        n_edges = self.edge_count()
        if n_edges > DIGRAPH_MAX_EDGES:
            return {
                "summary": True,
                "vertices": self.vertex_count(),
                "edges": n_edges,
                "words": self.K,
                "word_length": self.N,
                "tau": self.tau,
            }
        symbols, src, dst = self._presentation
        A, N, lens = self.sys.alphabet_size, self.N, self._kept_len.ravel()
        pair = np.repeat(np.arange(A * A), lens)
        place = np.arange(pair.size) - (np.cumsum(lens) - lens)[pair]
        names = [f"w{v // N}.{v % N}" for v in range(self.K * N)]
        names += [f"c{k // A}-{k % A}.{q}" for k, q in zip(pair.tolist(), place.tolist())]
        vertices = [{"id": v, "name": n, "symbol": s} for v, (n, s) in enumerate(zip(names, symbols.tolist()))]
        return {"summary": False, "vertices": vertices, "edges": np.stack([src, dst], 1).tolist()}


def build_glued(phi: Potential, words, params=None) -> GluedSubshift:
    """Materialize the glued subsystem from an explicit word selection."""
    words = list(words)
    if not words:
        raise ConfigError("cannot glue an empty word set")
    if len({len(tuple(w)) for w in words}) != 1:
        raise ConfigError("all selected words must share one length")
    for w in words:
        if not is_admissible(phi.sys, w):
            raise ConfigError(f"selected word {tuple(int(s) for s in w)} is not admissible in the system")
    return GluedSubshift(phi, np.asarray(words, dtype=np.uint8), params)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class Inequality(NamedTuple):
    """One feasibility inequality: its name prints it with one operator,
    ` < ` or ` > `, and `ok` compares lhs with rhs by that operator, so a
    printed row cannot disagree with its verdict."""

    name: str
    lhs: float
    rhs: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.lhs < self.rhs if " < " in self.name else self.lhs > self.rhs

    def to_dict(self):
        def f(x):
            return None if math.isinf(x) else x

        return {"name": self.name, "lhs": f(self.lhs), "rhs": f(self.rhs), "ok": self.ok, "note": self.note}


class ConstructionResult(NamedTuple):
    subsystem: GluedSubshift
    lower: PressureReport
    upper: PressureReport
    certified: bool
    params: dict
    inequalities: list
    selection: dict
    recoding: np.ndarray | None = None  # the blocks of a memory-1 recoding

    def base_words(self):
        """Selected words spelled in the base alphabet."""
        words = self.subsystem.words
        return [tuple(w) for w in (words if self.recoding is None else _project(self.recoding, words)).tolist()]

    def to_dict(self):
        return {
            "params": self.params,
            "certified": self.certified,
            "inequalities": [iq.to_dict() for iq in self.inequalities],
            "selection": self.selection,
            "lower": self.lower.to_dict(),
            "upper": self.upper.to_dict(),
            "words": [word_str(w) for w in self.base_words()],
            "presentation": self.subsystem.explicit_digraph(),
        }


def _measure_partition_floor(phi, core, pressure, gamma_res, budget):
    """Fit of the partition-function floor on the core class: the least
    ln Theta(n) - n * pressure over n = 2..C0_N_CAP and the n attaining it."""
    two_gamma = Resolution(gamma_res.level - 1)
    best = math.inf
    best_n = None
    for n in range(2, C0_N_CAP + 1):
        lt = partition_function(phi, core, n, two_gamma, None, budget)
        if lt == NEG_INF:
            return NEG_INF, None
        a = lt - n * pressure
        if a < best:
            best = a
            best_n = n
    return best, best_n


class Preparation:
    """The alpha-independent part of the construction, shared by every alpha of
    a sweep: the pressure interval of the potential as given, the memory-1
    recoding and normalization shift, the affix-cap scan with its partition
    floor, and the per-N core data. Each stage runs when first requested;
    construct() is the per-alpha step."""

    def __init__(self, phi: Potential, dec: OrbitDecomposition, config: ConstructConfig | None = None):
        self.config = config or ConstructConfig()
        self.gamma_res, self.delta_res = self.config.resolutions()
        self._inputs = (phi, dec)
        self._memo = {}

    def interval(self):
        """(Karp floor, oracle pressure) of the potential as given, before any recoding or shift."""
        phi = self._inputs[0]
        return _remembered(self._memo, "interval", lambda: (pressure_floor(phi), pressure_oracle(phi).value))

    def _normalize(self):
        phi_c, self.dec, self.recoding = _recode_memory_one(*self._inputs)
        self.shift = phi_c.min_value
        self.phi = phi_c.shifted(-self.shift)

    def _scan_caps(self):
        # affix cap scan: the partition floor on the bounded core must stay positive
        config = self.config
        pressure_n = self.interval()[1] - self.shift  # the pressure of the normalized potential
        for cap in AFFIX_CAPS:
            core = affix_bounded(self.dec, cap)
            try:
                tau = check_gluing(self.phi.sys, core)
            except CertificateError:
                continue
            log_c0, n1 = _measure_partition_floor(self.phi, core, pressure_n, self.gamma_res, config.budget)
            if log_c0 != NEG_INF:
                break
        else:
            raise InfeasibleError(
                "no affix cap yields a glued core with positive partition floor",
                diagnostics=[("affix caps scanned", AFFIX_CAPS, None)],
            )
        self.cap, self.core, self.tau, self.log_c0, self.n1 = cap, core, tau, log_c0, n1
        self.core_words = CoreWords(self.phi, core, config.budget)
        self.log_sep_gap = (
            math.log(tau) + math.log(float(count_words(self.phi.sys, tau + self.delta_res.level - 1)))
            if tau >= 1
            else NEG_INF
        )

    def construct(self, alpha: float, eta0: float) -> ConstructionResult:
        """The construction at one alpha; see construct_intermediate."""
        if eta0 <= 0:
            raise ConfigError(f"eta0 must be positive, got {eta0}")
        _remembered(self._memo, "normalize", self._normalize)
        (floor, pressure), shift = self.interval(), self.shift
        if not (floor < alpha < pressure):
            raise InfeasibleError(
                f"alpha must lie strictly between the pressure floor and the pressure: "
                f"{floor:.6f} < {alpha:.6f} < {pressure:.6f} fails",
                diagnostics=[("floor < alpha < pressure", floor, pressure)],
            )
        alpha_n = alpha - shift
        # slack parameter: a fifth of the tolerance or of alpha, further capped
        # so that alpha +- eta stays inside the open pressure interval (the
        # two-sided tolerance may poke outside it; the slack must not)
        eta = min(eta0 / 5.0, alpha_n / 5.0, 0.45 * (pressure - alpha), 0.45 * (alpha - floor))

        _remembered(self._memo, "scan_caps", self._scan_caps)
        config, phi_n, cap, tau, log_c0, n1 = self.config, self.phi, self.cap, self.tau, self.log_c0, self.n1
        n_min = n1 or 1  # max(N0, N1), with N0 = 1 for exact gluing
        tau_note = "vacuous when tau = 0" if tau == 0 else ""
        gap_note = tau_note or (
            "deterministic connectors carry one gap choice per junction; "
            f"the existential-gap form would need N*eta > {self.log_sep_gap:.4f}"
        )
        # the range holds the cap even when it is not above n_min, so a refusal
        # always names the inequality that fails there
        n_log = []
        for N in range(min(n_min + 1, config.n_cap), config.n_cap + 1):
            # core_bowen is 0: the Bowen bound of the recoded potential, of
            # memory 1, vanishes at every level >= 1, and delta >= 7
            checks = [Inequality(*row) for row in (
                ("sup_birkhoff < N(alpha-eta)", self.core_words.sup(N), N * (alpha_n - eta)),
                ("N > max(N0, N1)", N, n_min),
                ("N*eta > -ln(C0)", N * eta, -log_c0),
                ("exp(2*N*eta) > 2", 2 * N * eta, math.log(2.0)),
                ("N > alpha*tau/eta", N, alpha_n * tau / eta, tau_note),
                ("N*eta > core_bowen + 2*cap*var(phi)", N * eta, 2 * cap * phi_n.spread),
                ("N*eta > tau*max(phi)", N * eta, tau * phi_n.max_value, gap_note),
            )]
            # the class weight sum enumerates the class words: take it only at an N
            # where the seven closed-form inequalities hold, since it decides no other
            if all(c.ok for c in checks):
                checks.append(
                    Inequality("ln sum_core > N(alpha+eta)", self.core_words.log_total(N), N * (alpha_n + eta))
                )
            n_log.append((N, checks))
            if all(c.ok for c in checks):
                break
        else:
            failures = [(N, [(c.name, c.lhs, c.rhs) for c in checks if not c.ok]) for N, checks in n_log]
            raise InfeasibleError(
                f"no feasible word length below the cap {config.n_cap}; last failures: {failures[-1]}",
                diagnostics=failures,
            )

        words, phis, sel_info = select_words(
            phi_n, self.core, alpha_n, eta, N, config.budget, core_words=self.core_words
        )
        params = {
            "alpha": alpha,
            "eta0": eta0,
            "pressure_interval": [floor, pressure],
            "eta": eta,
            "N": N,
            "affix_cap": cap,
            "tau": tau,
            "E_size": int(words.shape[0]),
            "normalization_shift": shift,
            "recoded": self.recoding is not None,
            "log_c0": log_c0,
            "N1": n1,
            "level_delta": self.delta_res.level,
        }
        glued = GluedSubshift(phi_n, words, params, phis)

        lo, hi, info = glued.log_pressure()
        value = 0.5 * (lo + hi) + shift
        lower, upper = (
            PressureReport(
                value=end + shift,
                method="oracle",
                params={"level": level, "tol": RENEWAL_TOL, "words": glued.K, "word_length": glued.N},
                error_bound=hi - lo,
                extras={"solver": "junction-renewal", "basis": basis, **info},
            )
            for end, level, basis in (
                (lo, self.gamma_res.level, "the presentation's eigenvalue; it equals the subshift's "
                 "pressure only if the presentation is finite-to-one, which is not checked"),
                (hi, self.delta_res.level - 1, "the presentation's path space factors onto the glued "
                 "subshift, and a factor map cannot raise pressure"),
            )
        )
        lower_ok = lower.value >= alpha - eta0
        upper_ok = upper.value <= alpha + eta0
        certified = bool(lower_ok and upper_ok)
        params["pressure"] = value
        params["gap"] = abs(value - alpha)
        return ConstructionResult(
            subsystem=glued,
            lower=lower,
            upper=upper,
            certified=certified,
            params=params,
            inequalities=checks,
            selection=sel_info,
            recoding=self.recoding,
        )


def construct_intermediate(
    phi: Potential,
    dec: OrbitDecomposition,
    alpha: float,
    eta0: float,
    config: ConstructConfig | None = None,
) -> ConstructionResult:
    """Build a compact invariant subsystem whose pressure is within eta0 of alpha.

    Follows the word-length search: normalize the potential to be
    nonnegative, measure the partition floor constant on the affix-bounded
    core, then walk N upward until the six feasibility inequalities hold,
    select the word set, glue, and check both sides of the eta0 band against
    one junction-renewal eigenvalue. Raises InfeasibleError when alpha is
    outside the open pressure interval or no N below the cap works; a
    violated bound is reported as certified=False with full diagnostics,
    never silently.
    """
    return Preparation(phi, dec, config).construct(alpha, eta0)


# ---------------------------------------------------------------------------
# counting-bound verification
# ---------------------------------------------------------------------------

class CountingBoundResult(NamedTuple):
    ok: bool
    classes_checked: int
    worst_count: int
    bound: float
    theta_checked: bool
    failures: list


def _continuation_prefixes(glued: GluedSubshift, last_symbol: int, h: int) -> set:
    """Distinct length-h continuations of a class past its determined span,
    grown one connector-glued word at a time from its last symbol."""
    steps = [(int(b), tuple(w), int(a)) for b, w, a in zip(glued.first, glued.words.tolist(), glued.last)]
    out, growing = set(), {((), last_symbol)}
    while growing:
        grown = {(p + glued.conn[(a, b)] + w, a2) for p, a in growing for b, w, a2 in steps}
        out |= {p[:h] for p, _ in grown if len(p) >= h}
        growing = {(p, a) for p, a in grown if len(p) < h}
    return out


def verify_counting_bound(
    glued: GluedSubshift,
    n: int,
    delta: Resolution | None = None,
    eta: float | None = None,
) -> CountingBoundResult:
    """Exhaustive per-class separated-point count against the gap-choice bound.

    Every class fixes n glued words (gaps are functions of the word pair, so
    only the matching gap tuple is nonempty); the separated points of the
    class at scale delta are its distinct window prefixes, which must number
    at most s(X, tau, delta)^(n-1). Also evaluates the window partition sum
    against the truncated-block upper bound. A class's count depends only on
    its last symbol and on how far the window reaches past its determined
    span, so continuations are enumerated once per such key, not per class.
    """
    if n not in COUNTING_N:
        raise PreconditionError("counting-bound verification is exhaustive; use 2 <= n <= 8")
    K, N = glued.K, glued.N
    if K**n > COUNTING_CLASSES:
        raise ResourceBudgetError(f"{K}^{n} classes exceed the class budget {COUNTING_CLASSES}", n=n)
    delta = delta or Resolution(glued.params.get("level_delta", 7))
    eta = eta if eta is not None else float(glued.params.get("eta", 0.0))
    tau = glued.tau
    sep_len = tau + delta.level - 1
    s_tau = float(count_words(glued.sys, sep_len)) if sep_len >= 1 else 1.0
    # count_words starts at length 1; there is exactly one word of length 0
    s_delta = float(count_words(glued.sys, delta.level - 1)) if delta.level > 1 else 1.0
    bound = s_tau ** (n - 1) if tau >= 1 else max(s_delta ** (n - 1), 1.0)
    window = n * N + delta.level - 1
    theta_n = math.floor((n - 4) * N / (N + tau)) if n > 4 else 0

    # seq[k] is the k-th word index of every class; class c is the c-th tuple
    # of itertools.product(range(K), repeat=n)
    seq = np.indices((K,) * n, dtype=np.min_scalar_type(K - 1)).reshape(n, -1)
    gap = glued.conn_len[np.ix_(glued.last, glued.first)]
    det = n * N + sum(gap[seq[k], seq[k + 1]] for k in range(n - 1))
    class_key = glued.last[seq[-1]] * delta.level + np.maximum(window - det, 0)  # (last symbol, h)
    keys, inverse = np.unique(class_key, return_inverse=True)
    counts = np.array([
        len(_continuation_prefixes(glued, *map(int, divmod(key, delta.level)))) for key in keys
    ])[inverse]
    count_fail = counts > bound

    theta_fail = np.zeros_like(count_fail)
    if theta_n >= 3:  # theta_n is 0 for n <= 4
        # the width-(n-3)N prefix of a glued word lies inside its first n-3 blocks
        width = (n - 3) * N
        heads = [glue_words(glued.sys, [glued.words[i] for i in head])[0][:width]
                 for head in itertools.product(range(K), repeat=n - 3)]
        theta = np.repeat(birkhoff_batch(glued.phi, np.array(heads, dtype=np.uint8), width), K**3)
        log_bound = np.array([
            (n - 1) * math.log(max(s_tau, 1.0))
            + math.fsum(glued.phis[i] for i in mid)
            + 2 * n * N * eta
            + 5 * N * glued.phi.max_value
            for mid in itertools.product(range(K), repeat=theta_n - 2)
        ])
        log_bound = np.tile(np.repeat(log_bound, K ** (n - theta_n)), K**2)
        theta_fail = theta > log_bound + 1e-9

    failures = []
    for c in np.flatnonzero(count_fail | theta_fail)[:10]:
        cls = seq[:, c].tolist()
        if count_fail[c]:
            failures.append({"class": cls, "count": int(counts[c]), "bound": bound})
        if theta_fail[c]:
            failures.append({"class": cls, "theta": theta[c], "theta_bound": float(log_bound[c])})
    return CountingBoundResult(
        ok=not (count_fail.any() or theta_fail.any()),
        classes_checked=K**n,
        worst_count=int(counts.max()),
        bound=bound,
        theta_checked=theta_n >= 3,
        failures=failures[:10],
    )


# ---------------------------------------------------------------------------
# density sweep
# ---------------------------------------------------------------------------

class DensityRow(NamedTuple):
    alpha: float
    certified: bool
    pressure: float | None
    gap: float | None
    N: int | None
    tau: int | None
    e_size: int | None
    error: str = ""


class DensityResult(NamedTuple):
    rows: list
    floor: float
    ceiling: float
    tail_correction: float


def density_experiment(
    phi: Potential,
    dec: OrbitDecomposition,
    grid_size: int,
    eta0: float,
    config: ConstructConfig | None = None,
    margin: float | None = None,
) -> DensityResult:
    """Run the construction across an alpha grid spanning the pressure interval.

    Requires the structure conditions to pass; individual alpha failures are
    recorded per row and the sweep continues. The tail correction var(phi, 2*delta)
    is logged: it vanishes at these resolutions for finite-memory potentials,
    which is exactly what makes the certification two-sided.
    """
    if grid_size < 1:
        raise ConfigError(f"grid size must be >= 1, got {grid_size}")
    if margin is not None and margin < 0:
        raise ConfigError(f"--margin must be >= 0, got {margin}")
    prep = Preparation(phi, dec, config)
    floor, ceiling = prep.interval()
    check = check_structure_conditions(phi, dec, ceiling, prep.config)
    if not check.all_pass:
        bad = [c.name for c in check.conditions if c.status != "pass"]
        raise InfeasibleError(
            f"structure conditions not all passing: {', '.join(bad)}",
            diagnostics=[(c.name, c.status, c.margin) for c in check.conditions],
        )
    margin = eta0 if margin is None else margin
    lo, hi = floor + margin, ceiling - margin
    if lo >= hi:
        raise InfeasibleError(
            f"margin {margin} leaves an empty alpha interval ({lo:.6f}, {hi:.6f})",
            diagnostics=[("floor+margin < pressure-margin", lo, hi)],
        )
    if grid_size == 1:
        alphas = [0.5 * (lo + hi)]
    else:
        alphas = list(np.linspace(lo, hi, grid_size))
    tail = variation(phi, Resolution(prep.delta_res.level - 1))  # at 2*delta
    rows = []
    for a in alphas:
        try:
            res = prep.construct(float(a), eta0)
            rows.append(
                DensityRow(
                    alpha=float(a),
                    certified=res.certified,
                    pressure=res.params["pressure"],
                    gap=res.params["gap"],
                    N=res.params["N"],
                    tau=res.params["tau"],
                    e_size=res.params["E_size"],
                )
            )
        except _REFUSALS as exc:
            rows.append(
                DensityRow(
                    alpha=float(a), certified=False, pressure=None, gap=None,
                    N=None, tau=None, e_size=None, error=str(exc),
                )
            )
    return DensityResult(rows=rows, floor=floor, ceiling=ceiling, tail_correction=tail)
