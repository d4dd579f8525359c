"""Gluing certificates: deterministic connector words and exact orbit tracing.

A certificate fixes, for every ordered symbol pair (a, b), one admissible
connector word of length <= tau joining a word ending in a to a word
starting with b. Concatenation through these connectors traces each input
segment exactly (distance zero at every in-segment time), which is the
strongest possible form of the tracing required at any dyadic resolution:
`glue_words` returns the start time of each block, and the glued word
carries the block's word verbatim from there.

Checking the A^2 connectors once proves gluing for every sequence of
segments: admissibility on a subshift of finite type is a condition on
adjacent symbols, and every adjacent pair of a glued word lies inside a
segment (admissible by assumption) or inside a connector joined to its
neighbours (admissible by the check).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ShiftSystem, is_admissible, word_matrix, word_str
from .segments import SegmentClass
from .errors import CertificateError, ConfigError


@dataclass(frozen=True)
class GluingCertificate:
    """Per-pair connectors plus the gluing parameters (N0, tau).

    The gap sequence of a glued word is determined by consecutive segment
    endpoints: gap(k) = len(connectors[last(w_k), first(w_{k+1})]).
    """

    sys: ShiftSystem
    n0: int
    tau: int
    connectors: dict

    def __post_init__(self):
        A = self.sys.alphabet_size
        if set(self.connectors) != {(a, b) for a in range(A) for b in range(A)}:
            raise CertificateError(f"a certificate needs one connector for each of the {A * A} symbol pairs")
        for (a, b), c in self.connectors.items():
            if len(c) > self.tau:
                raise CertificateError(
                    f"connector for ({a},{b}) has length {len(c)} > tau={self.tau}"
                )
            if not is_admissible(self.sys, (a,) + tuple(c) + (b,)):
                raise CertificateError(
                    f"connector {word_str(c) or 'empty'} does not join {a} to {b} admissibly",
                    counterexample=(a, c, b),
                )


def glue_words(cert: GluingCertificate, words):
    """Concatenate words through the certificate connectors.

    Returns (glued word, block start times, gap lengths): block k starts at
    t_k, the sum of (length + following gap) over the earlier blocks, and
    carries its word verbatim there, at distance 0 at every dyadic level."""
    words = [tuple(int(s) for s in w) for w in words]
    if not words:
        raise ConfigError("nothing to glue")
    if () in words:
        raise ConfigError(f"cannot glue an empty word (block {words.index(())})")
    out = list(words[0])
    times, gaps = [0], []
    for w in words[1:]:
        c = cert.connectors[(out[-1], w[0])]
        gaps.append(len(c))
        out.extend(c)
        times.append(len(out))
        out.extend(w)
    return tuple(out), times, gaps


def check_gluing(sys: ShiftSystem, core_class: SegmentClass) -> GluingCertificate:
    """Build the gluing certificate of a segment class.

    Connectors are `sys.connectors`, BFS shortest paths found once per system;
    the certificate checks each of them once, which proves every glued word
    admissible and exactly traced. It has N0 = 1 and tau = its longest
    connector. The class must have a segment with length in [1, 5], or the
    certificate is refused.
    """
    tau = max(len(c) for c in sys.connectors.values())
    cert = GluingCertificate(sys=sys, n0=1, tau=tau, connectors=sys.connectors)
    if not any(core_class.batch(word_matrix(sys, n), n).any() for n in range(1, 6)):
        raise CertificateError(
            f"class {core_class.description!r} has no segments with lengths in "
            "[1, 5]; cannot verify gluing"
        )
    return cert
