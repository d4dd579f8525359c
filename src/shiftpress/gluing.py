"""Exact gluing: words concatenated through their system's connector words.

`ShiftSystem.connectors` fixes one connector word for every ordered symbol
pair (a, b) and proves each a . c . b admissible, once per system. That
proves gluing for every sequence of segments: admissibility on a subshift
of finite type is a condition on adjacent symbols, and every adjacent pair
of a glued word lies inside a segment (admissible by assumption) or inside
a connector joined to its neighbours (admissible by the check). Each segment
is traced exactly (distance zero at every in-segment time, the strongest
tracing at any dyadic resolution): `glue_words` returns the start time of
each block, and the glued word carries the block's word verbatim from there.
So the gap tau, the longest connector, depends on the system alone, and
N0 = 1 for every class (Climenhaga & Thompson, Adv. Math. 303, 2016).
"""

from __future__ import annotations

from .core import ShiftSystem, word_matrix
from .segments import SegmentClass
from .errors import CertificateError, ConfigError


def glue_words(sys: ShiftSystem, words):
    """Concatenate words through the connectors of `sys`.

    Returns (glued word, block start times, gap lengths): block k starts at
    t_k, the sum of (length + following gap) over the earlier blocks, and
    carries its word verbatim there, at distance 0 at every dyadic level.
    The gap after block k is len(connectors[last(w_k), first(w_{k+1})])."""
    words = [tuple(int(s) for s in w) for w in words]
    if not words:
        raise ConfigError("nothing to glue")
    if () in words:
        raise ConfigError(f"cannot glue an empty word (block {words.index(())})")
    out = list(words[0])
    times, gaps = [0], []
    for w in words[1:]:
        c = sys.connectors[(out[-1], w[0])]
        gaps.append(len(c))
        out.extend(c)
        times.append(len(out))
        out.extend(w)
    return tuple(out), times, gaps


def check_gluing(sys: ShiftSystem, core_class: SegmentClass) -> int:
    """The gluing gap tau of a segment class: its system's longest connector.

    The connectors are `sys.connectors`, found and proven admissible once per
    system. The class must have a segment with length in [1, 5], or gluing
    is refused with a `CertificateError`.
    """
    tau = max(len(c) for c in sys.connectors.values())
    if not any(core_class.batch(word_matrix(sys, n), n).any() for n in range(1, 6)):
        raise CertificateError(
            f"class {core_class.description!r} has no segments with lengths in "
            "[1, 5]; cannot verify gluing"
        )
    return tau
