"""Frame helpers that only the tests use.

Each is a short composition of the package's own functions: validity
on a frame through the refutation search, the N-frames of a poset from
its lawful tables, poset isomorphism as the existence of one order
isomorphism, and the hat of one algebra element among prime filters.
"""

from typing import Sequence

from subminimal.frames import (
    NFrame,
    Poset,
    enumerate_ntables,
    poset_isomorphisms,
    refuting_valuation,
)
from subminimal.syntax import Formula


def element_hat(filters: Sequence[int], x: int) -> int:
    """World mask of the filters containing the element."""
    out = 0
    for i, f in enumerate(filters):
        if (f >> x) & 1:
            out |= 1 << i
    return out


def frame_validates(fr: NFrame, f: Formula) -> bool:
    """Whether every upset valuation makes f true at every world."""
    return refuting_valuation(fr, f) is None


def enumerate_nframes(p: Poset) -> list[NFrame]:
    """Every N-frame on the poset, in canonical table order."""
    return [NFrame(p, t) for t in enumerate_ntables(p)]


def poset_isomorphic(p: Poset, q: Poset) -> bool:
    return next(poset_isomorphisms(p, q), None) is not None
