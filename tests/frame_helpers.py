"""Frame helpers that only the tests use.

Each is a one-line composition of the package's own functions: validity
on a frame through the refutation search, the N-frames of a poset from
its lawful tables, and poset isomorphism as the existence of one order
isomorphism.
"""

from subminimal.frames import (
    NFrame,
    Poset,
    enumerate_ntables,
    poset_isomorphisms,
    refuting_valuation,
)
from subminimal.syntax import Formula


def frame_validates(fr: NFrame, f: Formula) -> bool:
    """Whether every upset valuation makes f true at every world."""
    return refuting_valuation(fr, f) is None


def enumerate_nframes(p: Poset) -> list[NFrame]:
    """Every N-frame on the poset, in canonical table order."""
    return [NFrame(p, t) for t in enumerate_ntables(p)]


def poset_isomorphic(p: Poset, q: Poset) -> bool:
    return next(poset_isomorphisms(p, q), None) is not None
