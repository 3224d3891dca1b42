"""Frame helpers that only the tests use.

Each is a short composition of the package's own functions: validity
on a frame through the refutation search, the N-frames of a poset from
its lawful tables, poset isomorphism as the existence of one order
isomorphism, the hat of one algebra element among prime filters, and a
frame's per-world neighbourhood families and back, the way back
through kernels.pure._trace_table.
"""

from typing import Sequence

from subminimal.frames import (
    NFrame,
    Poset,
    enumerate_ntables,
    poset_isomorphisms,
    refuting_valuation,
)
from subminimal.kernels.pure import _trace_table
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


def to_neighbourhood(fr: NFrame) -> tuple[frozenset[int], ...]:
    """Per-world families n(w) = {X upset : w in N(X)}."""
    out = []
    for w in range(fr.n):
        out.append(
            frozenset(u for u in fr.poset.upsets() if (fr.ntable[u] >> w) & 1)
        )
    return tuple(out)


def from_neighbourhood(p: Poset, nbhd: Sequence[frozenset[int]]) -> NFrame:
    """Rebuild an N-frame from per-world upset families.

    The families must grow along the order and must not distinguish
    upsets that agree on the world's cone; either failure raises
    ValueError with the offending world.
    """
    if len(nbhd) != p.n:
        raise ValueError("one neighbourhood family per world required")
    upset_set = set(p.upsets())
    for w in range(p.n):
        for x in nbhd[w]:
            if x not in upset_set:
                raise ValueError(f"neighbourhood of world {w} holds a non-upset")
        m = p.up[w] & ~(1 << w)
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if nbhd[w] - nbhd[v]:
                raise ValueError(f"neighbourhoods shrink from world {w} upward")
        for x in upset_set:
            if ((x & p.up[w]) in nbhd[w]) != (x in nbhd[w]):
                raise ValueError(f"neighbourhood of world {w} ignores its cone unevenly")
    # so an upset is in w's family exactly when its cut to R(w) is
    cuts = [(p.up[w], 1 << w, nbhd[w]) for w in range(p.n)]
    return NFrame(p, tuple(_trace_table(p.n, cuts, p.upsets())))
