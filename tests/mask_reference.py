"""The mask loops the package replaced with one helper each, as they were.

The differential tests in test_frames.py and test_modal.py run
``kernels._transpose``, ``kernels._inclusion_cones``,
``frames._orders_between``, ``Poset.down``, ``enumerate_preorders`` and
``frames.enumerate_upsets`` against these copies and demand the same
lists in the same order. Each copy is the loop as it stood in its
module: the upsets and the down sets of ``Poset``, the hats of
``algebra``, the Sigma signatures of
``filtration`` (its class members stay in filtration_reference.py);
the cones of the dual frame, of the greatest filtration and the
pairwise order check of the filtration correspondence; and the order
loop of ``enumerate_preorders`` (the one of ``enumerate_filtrations``
stays in filtration_reference.py); and the two witness checks of
``antichain``, ``verify_order_onto`` and ``verify_positive_morphism``,
which test_antichain.py runs against the mask versions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from subminimal.frames import Poset, _transitive
from subminimal.syntax import Formula


def upsets(n: int, up: Sequence[int]) -> list[int]:
    """Every upset of a poset, ascending, each mask tested world by
    world against the cones (frames.enumerate_upsets)."""
    out = []
    for mask in range(1 << n):
        m = mask
        ok = True
        while m:
            w = (m & -m).bit_length() - 1
            if up[w] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def down_sets(n: int, up: Sequence[int]) -> list[int]:
    """The down sets of a poset, from its cones (Poset.__new__)."""
    down = [0] * n
    for w, cone in enumerate(up):
        bit = 1 << w
        while cone:
            v = (cone & -cone).bit_length() - 1
            cone &= cone - 1
            down[v] |= bit
    return down


def hats(size: int, filters: Sequence[int]) -> list[int]:
    """The hat of every element, in one pass over the filters: the hat
    of x is the world mask of the filters containing x."""
    hats = [0] * size
    for i, f in enumerate(filters):
        bit = 1 << i
        while f:
            x = (f & -f).bit_length() - 1
            f &= f - 1
            hats[x] |= bit
    return hats


def signatures(truth: Mapping[Formula, int], order: Sequence[Formula], n: int) -> list[int]:
    """Per world, the int whose bit i is set when order[i] holds there."""
    sig = [0] * n
    for i, f in enumerate(order):
        t = truth[f]
        while t:
            w = (t & -t).bit_length() - 1
            t &= t - 1
            sig[w] |= 1 << i
    return sig


def dual_cones(filters: Sequence[int]) -> list[int]:
    """The cones of the prime filters ordered by inclusion (algebra._dual)."""
    up = []
    for f in filters:
        cone = 0
        for j, g in enumerate(filters):
            if f & ~g == 0:
                cone |= 1 << j
        up.append(cone)
    return up


def greatest_cones(sigs: Sequence[int]) -> list[int]:
    """The greatest filtration's order of the class signatures
    (filtration._greatest)."""
    k = len(sigs)
    return [sum(1 << d for d in range(k) if sigs[c] & ~sigs[d] == 0) for c in range(k)]


def orders_agree(sig: Sequence[int], traces: Sequence[int]) -> bool:
    """Whether inclusion of signatures and of traces agree on every
    pair of worlds (algebra.least_filtration_correspondence)."""
    for sig_i, trace_i in zip(sig, traces):
        for sig_j, trace_j in zip(sig, traces):
            if (sig_i & ~sig_j == 0) != (trace_i & ~trace_j == 0):
                return False
    return True


def enumerate_preorders(n: int) -> list[tuple[int, ...]]:
    """All reflexive transitive cone families on n worlds."""
    out = []
    offdiag = [(w, v) for w in range(n) for v in range(n) if w != v]
    for bits in range(1 << len(offdiag)):
        rel = [1 << w for w in range(n)]
        for k, (w, v) in enumerate(offdiag):
            if (bits >> k) & 1:
                rel[w] |= 1 << v
        if _transitive(rel):
            out.append(tuple(rel))
    return out


def verify_order_onto(target: Poset, source: Poset, f: Sequence[int]) -> bool:
    """Onto order-preserving map check, pair by pair through Poset.le."""
    if len(f) != source.n or any(not 0 <= c < target.n for c in f):
        return False
    image = set(f)
    if len(image) != target.n:
        return False
    for u in range(source.n):
        for v in range(source.n):
            if source.le(u, v) and not target.le(f[u], f[v]):
                return False
    return True


def verify_positive_morphism(target: Poset, source: Poset, f: Mapping[int, int]) -> bool:
    """Positive morphism check, world by world through Poset.le: the
    domain downward closed, forth, and back."""
    dom = set(f)
    if not dom or any(not 0 <= w < source.n for w in dom):
        return False
    if any(not 0 <= c < target.n for c in f.values()):
        return False
    if set(f.values()) != set(range(target.n)):
        return False
    for w in dom:
        for u in range(source.n):
            if source.le(u, w) and u not in dom:
                return False
        for u in dom:
            if source.le(w, u) and not target.le(f[w], f[u]):
                return False
        for v in range(target.n):
            if target.le(f[w], v):
                if not any(source.le(w, u) and f[u] == v for u in dom):
                    return False
    return True
