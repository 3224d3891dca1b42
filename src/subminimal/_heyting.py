"""The Heyting reduct of a finite N-algebra: its meet, join, arrow and
top, and everything derived from them alone.

An N-algebra is its reduct plus a negation (algebra.NAlgebra). The
reduct holds the lattice side of every algebra-layer question, each
part computed on first use and kept: the element order as masks, the
verdict of the lattice and residuation laws, the prime filters, their
hats and the dual poset, and the lattice half of the duality round
trip. What reads the negation stays with the algebra.

Two algebras share a reduct only when they hold the very same table
objects: set_reduct builds the tables of an upset lattice once and
algebra._set_algebra hands them, with their reduct, to every algebra
of those upsets. Any other algebra builds a reduct of its own on first
use. An error is never kept: a dual past the world cap raises on
every use.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from subminimal.frames import Poset, _JSON_MAX_WORLDS, _imp_mask
from subminimal.kernels.pure import _inclusion_cones, _transpose


class Reduct:
    """The tables meet, join and imp (rows of element indices) and the
    top element one of an algebra on 0..size-1, with what they alone
    determine. x <= y reads meet[x][y] == x."""

    def __init__(self, size: int, meet, join, imp, one: int) -> None:
        self.size = size
        self.meet = meet
        self.join = join
        self.imp = imp
        self.one = one

    @cached_property
    def _scan(self) -> tuple[list[int], list[int], bool]:
        """One pass over the tables: U[x], the mask of the y above x
        (meet[x][y] == x), D[y], the mask of the x below y (the
        transpose of U), and whether part (1) of the law test holds."""
        rng = range(self.size)
        meet, join, one = self.meet, self.join, self.one
        U = [0] * self.size
        D = [0] * self.size
        ok = tuple(zip(*meet)) == meet and tuple(zip(*join)) == join
        for x in rng:
            mx, jx = meet[x], join[x]
            if mx[x] != x or jx[x] != x or mx[one] != x:
                ok = False
            bit = 1 << x
            for y in rng:
                m = mx[y]
                if mx[jx[y]] != x or jx[m] != x:
                    ok = False
                if m == x:
                    U[x] |= 1 << y
                    D[y] |= bit
        return U, D, ok

    @property
    def up(self) -> list[int]:
        """U[x], the mask of the y above x."""
        return self._scan[0]

    @property
    def down(self) -> list[int]:
        """D[y], the mask of the x below y."""
        return self._scan[1]

    @cached_property
    def order(self) -> Poset:
        """The element order as a poset; ValueError unless the order is
        a partial order, raised again on the next use."""
        return Poset(self.size, self.up)

    @cached_property
    def laws(self) -> bool:
        """Whether the tables satisfy the lattice and residuation laws
        of algebra.check_nalgebra, in O(size^2) steps on the masks U and
        D plus size steps per covering pair. The test asks for:

        (1) idempotence and commutativity of meet and join, both
            absorption laws and the top (meet[x][one] == x), as the
            loop checks them (in _scan, which builds U and D);
        (2) D[meet[x][y]] == D[x] & D[y] and U[join[x][y]] == U[x] & U[y];
        (3) y & (y -> z) <= z, x <= y -> (x & y), and y -> z <= y -> c
            whenever c covers z (c is minimal strictly above z).

        Associativity. Under (1), <= is reflexive (idempotence) and
        antisymmetric (x <= y <= x gives x = meet[x][y] = meet[y][x] =
        y). It is transitive under (2): if x <= y <= z, then
        meet[y][z] == y gives D[y] == D[y] & D[z], and x is in D[y], so
        x <= z. Then (2) says that meet[x][y] lies below x and y (it is
        in its own D) and above every common lower bound: it is the
        greatest lower bound, and the greatest lower bound of three
        elements does not depend on the bracketing. Conversely, an
        associative meet is a semilattice operation, so <= is a partial
        order with meet the greatest lower bound, which is (2) for
        meet. For join, absorption makes its order the same: if
        join[x][y] == y then meet[x][y] == meet[x][join[x][y]] == x, and
        if meet[x][y] == x then join[x][y] == join[y][meet[y][x]] == y.
        So the same argument with U and least upper bounds covers join.

        Residuation, in the lattice that (1) and (2) give: for all x,
        y, z, x & y <= z iff x <= y -> z. If it holds, x = y -> z gives
        the first part of (3), z = x & y the second, and x = y -> z
        with z <= c the third. Conversely, (3) makes y -> . monotone,
        since z <= z' is a chain of covers in a finite order. Then
        x & y <= z gives x <= y -> (x & y) <= y -> z, and x <= y -> z
        gives x & y <= y & (y -> z) <= z.
        """
        U, D, ok = self._scan
        if not ok:
            return False
        rng = range(self.size)
        meet, join, imp = self.meet, self.join, self.imp
        for x in rng:
            mx, jx, dx, ux = meet[x], join[x], D[x], U[x]
            for y in rng:
                if D[mx[y]] != dx & D[y] or U[jx[y]] != ux & U[y]:
                    return False
        # covers[z]: the minimal elements strictly above z
        covers = []
        for z in rng:
            strict = U[z] ^ (1 << z)
            inner = 0
            for y in rng:
                if (strict >> y) & 1:
                    inner |= U[y] ^ (1 << y)
            minimal = strict & ~inner
            covers.append([y for y in rng if (minimal >> y) & 1])
        for y in rng:
            my, iy = meet[y], imp[y]
            for z in rng:
                izy = iy[z]
                if not (D[z] >> my[izy]) & 1 or not (D[iy[my[z]]] >> z) & 1:
                    return False
                uz = U[izy]
                for c in covers[z]:
                    if not (uz >> iy[c]) & 1:
                        return False
        return True

    @cached_property
    def filters(self) -> tuple[int, ...]:
        """The prime filters as element masks, ascending: the up-sets
        U[x] that hold no join of two elements outside them (see
        algebra.prime_filters)."""
        rng = range(self.size)
        join = self.join
        out = []
        for mask in self.up:
            outside = [y for y in rng if not (mask >> y) & 1]
            prime = True
            for y in outside:
                jy = join[y]
                for z in outside:
                    if (mask >> jy[z]) & 1:
                        prime = False
                        break
                if not prime:
                    break
            if prime:
                out.append(mask)
        return tuple(sorted(out))

    @cached_property
    def hats(self) -> tuple[int, ...]:
        """The hat of each element: the mask of the prime filters that
        hold it, the transpose of the filters."""
        return tuple(_transpose(self.filters, self.size))

    @cached_property
    def dual(self) -> Poset:
        """The prime filters ordered by inclusion, the poset of the dual
        frame. Its table covers all 2**k subsets of its k worlds, so a
        dual past the world cap of the frame readers raises ValueError:
        no reader could take it back."""
        k = len(self.filters)
        if k > _JSON_MAX_WORLDS:
            raise ValueError(
                f"the dual would have {k} worlds, more than the cap of {_JSON_MAX_WORLDS}"
            )
        return Poset(k, _inclusion_cones(self.filters))

    @cached_property
    def round_trip(self) -> bool:
        """The lattice half of the duality round trip: whether the hat
        map is a bijection onto the nonempty upsets of the dual poset
        that sends the top to all worlds and commutes with meet, join
        and the arrow, read on world masks: hats[meet[u][v]] is
        hats[u] & hats[v], and so on."""
        hats, p = self.hats, self.dual
        if sorted(hats) != list(p.upsets()[1:]) or hats[self.one] != (1 << p.n) - 1:
            return False
        arrows = _arrow_rows(p.up, hats)
        for u, hu in enumerate(hats):
            mu, ju, iu, au = self.meet[u], self.join[u], self.imp[u], arrows[u]
            for v, hv in enumerate(hats):
                if hats[mu[v]] != hu & hv or hats[ju[v]] != hu | hv or hats[iu[v]] != au[v]:
                    return False
        return True


def set_reduct(up: Sequence[int], elements: tuple[int, ...]) -> tuple[dict[int, int], Reduct]:
    """The index of each of the given upsets of a poset with cones up,
    and the reduct of their lattice. Element i is elements[i]; meet and
    join are intersection and union, and the arrow is the largest upset
    whose meet with the antecedent stays inside the consequent. The
    elements must be closed under all three and hold the full set."""
    index = {u: i for i, u in enumerate(elements)}
    meet = tuple(tuple(index[u & v] for v in elements) for u in elements)
    join = tuple(tuple(index[u | v] for v in elements) for u in elements)
    imp = tuple(tuple(index[w] for w in row) for row in _arrow_rows(up, elements))
    return index, Reduct(len(elements), meet, join, imp, index[(1 << len(up)) - 1])


def _arrow_rows(up: Sequence[int], masks: Sequence[int]) -> list[list[int]]:
    """The Heyting arrow u -> v on world masks for every pair of the
    masks, one row per u, on the poset with cones up. A world is in
    u -> v when its cone misses the gap u & ~v (frames._imp_mask), so
    the arrow depends on the gap alone and is worked out once per
    distinct gap."""
    arrows: dict[int, int] = {}
    rows = []
    for u in masks:
        row = []
        for v in masks:
            gap = u & ~v
            w = arrows.get(gap)
            if w is None:
                w = arrows[gap] = _imp_mask(up, u, v)
            row.append(w)
        rows.append(row)
    return rows
