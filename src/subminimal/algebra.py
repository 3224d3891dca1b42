"""Finite N-algebras, prime-filter duality, and algebraic filtrations.

An N-algebra is a bounded-above lattice with a relative
pseudo-complement and a unary negation tied to the lattice by the
compatibility identity x & -y == x & -(x & y). Upset algebras of
N-frames are the motivating examples and the duality works through
prime filters, where properness is not required: the whole carrier is
a prime filter here and becomes the top world of the dual frame.

Elements are integers 0..size-1 and all operation tables are dense
tuples of size^2 entries. Accepting a lawful algebra takes O(size^2)
bitmask steps plus size steps per covering pair of its order (a table
that breaks a law pays the O(size^3) loop that names it), and finding
the prime filters O(size^3), so algebras of a few dozen elements are
cheap. Each algebra builds its prime filters and dual frame once, on
first use, and keeps them: dual_frame, duality_check and every
least_filtration_correspondence on it share one, and the round trip
compares world masks instead of building a second algebra. The dual
frame has one world per prime filter and, like every frame here, a
negation table over all subsets of its worlds, so that part doubles
with each prime filter; a chain of s elements has s. A dual of more
than 20 worlds, the world cap of the frame readers, raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    _JSON_MAX_WORLDS,
    _check_table,
    _frame_stream,
    _imp_mask,
    _int,
    _ints,
    _locality_witness,
    _subfamilies,
    _table_array,
    _trace_tables,
    _transports,
    poset_from_dict,
    poset_to_dict,
)
from subminimal.syntax import (
    And,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    Var,
    show,
    variables,
)


@dataclass(frozen=True)
class NAlgebra:
    size: int
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    imp: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    one: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("an algebra needs at least one element")
        for name in ("meet", "join", "imp"):
            table = getattr(self, name)
            if len(table) != self.size or any(len(row) != self.size for row in table):
                raise ValueError(f"{name} table must be square of order {self.size}")
        if len(self.neg) != self.size:
            raise ValueError("negation table length mismatch")
        for rows in (self.meet, self.join, self.imp, (self.neg, (self.one,))):
            for row in rows:
                for v in row:
                    if not 0 <= v < self.size:
                        raise ValueError("table value out of range")

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    @cached_property
    def _duality(self) -> tuple[list[int], list[int], TopFrame]:
        """The prime filters, the hat of every element and the dual
        frame, built on first use and kept, as Poset keeps its upsets.
        The value stays out of ==, hash and repr; an error is not kept,
        so the next use raises it again."""
        filters = prime_filters(self)
        hats = _hats(self.size, filters)
        return filters, hats, _dual(self, filters, hats)


def check_nalgebra(a: NAlgebra) -> tuple[str, tuple] | None:
    """Exhaustively verify the N-algebra laws.

    None means the tables form an N-algebra; otherwise the first broken
    law is returned with a witness tuple: lattice identities first,
    then the top, then residuation of imp, then compatibility of neg.

    A lawful algebra is accepted by _laws_hold in O(size^2) bitmask
    steps plus size steps per covering pair of its order; a lattice has
    O(size^1.5) covering pairs, since two elements never share two
    upper covers. Only when that test fails does the O(size^3) loop of
    _first_broken_law run, to find the first broken law and its
    witness, so the answer is that loop's on every input. The two
    agree on which tables are lawful; _laws_hold proves it.
    """
    if _laws_hold(a):
        return None
    return _first_broken_law(a)


def _laws_hold(a: NAlgebra) -> bool:
    """Whether the tables satisfy every law that check_nalgebra checks,
    in O(size^2) steps on element bitmasks and size steps per covering
    pair.

    Read x <= y as meet[x][y] == x, let D[y] be the mask of the x below
    y and U[x] the mask of the y above x. The test asks for:

    (1) idempotence and commutativity of meet and join, both absorption
        laws and the top (meet[x][one] == x), as the loop checks them;
    (2) D[meet[x][y]] == D[x] & D[y] and U[join[x][y]] == U[x] & U[y];
    (3) y & (y -> z) <= z, x <= y -> (x & y), and y -> z <= y -> c
        whenever c covers z (c is minimal strictly above z);
    (4) compatibility, as the loop checks it.

    Associativity. Under (1), <= is reflexive (idempotence) and
    antisymmetric (x <= y <= x gives x = meet[x][y] = meet[y][x] = y).
    It is transitive under (2): if x <= y <= z, then meet[y][z] == y
    gives D[y] == D[y] & D[z], and x is in D[y], so x <= z. Then (2)
    says that meet[x][y] lies below x and y (it is in its own D) and
    above every common lower bound: it is the greatest lower bound, and
    the greatest lower bound of three elements does not depend on the
    bracketing. Conversely, an associative meet is a semilattice
    operation, so <= is a partial order with meet the greatest lower
    bound, which is (2) for meet. For join, absorption makes its order
    the same: if join[x][y] == y then meet[x][y] == meet[x][join[x][y]]
    == x, and if meet[x][y] == x then join[x][y] == join[y][meet[y][x]]
    == y. So the same argument with U and least upper bounds covers join.

    Residuation, in the lattice that (1) and (2) give: for all x, y, z,
    x & y <= z iff x <= y -> z. If it holds, x = y -> z gives the first
    part of (3), z = x & y the second, and x = y -> z with z <= c the
    third. Conversely, (3) makes y -> . monotone, since z <= z' is a
    chain of covers in a finite order. Then x & y <= z gives
    x <= y -> (x & y) <= y -> z, and x <= y -> z gives
    x & y <= y & (y -> z) <= z.
    """
    rng = range(a.size)
    meet, join, imp, neg, one = a.meet, a.join, a.imp, a.neg, a.one
    if tuple(zip(*meet)) != meet or tuple(zip(*join)) != join:
        return False
    # U[x], D[x]: the elements above and below x; by commutativity
    # x <= y reads meet[x][y] == x in row x and meet[y][x] == x in row y
    U = [0] * a.size
    D = [0] * a.size
    for x in rng:
        mx, jx = meet[x], join[x]
        if mx[x] != x or jx[x] != x or mx[one] != x:
            return False
        bit = 1 << x
        for y in rng:
            m = mx[y]
            if mx[jx[y]] != x or jx[m] != x:
                return False
            if m == x:
                U[x] |= 1 << y
                D[y] |= bit
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
    for x in rng:
        mx = meet[x]
        for y in rng:
            if mx[neg[y]] != mx[neg[mx[y]]]:
                return False
    return True


def _first_broken_law(a: NAlgebra) -> tuple[str, tuple] | None:
    """The first broken law and its witness, by the plain loop: O(size^3)."""
    rng = range(a.size)
    meet, join, imp, neg, one = a.meet, a.join, a.imp, a.neg, a.one
    for x in rng:
        mx, jx = meet[x], join[x]
        if mx[x] != x:
            return ("meet-idempotent", (x,))
        if jx[x] != x:
            return ("join-idempotent", (x,))
        if mx[one] != x:
            return ("top", (x,))
        for y in rng:
            mxy, jxy = mx[y], jx[y]
            if mxy != meet[y][x]:
                return ("meet-commutative", (x, y))
            if jxy != join[y][x]:
                return ("join-commutative", (x, y))
            if mx[jxy] != x:
                return ("absorption", (x, y))
            if jx[mxy] != x:
                return ("absorption", (x, y))
            m_xy, m_y, j_xy, j_y = meet[mxy], meet[y], join[jxy], join[y]
            for z in rng:
                if m_xy[z] != mx[m_y[z]]:
                    return ("meet-associative", (x, y, z))
                if j_xy[z] != jx[j_y[z]]:
                    return ("join-associative", (x, y, z))
    # residuation: meet[x][y] <= z iff x <= imp[y][z], with u <= v read
    # as meet[u][v] == u
    for x in rng:
        mx = meet[x]
        for y in rng:
            mxy, iy = mx[y], imp[y]
            m_xy = meet[mxy]
            for z in rng:
                if (m_xy[z] == mxy) != (mx[iy[z]] == x):
                    return ("residuation", (x, y, z))
    for x in rng:
        mx = meet[x]
        for y in rng:
            if mx[neg[y]] != mx[neg[mx[y]]]:
                return ("compatibility", (x, y))
    return None


def _set_algebra(p: Poset, elements: Sequence[int], ntable: Sequence[int]) -> NAlgebra:
    """The algebra of the given upsets, negation read off the table.

    Element i is elements[i]; meet and join are intersection and union,
    and the arrow is the largest upset whose meet with the antecedent
    stays inside the consequent. The elements must be closed under all
    three and hold the full set and every table value.
    """
    index = {u: i for i, u in enumerate(elements)}
    for u in elements:
        if ntable[u] not in index:
            raise ValueError(f"negation value at {u} is not an element")
    meet = tuple(tuple(index[u & v] for v in elements) for u in elements)
    join = tuple(tuple(index[u | v] for v in elements) for u in elements)
    imp = tuple(tuple(index[w] for w in row) for row in _arrow_rows(p, elements))
    neg = tuple(index[ntable[u]] for u in elements)
    return NAlgebra(len(elements), meet, join, imp, neg, index[(1 << p.n) - 1])


def _arrow_rows(p: Poset, masks: Sequence[int]) -> list[list[int]]:
    """The Heyting arrow u -> v on world masks for every pair of the
    masks, one row per u. A world is in u -> v when its cone misses
    the gap u & ~v, so the arrow depends on the gap alone and is worked
    out once per distinct gap."""
    arrows: dict[int, int] = {}
    rows = []
    for u in masks:
        row = []
        for v in masks:
            gap = u & ~v
            w = arrows.get(gap)
            if w is None:
                w = arrows[gap] = _imp_mask(p, gap, 0)
            row.append(w)
        rows.append(row)
    return rows


def upset_algebra(fr: NFrame) -> NAlgebra:
    """The algebra of all upsets of a frame, negation read off N.

    Element i is the i-th upset in ascending mask order.
    """
    return _set_algebra(fr.poset, fr.poset.upsets(), fr.ntable)


# --------------------------------------------------------------------------
# top frames


@dataclass(frozen=True)
class TopFrame:
    """A frame with a greatest world whose admissible sets are the
    nonempty upsets; the negation table is defined exactly there."""

    poset: Poset
    ntable: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.poset.top() is None:
            raise ValueError("a top frame needs a greatest world")
        _check_table(self.n, self.admissible(), self.ntable, "admissible set")

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def top(self) -> int:
        t = self.poset.top()
        assert t is not None
        return t

    def admissible(self) -> list[int]:
        return [u for u in self.poset.upsets() if u]

    def to_nframe(self) -> NFrame:
        """Forget the admissibility restriction: the same table, with
        negation value empty at the empty set, the only extension that
        keeps the locality law intact on all upset pairs."""
        return NFrame(self.poset, (0, *self.ntable[1:]))

    def value_tuple(self) -> tuple[int, ...]:
        return tuple(self.ntable[u] for u in self.admissible())


def check_topframe(tf: TopFrame) -> tuple[int, int] | None:
    """Locality over admissible pairs; None when lawful.

    Values outside the admissible family (empty or non-upset) raise
    ValueError; the intersection of two admissible upsets is again
    admissible because both contain the top world.
    """
    admissible = tf.admissible()
    adm = set(admissible)
    for u in admissible:
        if tf.ntable[u] not in adm:
            raise ValueError(f"negation value at {u} is not admissible")
    return _locality_witness(tf.n, admissible, tf.ntable)


def enumerate_topframes(p: Poset) -> list[TopFrame]:
    """All lawful top frames on a topped poset, canonical order.

    These are the trace tables over the nonempty upsets whose values
    all hold the top world t, that is, with t in N({t}).
    """
    t = p.top()
    if t is None:
        raise ValueError("poset has no greatest world")
    tables = _trace_tables(p.up, [u for u in p.upsets() if u], _subfamilies)
    return [TopFrame(p, table) for table in sorted(tables) if (table[1 << t] >> t) & 1]


def admissible_algebra(tf: TopFrame) -> NAlgebra:
    """The algebra of nonempty upsets of a top frame."""
    return _set_algebra(tf.poset, tf.admissible(), tf.ntable)


# --------------------------------------------------------------------------
# duality


def prime_filters(a: NAlgebra) -> list[int]:
    """All prime filters as element masks, ascending.

    A filter here contains the top, is closed upward and under meet,
    and can only contain a join by containing a joinand. The improper
    filter (everything) always qualifies.

    The tables must form a lattice, as check_nalgebra verifies. In a
    finite lattice every filter is the up-set of the meet of its
    members, so the candidates are the up-sets of the elements, one
    each, and an up-set is kept when no join inside it has both
    joinands outside (Birkhoff: in a distributive lattice these are the
    up-sets of the join-irreducibles, plus the up-set of the bottom).
    That takes O(size^3) steps and never enumerates subsets. The dual
    frame, the duality round trip and the filtration correspondence
    call it once per algebra: NAlgebra keeps the filters with the dual.
    """
    rng = range(a.size)
    join = a.join
    out = []
    for x, row in enumerate(a.meet):
        mask = 0
        outside = []
        for y in rng:
            if row[y] == x:
                mask |= 1 << y
            else:
                outside.append(y)
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
    return sorted(out)


def element_hat(a: NAlgebra, filters: Sequence[int], x: int) -> int:
    """World mask of the filters containing the element."""
    out = 0
    for i, f in enumerate(filters):
        if (f >> x) & 1:
            out |= 1 << i
    return out


def _hats(size: int, filters: Sequence[int]) -> list[int]:
    """The hat of every element: element_hat for each, in one pass over
    the filters."""
    hats = [0] * size
    for i, f in enumerate(filters):
        bit = 1 << i
        while f:
            x = (f & -f).bit_length() - 1
            f &= f - 1
            hats[x] |= bit
    return hats


def dual_frame(a: NAlgebra) -> TopFrame:
    """Prime filters ordered by inclusion, negation by cone agreement.

    A filter lands in the negation of an admissible set when it holds
    some negated element whose hat agrees with the set on the filter's
    cone. The hat of a negation is recomputed and compared against the
    table as a construction-time sanity check. The algebra builds its
    dual once and keeps it, so every call returns the same frame.
    """
    return a._duality[2]


def _dual(a: NAlgebra, filters: Sequence[int], hats: Sequence[int]) -> TopFrame:
    """The dual frame of an algebra on its given prime filters and the
    hats of its elements over them.

    Filter i is in N(u) when some negated element of it has a hat that
    agrees with u on the cone of i, that is, when up[i] & u is one of
    the traces up[i] & hats[x] over the x with neg[x] in filter i; the
    traces are collected once per filter.

    The dual's table covers all 2**k subsets of its k worlds, so k is
    capped like every frame reader's world count, and a dual past the
    cap raises ValueError: no reader could take it back.
    """
    k = len(filters)
    if k > _JSON_MAX_WORLDS:
        raise ValueError(
            f"the dual would have {k} worlds, more than the cap of {_JSON_MAX_WORLDS}"
        )
    up = []
    for f in filters:
        cone = 0
        for j, g in enumerate(filters):
            if f & ~g == 0:
                cone |= 1 << j
        up.append(cone)
    p = Poset(k, up)
    neg = a.neg
    traces = []
    for f, cone in zip(filters, up):
        trace = set()
        for x in range(a.size):
            if (f >> neg[x]) & 1:
                trace.add(cone & hats[x])
        traces.append(trace)
    flat = [-1] * (1 << k)
    for u in p.upsets():
        if u:
            value = 0
            for i, cone in enumerate(up):
                if (cone & u) in traces[i]:
                    value |= 1 << i
            flat[u] = value
    tf = TopFrame(p, tuple(flat))
    for x in range(a.size):
        if tf.ntable[hats[x]] != hats[neg[x]]:
            raise RuntimeError(
                f"dual negation disagrees with the algebra at element {x}"
            )
    return tf


def nalgebra_isomorphisms(a: NAlgebra, b: NAlgebra) -> Iterator[tuple[int, ...]]:
    """All isomorphisms between two algebras, as assignment tuples."""
    if a.size != b.size:
        return

    def sig(alg: NAlgebra, x: int) -> tuple[int, int]:
        below = sum(1 for y in range(alg.size) if alg.le(y, x))
        return (below, sum(1 for y in range(alg.size) if alg.neg[y] == x))

    a_sig = [sig(a, x) for x in range(a.size)]
    b_sig = [sig(b, x) for x in range(b.size)]
    if sorted(a_sig) != sorted(b_sig):
        return
    f = [-1] * a.size
    used = [False] * b.size

    def consistent(x: int) -> bool:
        for u in range(a.size):
            if f[u] < 0:
                continue
            for v in range(a.size):
                if f[v] < 0:
                    continue
                for table_a, table_b in (
                    (a.meet, b.meet),
                    (a.join, b.join),
                    (a.imp, b.imp),
                ):
                    w = table_a[u][v]
                    if f[w] >= 0 and table_b[f[u]][f[v]] != f[w]:
                        return False
            w = a.neg[u]
            if f[w] >= 0 and b.neg[f[u]] != f[w]:
                return False
        return True

    def rec(x: int) -> Iterator[tuple[int, ...]]:
        if x == a.size:
            yield tuple(f)
            return
        for c in range(b.size):
            if used[c] or a_sig[x] != b_sig[c]:
                continue
            if x == a.one and c != b.one:
                continue
            f[x] = c
            used[c] = True
            if consistent(x):
                yield from rec(x + 1)
            used[c] = False
        f[x] = -1

    yield from rec(0)


def nalgebra_isomorphic(a: NAlgebra, b: NAlgebra) -> bool:
    return next(nalgebra_isomorphisms(a, b), None) is not None


def topframe_isomorphic(s: TopFrame, t: TopFrame) -> bool:
    """Poset isomorphism transporting the admissible negation table."""
    return _transports(s.poset, t.poset, s.admissible(), s.ntable, t.ntable)


def duality_check(x: TopFrame | NAlgebra) -> bool:
    """Round-trip a top frame or an algebra through the duality.

    For a frame: the dual of its admissible algebra must be isomorphic
    to it. For an algebra: the hat map must be an isomorphism onto the
    admissible algebra of its dual frame (injectivity and every
    operation checked pointwise, on world masks by _round_trip). The
    algebra's kept dual is used, so it is built once per algebra.
    """
    if isinstance(x, TopFrame):
        return topframe_isomorphic(x, dual_frame(admissible_algebra(x)))
    _, hats, tf = x._duality
    return _round_trip(x, hats, tf)


def _round_trip(a: NAlgebra, hats: Sequence[int], tf: TopFrame) -> bool:
    """Whether the hat map is an isomorphism from the algebra onto the
    admissible algebra of the top frame, without building that algebra.

    admissible_algebra(tf) numbers the admissible sets in ascending
    order and reads each operation off the masks: intersection, union,
    the Heyting arrow, the table and the full set. The hat map is a
    bijection onto that numbering exactly when sorted(hats) is the
    ascending list of admissible sets, and a bijection commutes with
    an operation exactly when the masks agree: hats[meet[u][v]] is
    hats[u] & hats[v], and so on. A table value that is not admissible
    raises ValueError, as building the admissible algebra does.
    """
    admissible = tf.admissible()
    inside = set(admissible)
    ntable = tf.ntable
    for u in admissible:
        if ntable[u] not in inside:
            raise ValueError(f"negation value at {u} is not an element")
    if sorted(hats) != admissible or hats[a.one] != (1 << tf.n) - 1:
        return False
    arrows = _arrow_rows(tf.poset, hats)
    meet, join, imp, neg = a.meet, a.join, a.imp, a.neg
    for u, hu in enumerate(hats):
        if hats[neg[u]] != ntable[hu]:
            return False
        mu, ju, iu, au = meet[u], join[u], imp[u], arrows[u]
        for v, hv in enumerate(hats):
            if hats[mu[v]] != hu & hv or hats[ju[v]] != hu | hv or hats[iu[v]] != au[v]:
                return False
    return True


def subdirectly_irreducible(a: NAlgebra) -> bool:
    """Presence of a second greatest element below the top."""
    for s in range(a.size):
        if s == a.one:
            continue
        if all(a.le(x, s) for x in range(a.size) if x != a.one):
            return True
    return False


# --------------------------------------------------------------------------
# algebraic filtration


def algebra_eval(a: NAlgebra, mu: Mapping[str, int], f: Formula) -> int:
    """Value of a propositional formula under an element assignment.

    The walk keeps its own stack, so a formula of any depth evaluates.
    It enters nodes in the order the recursive definition would, left
    subformula first, so the first missing variable, or the first
    modal node, is the one reported.
    """
    values: list[int] = []
    # (formula, None) is still to enter; (formula, table) has its
    # subformulas' values on top of the stack, for the table to combine
    todo: list[tuple[Formula, Sequence | None]] = [(f, None)]
    while todo:
        g, table = todo.pop()
        if table is not None:
            if isinstance(g, Neg):
                values[-1] = table[values[-1]]
            else:
                right = values.pop()
                values[-1] = table[values[-1]][right]
        elif isinstance(g, Var):
            if g.name not in mu:
                raise ValueError(f"assignment misses variable {g.name}")
            values.append(mu[g.name])
        elif isinstance(g, Top):
            values.append(a.one)
        elif isinstance(g, Neg):
            todo += ((g, a.neg), (g.sub, None))
        elif isinstance(g, (And, Or, Imp)):
            table = a.meet if isinstance(g, And) else a.join if isinstance(g, Or) else a.imp
            todo += ((g, table), (g.right, None), (g.left, None))
        else:
            raise ValueError(f"not a propositional formula: {show(g)}")
    return values[0]


@dataclass(frozen=True)
class AlgebraicFiltration:
    """A filtration pair: the small algebra, the assignment into it,
    and the carrier embedding back into the ambient algebra."""

    algebra: NAlgebra
    mu: Mapping[str, int]
    carrier: tuple[int, ...]


def _lattice_closure(a: NAlgebra, seed: Iterable[int]) -> list[int]:
    out = set(seed)
    out.add(a.one)
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for y in list(out):
                for z in (a.meet[x][y], a.join[x][y]):
                    if z not in out:
                        out.add(z)
                        changed = True
    return sorted(out)


def general_algebraic_filtration(
    a: NAlgebra,
    mu: Mapping[str, int],
    sigma: Iterable[Formula],
    carrier: Iterable[int],
) -> AlgebraicFiltration:
    """Filtration through an explicit lattice universe.

    The universe must contain the top and every Sigma value and be
    closed under meet and join. The arrow collects every universe
    element whose meet with the antecedent falls inside the consequent;
    the negation collects every universe element below the ambient
    negation and falls back to the least universe element when nothing
    qualifies.
    """
    sigma = frozenset(sigma)
    elements = sorted(set(carrier))
    if not elements:
        raise ValueError("empty universe")
    inside = set(elements)
    if a.one not in inside:
        raise ValueError("universe misses the top")
    for x in elements:
        if not 0 <= x < a.size:
            raise ValueError(f"universe element {x} out of range")
        for y in elements:
            if a.meet[x][y] not in inside or a.join[x][y] not in inside:
                raise ValueError("universe is not a sublattice")
    values = {f: algebra_eval(a, mu, f) for f in sigma}
    for f, v in values.items():
        if v not in inside:
            raise ValueError(f"universe misses the value of {show(f)}")
    index = {x: i for i, x in enumerate(elements)}
    k = len(elements)
    least = elements[0]
    for x in elements:
        least = a.meet[least][x]
    meet = tuple(tuple(index[a.meet[x][y]] for y in elements) for x in elements)
    join = tuple(tuple(index[a.join[x][y]] for y in elements) for x in elements)
    imp_rows = []
    for x in elements:
        row = []
        for y in elements:
            acc = None
            for s in elements:
                if a.le(a.meet[x][s], y):
                    acc = s if acc is None else a.join[acc][s]
            row.append(index[acc if acc is not None else least])
        imp_rows.append(tuple(row))
    neg_row = []
    for x in elements:
        acc = None
        for s in elements:
            if a.le(s, a.neg[x]):
                acc = s if acc is None else a.join[acc][s]
        neg_row.append(index[acc if acc is not None else least])
    small = NAlgebra(k, meet, join, tuple(imp_rows), tuple(neg_row), index[a.one])
    names = sorted({name for f in sigma for name in variables(f)})
    mu_small = {
        name: index[mu[name]] for name in names if name in mu and mu[name] in index
    }
    return AlgebraicFiltration(small, mu_small, tuple(elements))


def sublattice_filtration(
    a: NAlgebra, mu: Mapping[str, int], sigma: Iterable[Formula]
) -> AlgebraicFiltration:
    """Filtration through the lattice generated by the Sigma values.

    This is the least universe any filtration can use, so the result
    embeds into every general_algebraic_filtration over the same data.
    """
    sigma = frozenset(sigma)
    values = {algebra_eval(a, mu, f) for f in sigma}
    return general_algebraic_filtration(a, mu, sigma, _lattice_closure(a, values))


def least_filtration_correspondence(
    a: NAlgebra, mu: Mapping[str, int], sigma: Iterable[Formula]
) -> bool:
    """Agreement between the algebraic and model-theoretic quotients.

    The algebra's dual frame carries the model valuing each variable by
    the hat of its assigned element; the greatest filtration of that
    model through Sigma must order classes exactly as inclusion of
    filter traces on the sublattice the Sigma values generate, the
    universe of sublattice_filtration.
    """
    from subminimal.filtration import greatest_filtration

    sigma = frozenset(sigma)
    carrier = sum(1 << x for x in _lattice_closure(a, {algebra_eval(a, mu, f) for f in sigma}))
    filters, hats, tf = a._duality
    names = sorted({v for f in sigma for v in variables(f)})
    valuation = {name: hats[mu[name]] for name in names}
    model = NModel(tf.to_nframe(), valuation)
    g = greatest_filtration(model, sigma)
    qposet = g.quotient.frame.poset
    traces = [f & carrier for f in filters]
    for i, trace_i in enumerate(traces):
        for j, trace_j in enumerate(traces):
            if qposet.le(g.pi[i], g.pi[j]) != (trace_i & ~trace_j == 0):
                return False
    return True


# --------------------------------------------------------------------------
# corpus and JSON


def algebra_corpus(max_worlds: int = 3) -> list[NAlgebra]:
    """Upset algebras of every frame on up to max_worlds worlds, one
    representative per isomorphism class: the algebras of the frame
    stream, 271 up to 3 worlds.

    Two frames have isomorphic upset algebras exactly when the frames
    are isomorphic. The join-irreducibles of an upset lattice are the
    principal upsets (Birkhoff), so an algebra isomorphism restricts to
    an order isomorphism of the worlds, and commuting with negation
    makes it carry one table onto the other. Each algebra is therefore
    that of the first labeled frame of its class.
    """
    return [upset_algebra(fr) for fr in _frame_stream(max_worlds)]


def algebra_to_dict(a: NAlgebra) -> dict:
    return {
        "size": a.size,
        "meet": [list(row) for row in a.meet],
        "join": [list(row) for row in a.join],
        "imp": [list(row) for row in a.imp],
        "neg": list(a.neg),
        "one": a.one,
    }


def _rows(raw: object, what: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of rows of numbers as integer rows."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{what} must be a list of rows")
    return tuple(_ints(row, what + " row") for row in raw)


def algebra_from_dict(d: Mapping) -> NAlgebra:
    if not isinstance(d, Mapping):
        raise ValueError("algebra JSON must be an object")
    return NAlgebra(
        _int(d["size"], "size"),
        _rows(d["meet"], "meet"),
        _rows(d["join"], "join"),
        _rows(d["imp"], "imp"),
        _ints(d["neg"], "neg"),
        _int(d["one"], "one"),
    )


def topframe_to_dict(tf: TopFrame) -> dict:
    d = poset_to_dict(tf.poset)
    d["N"] = {str(u): tf.ntable[u] for u in tf.admissible()}
    d["top"] = tf.top
    return d


def topframe_from_dict(d: Mapping) -> TopFrame:
    """Read a top frame; an entry "0": 0 at the empty set, as a plain
    frame's JSON carries it, is ignored."""
    p = poset_from_dict(d)
    flat = _table_array(d, p.n)
    return TopFrame(p, (-1, *flat[1:]) if flat[0] == 0 else flat)
