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
cheap. The dual frame has one world per prime filter and, like every
frame here, a negation table over all subsets of its worlds, so that
part doubles with each prime filter; a chain of s elements has s. A
dual frame of more than 20 worlds, the world cap of the frame readers,
raises ValueError. The isomorphisms of two algebras are read off their
dual posets, which need no table and have no cap
(nalgebra_isomorphisms).

Every algebra is its Heyting reduct (meet, join, imp and one;
_heyting.Reduct) plus its negation. The reduct finds, once and on first
use, the element order as masks, the verdict of the lattice and
residuation laws, the prime filters, their hats and the dual poset,
and the lattice half of the round trip; each algebra builds and keeps
its dual frame's table, so dual_frame, duality_check and every
least_filtration_correspondence on it share one. Building the dual
checks the negation at every hat, so the round trip of duality_check
is that check plus the reduct's lattice half, with no second algebra
built; on a top frame it is that check alone, with no isomorphism
searched. The upset
algebras and admissible algebras of one poset share their tables and
reduct: the poset's cones keep them per element list
(kernels.pure._kept), for the life of the process up to
DEFAULT_MAX_WORLDS worlds and as long as the poset past that. The
reducts of every poset up to 4 worlds, upsets and nonempty upsets,
fully used, hold about 1.2 MiB (330 of them, tracemalloc); a duality
benchmark stream keeps about 200. Each such algebra builds only its
negation column and checks only what reads the negation. Any other
algebra builds its own reduct from its own tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from subminimal._heyting import Reduct, set_reduct
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    _check_table,
    _frame_stream,
    _JSON_MAX_WORLDS,
    _int,
    _ints,
    _isomorphic,
    _locality_witness,
    _push_mask,
    _subfamilies,
    _table_array,
    _trace_tables,
    _truths,
    poset_from_dict,
    poset_isomorphisms,
    poset_to_dict,
)
from subminimal.kernels.pure import _inclusion_cones, _kept, _trace_table, _transpose
from subminimal.syntax import (
    And,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    Var,
    _PROP,
    _first,
    _ordered,
    _require_closed,
    _walk,
    show,
    subformulas,
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
        _check_shape(self.size, self.one, self.neg, meet=self.meet, join=self.join, imp=self.imp)

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    @cached_property
    def _reduct(self) -> Reduct:
        """The Heyting reduct of meet, join, imp and one, built from the
        algebra's own tables on first use unless _set_algebra handed it
        the one its poset keeps. Like _duality it stays out of ==, hash
        and repr."""
        return Reduct(self.size, self.meet, self.join, self.imp, self.one)

    @cached_property
    def _duality(self) -> TopFrame:
        """The dual frame, built on first use and kept, as Poset keeps
        its upsets, on the prime filters and hats the reduct keeps. The
        value stays out of ==, hash and repr; an error is not kept, so
        the next use raises it again."""
        return _dual(self)


def _check_shape(size: int, one: int, neg: Sequence[int] | None = None, **tables: Sequence) -> None:
    """ValueError unless the named tables are square of order size, neg
    (when given) has size entries and every value, one included, is an
    element. NAlgebra checks all five; an upset lattice's reduct has
    its three tables checked once (_upset_reduct), and each algebra on
    it builds neg and one so that they pass (_set_algebra)."""
    if size < 1:
        raise ValueError("an algebra needs at least one element")
    for name, table in tables.items():
        if len(table) != size or set(map(len, table)) != {size}:
            raise ValueError(f"{name} table must be square of order {size}")
    if neg is not None and len(neg) != size:
        raise ValueError("negation table length mismatch")
    # each distinct value once: in-range tables hold at most size
    values = set(neg or ()).union(*chain.from_iterable(tables.values()))
    values.add(one)
    if not all(0 <= v < size for v in values):
        raise ValueError("table value out of range")


def check_nalgebra(a: NAlgebra) -> tuple[str, tuple] | None:
    """Exhaustively verify the N-algebra laws.

    None means the tables form an N-algebra; otherwise the first broken
    law is returned with a witness tuple: lattice identities first,
    then the top, then residuation of imp, then compatibility of neg.

    A lawful algebra is accepted by the reduct's law test
    (_heyting.Reduct.laws: the lattice and residuation laws in O(size^2)
    bitmask steps plus size steps per covering pair, once per reduct)
    and by _compatible on its negation, in O(size^2) steps. A lattice
    has O(size^1.5) covering pairs, since two elements never share two
    upper covers. Only when that test fails does the O(size^3) loop of
    _first_broken_law run, to find the first broken law and its
    witness, so the answer is that loop's on every input. The two
    agree on which tables are lawful; Reduct.laws proves it.
    """
    if a._reduct.laws and _compatible(a):
        return None
    return _first_broken_law(a)


def _compatible(a: NAlgebra) -> bool:
    """The compatibility law, as _first_broken_law checks it: the only
    part of the law test that reads the negation."""
    rng = range(a.size)
    meet, neg = a.meet, a.neg
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

    The tables and their reduct depend on p and the elements alone, so
    p's cones keep them (kernels.pure._kept), keyed by the element
    list, and every algebra of those upsets holds the same table
    objects and the same reduct: only its neg column is built here,
    each table value checked to be an element. _check_shape would find
    nothing more: neg holds one index per element, each taken from the
    reduct's index, and one is the reduct's own top.
    """
    index, r = _kept(p.up, _upset_reduct, tuple(elements))
    for u in elements:
        if ntable[u] not in index:
            raise ValueError(f"negation value at {u} is not an element")
    neg = tuple(index[ntable[u]] for u in elements)
    # the fields as NAlgebra's __init__ sets them, with its tables checked
    # once per reduct, and the reduct where the cached property puts it
    a = object.__new__(NAlgebra)
    vars(a).update(size=r.size, meet=r.meet, join=r.join, imp=r.imp, neg=neg, one=r.one, _reduct=r)
    return a


def _upset_reduct(up: Sequence[int], elements: tuple[int, ...]) -> tuple[dict[int, int], Reduct]:
    """set_reduct's index and reduct, the reduct's tables checked once."""
    index, r = set_reduct(up, elements)
    _check_shape(r.size, r.one, meet=r.meet, join=r.join, imp=r.imp)
    return index, r


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
    """All prime filters as element masks, ascending, in a fresh list.

    A filter here contains the top, is closed upward and under meet,
    and can only contain a join by containing a joinand. The improper
    filter (everything) always qualifies.

    The tables must form a lattice, as check_nalgebra verifies. In a
    finite lattice every filter is the up-set of the meet of its
    members, so the candidates are the up-sets of the elements, one
    each, and an up-set is kept when no join inside it has both
    joinands outside (Birkhoff: in a distributive lattice these are the
    up-sets of the join-irreducibles, plus the up-set of the bottom).
    That takes O(size^3) steps and never enumerates subsets. The
    algebra's reduct finds them once (_heyting.Reduct.filters) and
    keeps them with the dual, which the upset algebras of one poset
    share.
    """
    return list(a._reduct.filters)


def dual_frame(a: NAlgebra) -> TopFrame:
    """Prime filters ordered by inclusion, negation by cone agreement.

    A filter lands in the negation of an admissible set when it holds
    some negated element whose hat agrees with the set on the filter's
    cone. The table is then checked at every hat: N(hat(x)) must be
    hat(neg x), or RuntimeError names the first element x where it is
    not. This is the negation half of duality_check. The algebra builds
    its dual once and keeps it, so every call returns the same frame.
    """
    return a._duality


def _dual(a: NAlgebra) -> TopFrame:
    """The dual frame of an algebra on the prime filters, hats and dual
    poset of its reduct.

    Filter i is in N(u) when some negated element of it has a hat that
    agrees with u on the cone of i, that is, when up[i] & u is in the
    family {up[i] & hats[x] : neg[x] in filter i}; the table is the
    trace table of those families on the nonempty upsets
    (kernels.pure._trace_table). The table covers all 2**k subsets of
    the k worlds, so a dual past the world cap of the frame readers
    raises ValueError before it is built: no reader could take it back.
    """
    r = a._reduct
    if len(r.filters) > _JSON_MAX_WORLDS:
        raise ValueError(f"the dual would have {len(r.filters)} worlds, more than the cap of {_JSON_MAX_WORLDS}")
    p = r.dual
    hats, neg = r.hats, a.neg
    cuts = [
        (cone, 1 << i, {cone & hats[x] for x in range(a.size) if (f >> neg[x]) & 1})
        for i, (f, cone) in enumerate(zip(r.filters, p.up))
    ]
    tf = TopFrame(p, tuple(_trace_table(p.n, cuts, p.upsets()[1:])))
    for x in range(a.size):
        if tf.ntable[hats[x]] != hats[neg[x]]:
            raise RuntimeError(
                f"dual negation disagrees with the algebra at element {x}"
            )
    return tf


def nalgebra_isomorphisms(a: NAlgebra, b: NAlgebra) -> Iterator[tuple[int, ...]]:
    """All isomorphisms between two N-algebras (see check_nalgebra), as
    assignment tuples in ascending order: the isomorphisms of their
    dual posets (poset_isomorphisms), read through the hats, that
    commute with neg. Tables that fail the lattice and residuation laws
    (_heyting.Reduct.laws) raise ValueError.

    An isomorphism preserves meet, so it is an order isomorphism;
    conversely an order isomorphism of two lattices preserves meet,
    join, the top and the arrow, which the order alone defines (y -> z
    is the greatest x with x & y <= z). So the isomorphisms are the
    order isomorphisms that commute with neg.

    Duality. Under the laws each algebra is a finite Heyting algebra,
    so distributive. Its prime filters are the up-sets of its
    join-irreducibles j and the whole carrier, the dual's greatest
    world, and x lies in the up-set of j iff j <= x. So hat(x) is the
    set of the j below x with the greatest world, and by Birkhoff's
    theorem the hats are exactly the nonempty upsets of the dual, with
    x <= y iff hat(x) lies in hat(y). An isomorphism phi of the dual
    posets keeps nonempty upsets and inclusion, so
    f(x) = hat_b^-1(phi(hat_a(x))) is an order isomorphism of the
    lattices. Conversely an order isomorphism f maps join-irreducibles
    onto join-irreducibles, so F -> f(F) is an isomorphism phi of the
    dual posets, and phi gives back f. So phi -> f is a bijection onto
    the order isomorphisms, and no search runs over elements.
    """
    ra, rb = a._reduct, b._reduct
    if not (ra.laws and rb.laws):
        raise ValueError("the tables fail the lattice and residuation laws of check_nalgebra")
    back = {h: y for y, h in enumerate(rb.hats)}
    maps = (tuple(back[_push_mask(h, phi)] for h in ra.hats) for phi in poset_isomorphisms(ra.dual, rb.dual))
    yield from sorted(f for f in maps if all(b.neg[f[x]] == f[a.neg[x]] for x in range(a.size)))


def nalgebra_isomorphic(a: NAlgebra, b: NAlgebra) -> bool:
    return next(nalgebra_isomorphisms(a, b), None) is not None


def topframe_isomorphic(s: TopFrame, t: TopFrame) -> bool:
    """Poset isomorphism transporting the admissible negation table
    (frames._isomorphic)."""
    return _isomorphic(s, s.admissible(), t, t.admissible())


def duality_check(x: TopFrame | NAlgebra) -> bool:
    """Round-trip a top frame or an algebra through the duality.

    For a frame: the dual of its admissible algebra must be isomorphic
    to it. Building that dual (dual_frame) is the whole check, and no
    isomorphism is searched for (topframe_isomorphic). The prime
    filters of the algebra A of nonempty upsets of a finite topped
    poset are exactly F_w = {X : w in X}, one per world w. A filter of
    A is the up-set of its least member X, and X is the join of the
    cones of its worlds, each a member of A; a prime filter holds one
    of those cones, which is then X. The improper filter, everything,
    is F_top. So w -> F_w is an order isomorphism onto the dual poset,
    and it sends each X to hat(X) = {F_w : w in X}. Building the dual
    checks N(hat X) = hat(N X) at every element X of A, so once it
    returns, the isomorphism carries the frame's table to the dual's;
    a table it does not carry raises RuntimeError there.

    For an algebra: the hat map must be an isomorphism onto the
    admissible algebra of its dual frame. That is two checks, each made
    once per algebra, both on the hats and dual poset its reduct keeps:

    - the negation: building the kept dual (dual_frame) compares
      N(hat(x)) with hat(neg x) at every element and raises
      RuntimeError on the first mismatch, so once it returns the hat
      map commutes with neg;
    - the rest: the hat map is a bijection onto the admissible sets that
      commutes with meet, join, the arrow and the top, on world masks
      (_heyting.Reduct.round_trip).

    The admissible algebra of the dual is never built, and it could
    not fail to build: that raises ValueError only at a dual value that
    is not admissible, and every value is. The dual's table is -1 off
    the admissible sets and no hat(neg x) is, so once the dual is built
    every hat is admissible and holds the top world t, the greatest
    prime filter; so filter t holds every element. Then t is in every
    value N(u): neg x is in filter t for any x, and R(t) & u and
    R(t) & hat(x) are both {t}. Each value is an upset by (a) of
    least_filtration_correspondence, so it is a nonempty upset.
    """
    if isinstance(x, TopFrame):
        dual_frame(admissible_algebra(x))
        return True
    x._duality  # the kept dual, whose construction checks the negation
    return x._reduct.round_trip


def subdirectly_irreducible(a: NAlgebra) -> bool:
    """Presence of a second greatest element below the top: an s other
    than the top whose down set (_heyting.Reduct.down) holds every
    element but the top."""
    full, top = (1 << a.size) - 1, 1 << a.one
    return any(s != a.one and below | top == full for s, below in enumerate(a._reduct.down))


# --------------------------------------------------------------------------
# algebraic filtration


def algebra_eval(a: NAlgebra, mu: Mapping[str, int], f: Formula) -> int:
    """Value of a propositional formula under an element assignment.

    The walk is a loop over the formula's nodes, children first, so a
    formula of any depth evaluates. A failure raises the error of the
    first failing node in entry order, left subformula first, so the
    first missing variable, or the first modal node, is the one
    reported, as the recursive definition would meet it.
    """
    return _algebra_values(a, mu, (f,), subformulas(f))[0]


def _algebra_values(
    a: NAlgebra, mu: Mapping[str, int], formulas: Collection[Formula], order: Sequence[Formula]
) -> list[int]:
    """algebra_eval of each formula in turn, from one loop over order,
    their walk (syntax._walk), whose memory keys each node by node, as
    frames.truth_sets does. When a node fails, the formula that raises
    is the first holding a failing node; it raises at its first failing
    node in entry order."""
    value: dict[Formula, int] = {}
    tables = {And: a.meet, Or: a.join, Imp: a.imp}
    for g in order:
        kind = g.__class__
        if kind in tables:
            value[g] = tables[kind][value[g.left]][value[g.right]]
        elif kind is Neg:
            value[g] = a.neg[value[g.sub]]
        elif kind is Top or kind is Var and g.name in mu:
            value[g] = a.one if kind is Top else mu[g.name]
        else:
            first = _first(order, lambda h: h.__class__ not in _PROP or h.__class__ is Var and h.name not in mu)
            (bad,) = first[next(f for f in formulas if first[f])]
            if bad.__class__ is Var:
                raise ValueError(f"assignment misses variable {bad.name}")
            raise ValueError(f"not a propositional formula: {show(bad)}")
    return [value[f] for f in formulas]


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
    qualifies. The algebra must satisfy the lattice laws
    (check_nalgebra); then the arrow needs no fallback, as the least
    universe element s has meet(x, s) <= s <= y and so qualifies.
    Tables where no universe element qualifies raise ValueError.
    """
    sigma = _ordered(sigma)
    return _filtration_through(a, mu, sigma, _walk(sigma), carrier)


def _filtration_through(
    a: NAlgebra, mu: Mapping[str, int], sigma: tuple[Formula, ...], walk: Sequence[Formula], carrier: Iterable[int]
) -> AlgebraicFiltration:
    """general_algebraic_filtration over walk, Sigma's walk (syntax._walk),
    Sigma in its one order (syntax._ordered), which its errors follow."""
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
    for f, v in zip(sigma, _algebra_values(a, mu, sigma, walk)):
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
            if acc is None:
                raise ValueError(
                    f"the tables are not a lattice: no universe element s has meet({x}, s) <= {y}"
                )
            row.append(index[acc])
        imp_rows.append(tuple(row))
    neg_row = []
    for x in elements:
        acc = None
        for s in elements:
            if a.le(s, a.neg[x]):
                acc = s if acc is None else a.join[acc][s]
        neg_row.append(index[acc if acc is not None else least])
    small = NAlgebra(k, meet, join, tuple(imp_rows), tuple(neg_row), index[a.one])
    names = sorted({f.name for f in walk if f.__class__ is Var})
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
    sigma = _ordered(sigma)
    walk = _walk(sigma)
    return _filtration_through(a, mu, sigma, walk, _lattice_closure(a, _algebra_values(a, mu, sigma, walk)))


def least_filtration_correspondence(
    a: NAlgebra, mu: Mapping[str, int], sigma: Iterable[Formula]
) -> bool:
    """Agreement between the algebraic and model-theoretic quotients.

    The algebra's dual frame carries the model valuing each variable by
    the hat of its assigned element; the greatest filtration of that
    model through Sigma must order classes exactly as inclusion of
    filter traces on the sublattice the Sigma values generate, the
    universe of sublattice_filtration. No quotient is built: the
    worlds' signatures are compared with their traces, with the answer
    and every error of reading the order of greatest_filtration, since
    (a) the dual's table is upset-valued on every algebra: if filter i
        is included in filter j and i is in N(u) through x (neg[x] in
        F_i, R(i) & u == R(i) & hat(x)), then neg[x] is in F_j, and R(j)
        within R(i) gives R(j) & u == R(j) & hat(x): j is in N(u);
    (b) so every Sigma truth set is an upset, as the hats are, and
        signatures grow along the order: a quotient upset has an upset
        as preimage, so no class bound meets an undefined entry and the
        projected valuation holds quotient upsets; greatest_filtration
        returns once truth_sets does;
    (c) it orders class c below class d exactly when sigs[c] is
        included in sigs[d], so pi[i] <= pi[j] iff sig[i] <= sig[j].
    The errors come in greatest_filtration's order: the Sigma values,
    their closure, the dual, the check that Sigma is subformula-closed,
    after which its Var members are all the variables it holds.
    """
    sigma = _ordered(sigma)
    walk = _walk(sigma)
    carrier = sum(1 << x for x in _lattice_closure(a, _algebra_values(a, mu, sigma, walk)))
    tf = a._duality
    filters, hats = a._reduct.filters, a._reduct.hats
    _require_closed(sigma, walk)
    m = NModel(tf.to_nframe(), {f.name: hats[mu[f.name]] for f in sigma if isinstance(f, Var)})
    # truth_sets' walk, which by (b) meets no undefined entry
    truth = _truths(m.frame.poset, m.frame.ntable, m.valuation, walk, {})
    sig = _transpose([truth[f] for f in sigma], tf.n)
    return _inclusion_cones(sig) == _inclusion_cones([f & carrier for f in filters])


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
