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
dual of more than 20 worlds, the world cap of the frame readers,
raises ValueError.

Every algebra is its Heyting reduct (meet, join, imp and one;
_heyting.Reduct) plus its negation. The reduct finds, once and on first
use, the element order as masks, the verdict of the lattice and
residuation laws, the prime filters, their hats and the dual poset,
and the lattice half of the round trip; each algebra builds and keeps
its dual frame's table, so dual_frame, duality_check and every
least_filtration_correspondence on it share one, and the round trip
compares world masks instead of building a second algebra. The upset
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
from typing import Iterable, Iterator, Mapping, Sequence

from subminimal._heyting import Reduct, set_reduct
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    _check_table,
    _frame_stream,
    _int,
    _ints,
    _locality_witness,
    _subfamilies,
    _table_array,
    _trace_tables,
    _transports,
    poset_from_dict,
    poset_isomorphisms,
    poset_to_dict,
    truth_sets,
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
    _require_closed,
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
            if len(table) != self.size or set(map(len, table)) != {self.size}:
                raise ValueError(f"{name} table must be square of order {self.size}")
        if len(self.neg) != self.size:
            raise ValueError("negation table length mismatch")
        # each distinct value once: in-range tables hold at most size
        values = set(self.neg).union(*self.meet, *self.join, *self.imp)
        values.add(self.one)
        if not all(0 <= v < self.size for v in values):
            raise ValueError("table value out of range")

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
    def _duality(self) -> tuple[tuple[int, ...], tuple[int, ...], TopFrame]:
        """The prime filters, the hat of every element and the dual
        frame, built on first use and kept, as Poset keeps its upsets;
        the filters and hats are the reduct's. The value stays out of
        ==, hash and repr; an error is not kept, so the next use raises
        it again."""
        r = self._reduct
        return r.filters, r.hats, _dual(self, r)


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
    objects and the same reduct: only its neg column is built here.
    """
    index, r = _kept(p.up, set_reduct, tuple(elements))
    for u in elements:
        if ntable[u] not in index:
            raise ValueError(f"negation value at {u} is not an element")
    a = NAlgebra(r.size, r.meet, r.join, r.imp, tuple(index[ntable[u]] for u in elements), r.one)
    # the reduct goes where the cached property would put it
    a.__dict__["_reduct"] = r
    return a


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
    cone. The hat of a negation is recomputed and compared against the
    table as a construction-time sanity check. The algebra builds its
    dual once and keeps it, so every call returns the same frame.
    """
    return a._duality[2]


def _dual(a: NAlgebra, r: Reduct) -> TopFrame:
    """The dual frame of an algebra on the prime filters, hats and dual
    poset of its reduct.

    Filter i is in N(u) when some negated element of it has a hat that
    agrees with u on the cone of i, that is, when up[i] & u is in the
    family {up[i] & hats[x] : neg[x] in filter i}; the table is the
    trace table of those families on the nonempty upsets
    (kernels.pure._trace_table). The dual poset raises ValueError past
    the world cap (_heyting.Reduct.dual).
    """
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
    assignment tuples in ascending order: the order isomorphisms of
    their element orders (poset_isomorphisms, on the orders the
    algebras' reducts keep) that commute with neg.

    An isomorphism preserves meet, so it is an order isomorphism.
    Conversely an order isomorphism f of two lattices preserves what
    the order alone defines: meet and join are the greatest lower and
    least upper bound, the top is the greatest element, and y -> z is
    the greatest x with x & y <= z (residuation). So f preserves every
    operation but neg, which is checked. The reduction needs lattices,
    so both algebras must pass check_nalgebra; tables whose element
    order is not a partial order raise ValueError.
    """
    for f in poset_isomorphisms(a._reduct.order, b._reduct.order):
        if all(b.neg[f[x]] == f[a.neg[x]] for x in range(a.size)):
            yield f


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

    All but the negation depends on the hats and tf's order alone, so
    the hats must be the algebra's own and tf's poset its dual poset
    (ValueError otherwise), and the reduct's kept answer is read
    (_heyting.Reduct.round_trip); the table may be any.
    """
    r = a._reduct
    if hats != r.hats or tf.poset != r.dual:
        raise ValueError("the hats and poset must be the algebra's own")
    admissible = tf.admissible()
    inside = set(admissible)
    ntable = tf.ntable
    for u in admissible:
        if ntable[u] not in inside:
            raise ValueError(f"negation value at {u} is not an element")
    return r.round_trip and all(hats[x] == ntable[h] for h, x in zip(hats, a.neg))


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

    The walk keeps its own stack, so a formula of any depth evaluates.
    It enters nodes in the order the recursive definition would, left
    subformula first, so the first missing variable, or the first
    modal node, is the one reported.
    """
    return _algebra_values(a, mu, (f,))[0]


def _algebra_values(a: NAlgebra, mu: Mapping[str, int], formulas: Iterable[Formula]) -> list[int]:
    """algebra_eval of each formula in iteration order, from one walk
    whose memory keys each connective node by id, as
    frames._TruthWalker does; the formulas hold the nodes. A node the
    walk skips was evaluated before without error, so the first failing
    formula still raises at its first failing node in entry order."""
    memo: dict[int, int] = {}
    values: list[int] = []
    for f in formulas:
        # (formula, None) is still to enter; (formula, table) has its
        # subformulas' values on top of the stack, for the table to
        # combine; each formula leaves its own value there
        todo: list[tuple[Formula, Sequence | None]] = [(f, None)]
        while todo:
            g, table = todo.pop()
            if table is not None:
                right = values.pop()
                v = memo[id(g)] = table[right] if isinstance(g, Neg) else table[values.pop()][right]
            elif id(g) in memo:
                v = memo[id(g)]
            elif isinstance(g, Var):
                if g.name not in mu:
                    raise ValueError(f"assignment misses variable {g.name}")
                v = mu[g.name]
            elif isinstance(g, Top):
                v = a.one
            elif isinstance(g, Neg):
                todo += ((g, a.neg), (g.sub, None))
                continue
            elif isinstance(g, (And, Or, Imp)):
                table = a.meet if isinstance(g, And) else a.join if isinstance(g, Or) else a.imp
                todo += ((g, table), (g.right, None), (g.left, None))
                continue
            else:
                raise ValueError(f"not a propositional formula: {show(g)}")
            values.append(v)
    return values


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
    for f, v in zip(sigma, _algebra_values(a, mu, sigma)):
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
    values = _algebra_values(a, mu, sigma)
    return general_algebraic_filtration(a, mu, sigma, _lattice_closure(a, values))


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
    sigma = frozenset(sigma)
    carrier = sum(1 << x for x in _lattice_closure(a, _algebra_values(a, mu, sigma)))
    filters, hats, tf = a._duality
    _require_closed(sigma)
    valuation = {f.name: hats[mu[f.name]] for f in sigma if isinstance(f, Var)}
    truth = truth_sets(NModel(tf.to_nframe(), valuation), sigma)
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
