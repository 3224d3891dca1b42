"""Finite N-algebras, prime-filter duality, and algebraic filtrations.

An N-algebra is a bounded-above lattice with a relative
pseudo-complement and a unary negation tied to the lattice by the
compatibility identity x & -y == x & -(x & y). Upset algebras of
N-frames are the motivating examples and the duality works through
prime filters, where properness is not required: the whole carrier is
a prime filter here and becomes the top world of the dual frame.

Elements are integers 0..size-1 and all operation tables are dense
tuples of size^2 entries. Checking the laws and finding the prime
filters take O(size^3) steps, so algebras of a few dozen elements are
cheap. The dual frame has one world per prime filter and, like every
frame here, a negation table over all subsets of its worlds, so that
part doubles with each prime filter; a chain of s elements has s. A
dual of more than 20 worlds, the world cap of the frame readers, raises
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        values = [v for row in self.meet for v in row]
        values += [v for row in self.join for v in row]
        values += [v for row in self.imp for v in row]
        values += list(self.neg) + [self.one]
        if any(not 0 <= v < self.size for v in values):
            raise ValueError("table value out of range")

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a


def check_nalgebra(a: NAlgebra) -> tuple[str, tuple] | None:
    """Exhaustively verify the N-algebra laws.

    None means the tables form an N-algebra; otherwise the first broken
    law is returned with a witness tuple: lattice identities first,
    then the top, then residuation of imp, then compatibility of neg.
    """
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
    k = len(elements)
    meet = tuple(
        tuple(index[elements[i] & elements[j]] for j in range(k)) for i in range(k)
    )
    join = tuple(
        tuple(index[elements[i] | elements[j]] for j in range(k)) for i in range(k)
    )
    imp = tuple(
        tuple(index[_imp_mask(p, elements[i], elements[j])] for j in range(k))
        for i in range(k)
    )
    neg = tuple(index[ntable[u]] for u in elements)
    return NAlgebra(k, meet, join, imp, neg, index[(1 << p.n) - 1])


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
    That takes O(size^3) steps and never enumerates subsets.
    """
    rng = range(a.size)
    join = a.join
    out = []
    for x in rng:
        row = a.meet[x]
        mask = sum(1 << y for y in rng if row[y] == x)
        outside = [y for y in rng if row[y] != x]
        if not any((mask >> join[y][z]) & 1 for y in outside for z in outside):
            out.append(mask)
    return sorted(out)


def element_hat(a: NAlgebra, filters: Sequence[int], x: int) -> int:
    """World mask of the filters containing the element."""
    out = 0
    for i, f in enumerate(filters):
        if (f >> x) & 1:
            out |= 1 << i
    return out


def dual_frame(a: NAlgebra) -> TopFrame:
    """Prime filters ordered by inclusion, negation by cone agreement.

    A filter lands in the negation of an admissible set when it holds
    some negated element whose hat agrees with the set on the filter's
    cone. The hat of a negation is recomputed and compared against the
    table as a construction-time sanity check.
    """
    return _dual(a, prime_filters(a))


def _dual(a: NAlgebra, filters: Sequence[int]) -> TopFrame:
    """The dual frame of an algebra on its given prime filters.

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
    for i in range(k):
        mask = 0
        for j in range(k):
            if filters[i] & ~filters[j] == 0:
                mask |= 1 << j
        up.append(mask)
    p = Poset(k, up)
    hats = {x: element_hat(a, filters, x) for x in range(a.size)}
    flat = [-1] * (1 << k)
    for u in p.upsets():
        if not u:
            continue
        value = 0
        for i in range(k):
            cone = up[i]
            for x in range(a.size):
                if (filters[i] >> a.neg[x]) & 1 and cone & hats[x] == cone & u:
                    value |= 1 << i
                    break
        flat[u] = value
    tf = TopFrame(p, tuple(flat))
    for x in range(a.size):
        if tf.ntable[hats[x]] != hats[a.neg[x]]:
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
    operation checked pointwise).
    """
    if isinstance(x, TopFrame):
        return topframe_isomorphic(x, dual_frame(admissible_algebra(x)))
    filters = prime_filters(x)
    tf = _dual(x, filters)
    b = admissible_algebra(tf)
    elements = tf.admissible()
    index = {u: i for i, u in enumerate(elements)}
    alpha = []
    for e in range(x.size):
        hat = element_hat(x, filters, e)
        if hat not in index:
            return False
        alpha.append(index[hat])
    if len(set(alpha)) != x.size or b.size != x.size:
        return False
    if alpha[x.one] != b.one:
        return False
    for u in range(x.size):
        if alpha[x.neg[u]] != b.neg[alpha[u]]:
            return False
        for v in range(x.size):
            if alpha[x.meet[u][v]] != b.meet[alpha[u]][alpha[v]]:
                return False
            if alpha[x.join[u][v]] != b.join[alpha[u]][alpha[v]]:
                return False
            if alpha[x.imp[u][v]] != b.imp[alpha[u]][alpha[v]]:
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
    """Value of a propositional formula under an element assignment."""
    if isinstance(f, Var):
        if f.name not in mu:
            raise ValueError(f"assignment misses variable {f.name}")
        return mu[f.name]
    if isinstance(f, Top):
        return a.one
    if isinstance(f, And):
        return a.meet[algebra_eval(a, mu, f.left)][algebra_eval(a, mu, f.right)]
    if isinstance(f, Or):
        return a.join[algebra_eval(a, mu, f.left)][algebra_eval(a, mu, f.right)]
    if isinstance(f, Imp):
        return a.imp[algebra_eval(a, mu, f.left)][algebra_eval(a, mu, f.right)]
    if isinstance(f, Neg):
        return a.neg[algebra_eval(a, mu, f.sub)]
    raise ValueError(f"not a propositional formula: {show(f)}")


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
    filters = prime_filters(a)
    tf = _dual(a, filters)
    names = sorted({v for f in sigma for v in variables(f)})
    valuation = {name: element_hat(a, filters, mu[name]) for name in names}
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
