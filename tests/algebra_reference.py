"""The algebra-layer functions the package replaced, as they were.

The differential tests in test_algebra.py run the package's law check,
duality round trip, dual frame, filtration correspondence and
subdirect irreducibility against these and demand the same value, the
same first broken law and witness, or the same exception. These are
the plain versions: the O(size^3) law loop, the arrow by one
``_imp_mask`` call per pair, the dual table by scanning every element
at every filter, a round trip that builds the dual's admissible
algebra to compare against, and the second greatest element by one
``le`` call per pair. Each builds its dual afresh on every call.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from frame_helpers import element_hat
from subminimal.algebra import (
    NAlgebra,
    TopFrame,
    _lattice_closure,
    prime_filters,
    topframe_isomorphic,
)
from subminimal.frames import _JSON_MAX_WORLDS, NModel, Poset, _imp_mask
from subminimal.syntax import And, Formula, Imp, Neg, Or, Top, Var, show, variables


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
        tuple(index[_imp_mask(p.up, elements[i], elements[j])] for j in range(k))
        for i in range(k)
    )
    neg = tuple(index[ntable[u]] for u in elements)
    return NAlgebra(k, meet, join, imp, neg, index[(1 << p.n) - 1])


def admissible_algebra(tf: TopFrame) -> NAlgebra:
    return _set_algebra(tf.poset, tf.admissible(), tf.ntable)


def dual_frame(a: NAlgebra) -> TopFrame:
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
    hats = {x: element_hat(filters, x) for x in range(a.size)}
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
    return round_trip(x, filters, tf)


def round_trip(x: NAlgebra, filters: Sequence[int], tf: TopFrame) -> bool:
    """The algebra half of duality_check on a given dual, unchanged."""
    b = admissible_algebra(tf)
    elements = tf.admissible()
    index = {u: i for i, u in enumerate(elements)}
    alpha = []
    for e in range(x.size):
        hat = element_hat(filters, e)
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


def least_filtration_correspondence(
    a: NAlgebra, mu: Mapping[str, int], sigma
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
    valuation = {name: element_hat(filters, mu[name]) for name in names}
    model = NModel(tf.to_nframe(), valuation)
    g = greatest_filtration(model, sigma)
    qposet = g.quotient.frame.poset
    traces = [f & carrier for f in filters]
    for i, trace_i in enumerate(traces):
        for j, trace_j in enumerate(traces):
            if qposet.le(g.pi[i], g.pi[j]) != (trace_i & ~trace_j == 0):
                return False
    return True
