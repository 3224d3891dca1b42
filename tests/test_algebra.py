"""N-algebras, top frames, duality, and algebraic filtration."""

import collections
import copy
import functools
import itertools
import pickle
import random
import weakref

import pytest

import algebra_reference as reference
from frame_helpers import element_hat
from subminimal import algebra
from subminimal._heyting import set_reduct
from subminimal.algebra import (
    AlgebraicFiltration,
    NAlgebra,
    TopFrame,
    _lattice_closure,
    admissible_algebra,
    algebra_corpus,
    algebra_eval,
    algebra_from_dict,
    algebra_to_dict,
    check_nalgebra,
    check_topframe,
    dual_frame,
    duality_check,
    enumerate_topframes,
    general_algebraic_filtration,
    least_filtration_correspondence,
    nalgebra_isomorphic,
    nalgebra_isomorphisms,
    prime_filters,
    subdirectly_irreducible,
    sublattice_filtration,
    topframe_from_dict,
    topframe_isomorphic,
    topframe_to_dict,
    upset_algebra,
)
from subminimal.filtration import close_sigma, greatest_filtration
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    check_nframe,
    enumerate_ntables,
    enumerate_posets,
    ntable_from_upset_map,
    random_nframe,
    random_ntable,
    random_poset,
    truth_sets,
)
from subminimal.syntax import And, Box, Neg, Var, _walk, parse, variables
from syntax_helpers import random_formula

CHAIN = Poset.from_pairs(2, [(0, 1)])
CHAIN_FRAME = NFrame(CHAIN, ntable_from_upset_map(CHAIN, {0: 0, 2: 2, 3: 2}))
ALG = upset_algebra(CHAIN_FRAME)


def test_upset_algebra_of_the_chain():
    assert ALG.size == 3
    assert ALG.one == 2
    assert check_nalgebra(ALG) is None


def test_algebra_validation_rejects_ragged_tables():
    with pytest.raises(ValueError):
        NAlgebra(2, ((0, 0),), ((0, 1), (1, 1)), ((1, 1), (0, 1)), (0, 0), 1)
    with pytest.raises(ValueError):
        NAlgebra(1, ((0,),), ((0,),), ((0,),), (3,), 0)


def test_check_nalgebra_reports_broken_laws():
    # meet that is not idempotent
    bad = NAlgebra(2, ((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 1)), (0, 0), 1)
    assert check_nalgebra(bad) == ("meet-idempotent", (0,))


def test_compatibility_matches_locality_on_two_worlds():
    # every upset-valued negation candidate on the chain and on the
    # antichain: the algebra checker and the frame checker must agree
    for p in (CHAIN, Poset(2, (1, 2))):
        upsets = p.upsets()
        idx = {u: i for i, u in enumerate(upsets)}
        base = upset_algebra(
            NFrame(p, ntable_from_upset_map(p, {u: u for u in upsets}))
        )
        for values in itertools.product(upsets, repeat=len(upsets)):
            table = ntable_from_upset_map(p, dict(zip(upsets, values)))
            local = check_nframe(p, table) is None
            cand = NAlgebra(
                base.size,
                base.meet,
                base.join,
                base.imp,
                tuple(idx[v] for v in values),
                base.one,
            )
            assert (check_nalgebra(cand) is None) == local


def test_prime_filters_of_the_chain_algebra():
    pf = prime_filters(ALG)
    assert pf == [0b100, 0b110, 0b111]


def _scanned_prime_filters(a):
    # the reference: every subset of the carrier, kept when it holds the
    # top and is an upward and meet-closed set that is prime
    out = []
    for mask in range(1 << a.size):
        if not (mask >> a.one) & 1:
            continue
        ok = True
        for x in range(a.size):
            if not (mask >> x) & 1:
                continue
            for y in range(a.size):
                if (mask >> y) & 1 and not (mask >> a.meet[x][y]) & 1:
                    ok = False
                    break
                if a.le(x, y) and not (mask >> y) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for x in range(a.size):
                for y in range(a.size):
                    if (mask >> a.join[x][y]) & 1 and not (
                        (mask >> x) & 1 or (mask >> y) & 1
                    ):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(mask)
    return out


def _lattice(size, below):
    """An algebra on the lattice of the given strict order pairs, with
    arbitrary in-range arrow and negation tables."""
    le = {(x, x) for x in range(size)} | set(below)
    rng = range(size)

    def meet(x, y):
        lower = [z for z in rng if (z, x) in le and (z, y) in le]
        return next(z for z in lower if all((w, z) in le for w in lower))

    def join(x, y):
        upper = [z for z in rng if (x, z) in le and (y, z) in le]
        return next(z for z in upper if all((z, w) in le for w in upper))

    return NAlgebra(
        size,
        tuple(tuple(meet(x, y) for y in rng) for x in rng),
        tuple(tuple(join(x, y) for y in rng) for x in rng),
        tuple(tuple((x + y) % size for y in rng) for x in rng),
        tuple(rng),
        size - 1,
    )


# M3: bottom 0, atoms 1, 2, 3, top 4; N5: 0 < 1 < 2 < 4 and 0 < 3 < 4
M3 = _lattice(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
N5 = _lattice(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])


def test_prime_filters_match_the_subset_scan():
    algebras = list(algebra_corpus(3))
    assert len(algebras) == 271
    tops = [
        admissible_algebra(tf)
        for n in (1, 2, 3)
        for p in enumerate_posets(n)
        if p.top() is not None
        for tf in enumerate_topframes(p)
    ]
    assert len(tops) == 147
    algebras += tops
    rng = random.Random(5)
    frames = [random_nframe(rng, 4) for _ in range(12)]
    antichain = Poset(4, (1, 2, 4, 8))
    frames.append(NFrame(antichain, random_ntable(rng, antichain)))
    algebras += [upset_algebra(fr) for fr in frames]
    assert algebras[-1].size == 16
    # lattices that are not distributive: only the arrow breaks a law
    assert check_nalgebra(M3)[0] == check_nalgebra(N5)[0] == "residuation"
    algebras += [M3, N5]
    for a in algebras:
        assert prime_filters(a) == _scanned_prime_filters(a)
    # M3 has only the improper prime filter; N5 has the up-sets of 1 and 3 too
    assert prime_filters(M3) == [0b11111]
    assert prime_filters(N5) == [0b10110, 0b11000, 0b11111]


def test_dual_frame_of_the_chain_algebra():
    tf = dual_frame(ALG)
    assert tf.n == 3
    assert tf.top == 2
    assert tf.value_tuple() == (4, 6, 6)
    assert check_topframe(tf) is None


def test_element_hat_is_the_negation_square():
    # N(a-hat) must equal the hat of neg(a), pointwise over the corpus
    for a in algebra_corpus(2):
        filters = prime_filters(a)
        tf = dual_frame(a)
        for x in range(a.size):
            assert tf.ntable[element_hat(filters, x)] == element_hat(filters, a.neg[x])


def test_duality_on_small_structures():
    for n in (1, 2):
        for p in enumerate_posets(n):
            if p.top() is None:
                continue
            for tf in enumerate_topframes(p):
                assert duality_check(tf)
    for a in algebra_corpus(2):
        assert duality_check(a)


def test_corpus_keeps_the_first_frame_of_each_new_algebra():
    # the reference: every labeled frame in order, kept when its algebra
    # is new up to isomorphism
    want = []
    for n in (1, 2, 3):
        for p in enumerate_posets(n):
            for table in enumerate_ntables(p):
                alg = upset_algebra(NFrame(p, table))
                if not any(nalgebra_isomorphic(alg, seen) for seen in want):
                    want.append(alg)
    assert algebra_corpus(3) == want


def test_subdirectly_irreducible_iff_rooted_dual():
    for a in algebra_corpus(3):
        if a.size < 2:
            continue
        tf = dual_frame(a)
        rooted = any(tf.poset.up[w].bit_count() == tf.n for w in range(tf.n))
        assert subdirectly_irreducible(a) == rooted


def test_admissible_algebra_inverts_dual_frame():
    a = admissible_algebra(dual_frame(ALG))
    assert nalgebra_isomorphic(a, ALG)


def test_algebra_eval_hand_values():
    mu = {"p": 1, "q": 2}
    assert algebra_eval(ALG, mu, parse("p & q")) == 1
    assert algebra_eval(ALG, mu, parse("p | q")) == 2
    assert algebra_eval(ALG, mu, parse("T")) == ALG.one
    assert algebra_eval(ALG, mu, parse("~p")) == ALG.neg[1]
    assert algebra_eval(ALG, mu, parse("q -> p")) == ALG.imp[2][1]


def test_sublattice_filtration_of_the_chain():
    sigma = close_sigma([parse("p & q"), parse("~p")])
    mu = {"p": 1, "q": 2}
    filt = sublattice_filtration(ALG, mu, sigma)
    assert check_nalgebra(filt.algebra) is None
    assert filt.algebra.size == 2
    assert filt.carrier == (1, 2)
    for f in sigma:
        big = algebra_eval(ALG, mu, f)
        small = algebra_eval(filt.algebra, filt.mu, f)
        assert filt.carrier[small] == big


def test_sublattice_filtration_coarsens_negation_somewhere():
    corner = 0
    sigma = close_sigma([parse("p")])
    for a in algebra_corpus(3):
        for x in range(a.size):
            s = sublattice_filtration(a, {"p": x}, sigma)
            nx = s.algebra.neg[s.mu["p"]]
            if s.carrier[nx] != a.neg[x]:
                corner += 1
    assert corner == 759


def test_general_filtration_rejects_bad_universe():
    sigma = close_sigma([parse("p & q"), parse("~p")])
    with pytest.raises(ValueError, match="universe misses the top"):
        general_algebraic_filtration(ALG, {"p": 1, "q": 2}, sigma, [0])


def test_general_filtration_checks_its_universe():
    sigma = close_sigma([parse("p")])
    with pytest.raises(ValueError, match="empty universe"):
        general_algebraic_filtration(ALG, {"p": 1}, sigma, [])
    with pytest.raises(ValueError, match="universe element -1 out of range"):
        general_algebraic_filtration(ALG, {"p": 1}, sigma, [-1, 2])
    with pytest.raises(ValueError, match="universe misses the value of p"):
        general_algebraic_filtration(ALG, {"p": 1}, sigma, [0, 2])
    # the four upsets of the two-world antichain; {0} and {1} meet in 0
    square = upset_algebra(NFrame(Poset(2, [1, 2]), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="universe is not a sublattice"):
        general_algebraic_filtration(square, {"p": 3}, sigma, [1, 2, 3])


def test_algebra_checks_name_what_is_wrong():
    with pytest.raises(ValueError, match="an algebra needs at least one element"):
        NAlgebra(0, (), (), (), (), 0)
    # NFrame takes a value off the upsets; its upset algebra cannot
    with pytest.raises(ValueError, match="negation value at 2 is not an element"):
        upset_algebra(NFrame(CHAIN, (0, -1, 1, 2)))
    with pytest.raises(ValueError, match="algebra JSON must be an object"):
        algebra_from_dict([])


def test_general_filtration_refuses_tables_that_are_no_lattice():
    # every two-element meet table beside the chain's join, arrow and
    # negation: where no universe element qualifies for some arrow the
    # tables are not a lattice; the rest keep their filtration
    join, imp, neg = ((0, 1), (1, 1)), ((1, 0), (1, 1)), (1, 0)
    kept = {
        (0, 0, 0, 0): (((1, 1), (1, 1)), (0, 0)),
        (0, 0, 0, 1): (((1, 1), (0, 1)), (1, 0)),
        (0, 0, 1, 0): (((1, 1), (1, 1)), (0, 1)),
        (0, 0, 1, 1): (((1, 1), (1, 1)), (1, 1)),
        (0, 1, 0, 1): (((0, 1), (0, 1)), (1, 0)),
        (0, 1, 1, 1): (((1, 1), (1, 1)), (1, 1)),
        (1, 0, 1, 0): (((0, 1), (0, 1)), (0, 1)),
        (1, 0, 1, 1): (((0, 1), (1, 1)), (1, 1)),
        (1, 1, 1, 1): (((1, 1), (1, 1)), (1, 1)),
    }
    refused = 0
    for cells in itertools.product((0, 1), repeat=4):
        meet = (cells[:2], cells[2:])
        a = NAlgebra(2, meet, join, imp, neg, 1)
        mu, sigma = {"p": 0}, [Var("p")]
        if cells in kept:
            small_imp, small_neg = kept[cells]
            want = AlgebraicFiltration(NAlgebra(2, meet, join, small_imp, small_neg, 1), mu, (0, 1))
            assert general_algebraic_filtration(a, mu, sigma, [0, 1]) == want
            assert sublattice_filtration(a, mu, sigma) == want
        else:
            refused += 1
            with pytest.raises(ValueError, match="the tables are not a lattice"):
                general_algebraic_filtration(a, mu, sigma, [0, 1])
            with pytest.raises(ValueError, match="the tables are not a lattice"):
                sublattice_filtration(a, mu, sigma)
    assert refused == 7


def test_least_filtration_correspondence_samples():
    sigmas = [
        close_sigma([parse("p")]),
        close_sigma([parse("~p")]),
        close_sigma([parse("p -> q")]),
    ]
    for a in algebra_corpus(2):
        mu = {"p": 0, "q": a.size // 2} if a.size >= 2 else {"p": 0, "q": 0}
        for sg in sigmas:
            assert least_filtration_correspondence(a, mu, sg)


def test_algebra_json_round_trip():
    assert algebra_from_dict(algebra_to_dict(ALG)) == ALG
    for a in algebra_corpus(2):
        assert algebra_from_dict(algebra_to_dict(a)) == a


def test_topframe_json_round_trip():
    seen = 0
    for p in enumerate_posets(2):
        if p.top() is None:
            continue
        for tf in enumerate_topframes(p):
            d = topframe_to_dict(tf)
            assert topframe_from_dict(d) == tf
            # a plain frame's entry at the empty set is ignored
            d["N"]["0"] = 0
            assert topframe_from_dict(d) == tf
            seen += 1
    assert seen > 0
    with pytest.raises(ValueError, match="needs an N table"):
        topframe_from_dict({"worlds": 1, "leq": []})


def test_topframes_are_the_lawful_admissible_tables():
    # brute force: every table from nonempty upsets to nonempty upsets,
    # kept when locality holds
    seen = 0
    for n in (1, 2, 3):
        for p in enumerate_posets(n):
            if p.top() is None:
                continue
            admissible = [u for u in p.upsets() if u]
            lawful = []
            for values in itertools.product(admissible, repeat=len(admissible)):
                flat = [-1] * (1 << n)
                for u, v in zip(admissible, values):
                    flat[u] = v
                tf = TopFrame(p, tuple(flat))
                if check_topframe(tf) is None:
                    lawful.append(tf)
            assert enumerate_topframes(p) == lawful
            seen += len(lawful)
    assert seen == 147


def test_topframe_requires_a_top():
    with pytest.raises(ValueError, match="greatest world"):
        TopFrame(Poset(2, (1, 2)), (-1, 0, 0, 0))
    with pytest.raises(ValueError, match="greatest world"):
        enumerate_topframes(Poset(2, (1, 2)))


def test_check_topframe_rejects_inadmissible_values():
    tf = TopFrame(CHAIN, (-1, -1, 2, 2))
    assert check_topframe(tf) is None
    with pytest.raises(ValueError, match="not admissible"):
        check_topframe(TopFrame(CHAIN, (-1, -1, 1, 2)))


def test_topframe_to_nframe_keeps_locality():
    for p in enumerate_posets(2):
        if p.top() is None:
            continue
        for tf in enumerate_topframes(p):
            fr = tf.to_nframe()
            assert check_nframe(fr.poset, fr.ntable) is None


def test_nalgebra_isomorphic_distinguishes():
    a = upset_algebra(
        NFrame(CHAIN, ntable_from_upset_map(CHAIN, {0: 2, 2: 3, 3: 2}))
    )
    assert nalgebra_isomorphic(ALG, ALG)
    assert not nalgebra_isomorphic(ALG, a)


def _relabeled(a, perm):
    """The algebra a with element x renamed perm[x]."""
    back = [0] * a.size
    for x, y in enumerate(perm):
        back[y] = x

    def table(rows):
        return tuple(tuple(perm[rows[back[x]][back[y]]] for y in range(a.size)) for x in range(a.size))

    neg = tuple(perm[a.neg[back[x]]] for x in range(a.size))
    return NAlgebra(a.size, table(a.meet), table(a.join), table(a.imp), neg, perm[a.one])


def test_nalgebra_isomorphisms_come_in_lexicographic_order():
    # the search places element 0 first, each element on ascending
    # targets, so it yields every isomorphism once, in the brute
    # force's order over all bijections
    rng = random.Random(56)
    corpus = [a for a in algebra_corpus(3) if a.size <= 6]
    found = 0
    for a in rng.sample(corpus, 40):
        perm = list(range(a.size))
        rng.shuffle(perm)
        for b in (_relabeled(a, perm), rng.choice(corpus)):
            if b.size != a.size:
                continue
            brute = [
                f
                for f in itertools.permutations(range(a.size))
                if f[a.one] == b.one
                and all(b.neg[f[x]] == f[a.neg[x]] for x in range(a.size))
                and all(
                    tb[f[x]][f[y]] == f[ta[x][y]]
                    for ta, tb in ((a.meet, b.meet), (a.join, b.join), (a.imp, b.imp))
                    for x in range(a.size)
                    for y in range(a.size)
                )
            ]
            assert list(nalgebra_isomorphisms(a, b)) == brute
            found += len(brute)
    assert found >= 40


def test_nalgebra_isomorphisms_refuse_an_element_order_that_is_no_partial_order():
    # meet[x][y] == x for all x, y puts every element below every other,
    # which is no antisymmetric order; meet[1][1] == 0 breaks reflexivity
    flat = ((0, 0), (1, 1))
    preorder = NAlgebra(2, flat, flat, flat, (0, 1), 1)
    irreflexive = NAlgebra(2, ((0, 0), (0, 0)), flat, flat, (0, 1), 1)
    assert check_nalgebra(preorder) is not None and check_nalgebra(irreflexive) is not None
    for bad in (preorder, irreflexive):
        for a, b in ((bad, bad), (bad, ALG), (ALG, bad)):
            with pytest.raises(ValueError):
                list(nalgebra_isomorphisms(a, b))


def test_topframe_isomorphic_distinguishes():
    tf = dual_frame(ALG)
    assert topframe_isomorphic(tf, tf)
    other = TopFrame(CHAIN, (-1, -1, 2, 2))
    assert not topframe_isomorphic(tf, other)


# --------------------------------------------------------------------------
# differential tests against the plain versions in algebra_reference


def _replace(a, **fields):
    """The algebra with some of its tables replaced."""
    tables = {"meet": a.meet, "join": a.join, "imp": a.imp, "neg": a.neg, "one": a.one}
    return NAlgebra(a.size, **{**tables, **fields})


def _with_entry(rows, x, y, value, mirror=False):
    """The table with entry (x, y), and (y, x) too when mirrored, set."""
    out = [list(row) for row in rows]
    out[x][y] = value
    if mirror:
        out[y][x] = value
    return tuple(map(tuple, out))


def _corruptions(rng, bases, count, mirror=False):
    """count algebras, each a base with one entry changed: a table entry
    (with its mirror entry when asked, meet and join only), a negation
    value or the top."""
    names = ("meet", "join") if mirror else ("meet", "join", "imp", "neg", "one")
    out = []
    while len(out) < count:
        a = rng.choice(bases)
        name = rng.choice(names)
        value = rng.randrange(a.size)
        if name == "one":
            if value != a.one:
                out.append(_replace(a, one=value))
        elif name == "neg":
            x = rng.randrange(a.size)
            if a.neg[x] != value:
                out.append(_replace(a, neg=a.neg[:x] + (value,) + a.neg[x + 1 :]))
        else:
            rows = getattr(a, name)
            x, y = rng.randrange(a.size), rng.randrange(a.size)
            if rows[x][y] != value:
                out.append(_replace(a, **{name: _with_entry(rows, x, y, value, mirror)}))
    return out


def _moved_bounds(a):
    """Tables that keep the lattice order of a lawful algebra but break
    one associative law alone: the meet of an incomparable pair moved
    down to another lower bound (the arrow rebuilt as the join of the x
    whose meet with y lies below z), or their join moved up to another
    upper bound. The negation is the constant top, or a's own for the
    moved join. Only the greatest-lower-bound or the least-upper-bound
    test of _laws_hold tells these from lawful tables."""
    rng = range(a.size)
    out = []
    for x, y in itertools.combinations(rng, 2):
        if a.le(x, y) or a.le(y, x):
            continue
        for z in rng:
            if z != a.meet[x][y] and a.le(z, a.meet[x][y]):
                meet = _with_entry(a.meet, x, y, z, mirror=True)
                imp = []
                for u in rng:
                    row = []
                    for v in rng:
                        acc = None
                        for w in rng:
                            if a.le(meet[w][u], v):
                                acc = w if acc is None else a.join[acc][w]
                        row.append(acc)
                    imp.append(tuple(row))
                top = (a.one,) * a.size
                out.append(_replace(a, meet=meet, imp=tuple(imp), neg=top))
            if z != a.join[x][y] and a.le(a.join[x][y], z):
                join = _with_entry(a.join, x, y, z, mirror=True)
                out.append(_replace(a, join=join, neg=(a.one,) * a.size))
                out.append(_replace(a, join=join))
    return out


def _random_upset_algebras(rng, count):
    return [upset_algebra(random_nframe(rng, 4)) for _ in range(count)]


def _result(fn, *args):
    """The value of fn(*args), or the type and text of what it raises."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # every exception must match the reference's
        return (type(exc).__name__, str(exc))


def test_check_nalgebra_matches_the_plain_loop():
    rng = random.Random(16)
    bases = list(algebra_corpus(3)) + _random_upset_algebras(rng, 300)
    lattices = {(a.meet, a.join): a for a in bases}.values()
    cases = bases + [M3, N5]
    cases += _corruptions(rng, bases, 20_000)
    cases += _corruptions(rng, bases, 5_000, mirror=True)
    cases += [t for a in lattices for t in _moved_bounds(a)]
    laws = {}
    for a in cases:
        got = check_nalgebra(a)
        assert got == reference.check_nalgebra(a), a
        if got is not None:
            laws[got[0]] = laws.get(got[0], 0) + 1
    assert set(laws) == {
        "meet-idempotent",
        "join-idempotent",
        "top",
        "meet-commutative",
        "join-commutative",
        "absorption",
        "meet-associative",
        "join-associative",
        "residuation",
        "compatibility",
    }


def test_moved_bounds_break_associativity_alone():
    # the smallest case: 0 < 1 < 2, 3 < 4 with the meet of 2 and 3 moved
    # from 1 down to 0; everything but associativity holds
    stem = _lattice(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    moved = [t for t in _moved_bounds(stem) if t.meet[2][3] == 0]
    assert len(moved) == 1
    assert check_nalgebra(moved[0]) == ("meet-associative", (1, 2, 3))
    assert reference.check_nalgebra(moved[0]) == ("meet-associative", (1, 2, 3))


SIGMAS = [
    close_sigma([parse("p")]),
    close_sigma([parse("~p")]),
    close_sigma([parse("p -> ~q")]),
    close_sigma([parse("~(p & q) | (q -> p)")]),
]


def _duality_outcomes(a, mu, sigma, reverse=False):
    """duality_check, the dual's table and one filtration correspondence
    on a, called in this order or, reversed, in the opposite one."""
    calls = [
        lambda: _result(duality_check, a),
        lambda: _result(lambda: dual_frame(a).ntable),
        lambda: _result(least_filtration_correspondence, a, mu, sigma),
    ]
    if reverse:
        return [call() for call in calls[::-1]][::-1]
    return [call() for call in calls]


def _duality_cases():
    """The top frames on up to 3 worlds, and the inputs of the duality
    differential: the corpus, the top frames' algebras, 300 random
    upset algebras, M3, N5 and 5,000 corruptions of the lawful ones,
    each with a seeded assignment and Sigma."""
    rng = random.Random(17)
    corpus = list(algebra_corpus(3))
    assert len(corpus) == 271
    topframes = [
        tf
        for n in (1, 2, 3)
        for p in enumerate_posets(n)
        if p.top() is not None
        for tf in enumerate_topframes(p)
    ]
    assert len(topframes) == 147
    tops = [reference.admissible_algebra(tf) for tf in topframes]
    upsets = _random_upset_algebras(rng, 300)
    bases = corpus + tops + upsets
    corrupted = _corruptions(rng, bases, 4_000) + _corruptions(rng, bases, 1_000, mirror=True)
    cases = []
    for a in bases + [M3, N5] + corrupted:
        mu = {"p": rng.randrange(a.size), "q": rng.randrange(a.size)}
        cases.append((a, mu, rng.choice(SIGMAS)))
    return topframes, cases


def test_duality_matches_the_reference():
    topframes, cases = _duality_cases()
    for tf in topframes:
        assert _result(duality_check, tf) == _result(reference.duality_check, tf)
    seen = {}
    for a, mu, sigma in cases:
        want = [
            _result(reference.duality_check, a),
            _result(lambda: reference.dual_frame(a).ntable),
            _result(reference.least_filtration_correspondence, a, mu, sigma),
        ]
        fresh = _replace(a)
        assert _duality_outcomes(fresh, mu, sigma) == want, a
        # a second call on the same algebra repeats every answer and error
        assert _duality_outcomes(fresh, mu, sigma) == want, a
        assert _duality_outcomes(_replace(a), mu, sigma, reverse=True) == want, a
        for kind, value in want:
            key = kind if kind != "ok" or not isinstance(value, bool) else value
            seen[key] = seen.get(key, 0) + 1
    assert seen[True] and seen[False] and seen["RuntimeError"] and seen["ValueError"]


def test_every_admissible_valued_top_frame_round_trips_as_the_reference():
    # duality_check on a top frame builds the dual and searches no
    # isomorphism; on every table with admissible values, lawful or
    # not, over every topped poset of 1-3 worlds, it answers as the
    # reference's isomorphism search does, value or error
    seen = collections.Counter()
    for n in (1, 2, 3):
        for p in enumerate_posets(n):
            if p.top() is None:
                continue
            admissible = [u for u in p.upsets() if u]
            for values in itertools.product(admissible, repeat=len(admissible)):
                table = [-1] * (1 << n)
                for u, v in zip(admissible, values):
                    table[u] = v
                tf = TopFrame(p, tuple(table))
                got = _result(duality_check, tf)
                assert got == _result(reference.duality_check, tf), tf
                seen[got[0] if got[0] != "ok" else got[1]] += 1
    assert seen == {True: 147, "RuntimeError": 792}


def test_signatures_order_the_greatest_filtration_of_the_dual():
    # the lemmas duality_check and least_filtration_correspondence rest
    # on: every dual value at an admissible set is admissible, so on the
    # dual model greatest_filtration returns whenever the truth sets do,
    # ordered by signature inclusion
    _, cases = _duality_cases()
    built = 0
    for a, mu, sigma in cases:
        a = _replace(a)
        try:
            tf = a._duality
        except (RuntimeError, ValueError):
            continue
        built += 1
        hats = a._reduct.hats
        admissible = set(tf.admissible())
        assert all(tf.ntable[u] in admissible for u in admissible), a
        names = sorted({v for f in sigma for v in variables(f)})
        model = NModel(tf.to_nframe(), {name: hats[mu[name]] for name in names})
        truth = truth_sets(model, sigma)
        g = greatest_filtration(model, sigma)
        qposet = g.quotient.frame.poset
        for i in range(tf.n):
            for j in range(tf.n):
                included = all(truth[f] >> j & 1 for f in sigma if truth[f] >> i & 1)
                assert qposet.le(g.pi[i], g.pi[j]) == included, a
    assert built == 4464


def test_the_dual_is_kept_out_of_equality():
    a = _replace(ALG)
    tf = dual_frame(a)
    assert dual_frame(a) is tf
    assert a == ALG and hash(a) == hash(ALG) and repr(a) == repr(ALG)
    # an error is not kept: the next call raises it again
    broken = _replace(ALG, neg=(0, 0, 1))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="disagrees with the algebra at element 1"):
            dual_frame(broken)


def test_algebra_eval_walks_deep_formulas():
    mu = {"p": 1, "q": 2}
    left = right = Var("p")
    negs = Var("q")
    for _ in range(3_000):
        left = And(left, Var("q"))
        right = And(Var("q"), right)
        negs = Neg(negs)
    assert algebra_eval(ALG, mu, left) == algebra_eval(ALG, mu, right) == ALG.meet[1][2]
    want = 2
    for _ in range(3_000):
        want = ALG.neg[want]
    assert algebra_eval(ALG, mu, negs) == want
    with pytest.raises(ValueError, match="assignment misses variable r"):
        algebra_eval(ALG, mu, And(left, And(Var("r"), Box(Var("p")))))
    with pytest.raises(ValueError, match=r"not a propositional formula: \[\]p"):
        algebra_eval(ALG, mu, And(left, And(Box(Var("p")), Var("r"))))


def test_algebra_eval_matches_the_recursive_walk():
    rng = random.Random(18)
    corpus = list(algebra_corpus(2))
    kinds = {}
    for i in range(2_400):
        a = rng.choice(corpus)
        names = ["p", "q", "r"]
        mu = {name: rng.randrange(a.size) for name in names if rng.random() < 0.8}
        language = "modal" if i % 4 == 0 else "prop"
        f = random_formula(rng, names, rng.randrange(1, 7), language)
        got = _result(algebra_eval, a, mu, f)
        assert got == _result(reference.algebra_eval, a, mu, f), f
        kind = got[0] if got[0] == "ok" else got[1].split(":")[0].rsplit(" ", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"ok", "assignment misses variable", "not a propositional"}


def _one_by_one(a, mu, formulas, order):
    """The Sigma values as the filtrations took them before they shared
    one walk: one recursive evaluation per member."""
    return [reference.algebra_eval(a, mu, f) for f in formulas]


def test_sigma_values_keep_the_answers_and_errors_of_one_walk_per_member(monkeypatch):
    # the draws of test_algebra_eval_matches_the_recursive_walk, each
    # formula's closure as Sigma, a fifth of them with a member dropped
    rng, extra = random.Random(18), random.Random(19)
    corpus = list(algebra_corpus(2))
    cases = []
    for i in range(2_400):
        a = rng.choice(corpus)
        names = ["p", "q", "r"]
        mu = {name: rng.randrange(a.size) for name in names if rng.random() < 0.8}
        language = "modal" if i % 4 == 0 else "prop"
        f = random_formula(rng, names, rng.randrange(1, 7), language)
        sigma = set(close_sigma([f]))
        if len(sigma) > 1 and extra.random() < 0.2:
            sigma.remove(extra.choice(sorted(sigma, key=str)))
        sigma = frozenset(sigma)
        carrier = range(a.size) if extra.random() < 0.5 else _lattice_closure(a, [extra.randrange(a.size)])
        cases.append((a, mu, sigma, list(carrier)))

    def outcomes():
        return [
            [
                _result(algebra._algebra_values, a, mu, sigma, _walk(sigma)),
                _result(general_algebraic_filtration, a, mu, sigma, carrier),
                _result(sublattice_filtration, a, mu, sigma),
                _result(least_filtration_correspondence, a, mu, sigma),
            ]
            for a, mu, sigma, carrier in cases
        ]

    got = outcomes()
    monkeypatch.setattr(algebra, "_algebra_values", _one_by_one)
    want = outcomes()
    errors = (
        "assignment misses variable",
        "not a propositional formula",
        "universe misses the value",
        "sigma is not subformula-closed",
    )
    kinds = collections.Counter()
    for case, g, w in zip(cases, got, want):
        assert g == w, case
        for kind, value in g:
            kinds[kind if kind == "ok" else [e for e in errors if value.startswith(e)][0]] += 1
    assert set(kinds) == {"ok", *errors}
    assert min(kinds.values()) >= 100


# --------------------------------------------------------------------------
# Heyting reducts shared by the set algebras of one poset


def test_subdirectly_irreducible_matches_the_plain_loop():
    rng = random.Random(29)
    bases = list(algebra_corpus(3)) + _random_upset_algebras(rng, 300)
    cases = bases + [M3, N5] + _corruptions(rng, bases, 2_000)
    seen = collections.Counter()
    for a in cases:
        got = subdirectly_irreducible(a)
        assert got == reference.subdirectly_irreducible(a), a
        seen[got] += 1
    assert seen[True] and seen[False]


def test_set_algebras_of_one_poset_share_their_tables_and_reduct():
    for n in (1, 2, 3):
        for p in enumerate_posets(n):
            families = [[upset_algebra(NFrame(p, t)) for t in enumerate_ntables(p)]]
            if p.top() is not None:
                families.append([admissible_algebra(tf) for tf in enumerate_topframes(p)])
                assert families[0][0]._reduct is not families[1][0]._reduct
            for first, *rest in families:
                for a in rest:
                    assert a.meet is first.meet and a.join is first.join and a.imp is first.imp
                    assert a._reduct is first._reduct
    # any other algebra builds its own, even on the same table objects
    assert _replace(ALG)._reduct is not ALG._reduct


MALFORMED = [
    ("meet", ((0, 0, 0), (0, 1)), "meet table must be square of order 3"),
    ("join", ((0, 1, 2),) * 2, "join table must be square of order 3"),
    ("imp", ((2, 2, 2), (0, 2, 2), (0, 1, 3)), "table value out of range"),
    ("neg", (2, 0), "negation table length mismatch"),
    ("neg", (2, 0, -1), "table value out of range"),
    ("one", 3, "table value out of range"),
]


@pytest.mark.parametrize("field, value, message", MALFORMED)
def test_a_malformed_table_raises_on_each_constructor_path(field, value, message):
    with pytest.raises(ValueError, match=message):
        _replace(ALG, **{field: value})
    with pytest.raises(ValueError, match=message):
        algebra_from_dict(dict(algebra_to_dict(ALG), **{field: value}))


def test_an_upset_algebra_checks_its_negation_and_its_reducts_tables_once(monkeypatch):
    # each algebra of a poset's upsets or admissible sets checks its own
    # negation values; the tables its reduct shares are checked when it
    # is kept, and its neg and one, built from the reduct, need no shape
    # check
    with pytest.raises(ValueError, match="negation value at 2 is not an element"):
        admissible_algebra(TopFrame(CHAIN, (-1, -1, 0, 2)))
    calls = []
    check = algebra._check_shape

    def spy(*args, **tables):
        calls.append(sorted(tables))
        return check(*args, **tables)

    monkeypatch.setattr(algebra, "_check_shape", spy)
    p = Poset(5, [1 << w for w in range(5)])  # past the posets kept for the process
    for value in (lambda u: 0, lambda u: u, lambda u: 31):
        upset_algebra(NFrame(p, ntable_from_upset_map(p, {u: value(u) for u in p.upsets()})))
    assert calls == [["imp", "join", "meet"]]
    calls.clear()
    _replace(ALG)
    assert calls == [["imp", "join", "meet"]]


def test_a_large_poset_keeps_its_reducts_no_longer_than_itself():
    # five worlds are past the posets kept for the life of the process
    p = Poset(5, [1 << w for w in range(5)])
    frame = NFrame(p, ntable_from_upset_map(p, {u: 0 for u in p.upsets()}))
    a = upset_algebra(frame)
    assert check_nalgebra(a) is None and duality_check(a)
    assert upset_algebra(frame)._reduct is a._reduct
    kept = weakref.ref(a._reduct)
    del p, frame, a
    assert kept() is None


def _shared_outcomes(a, mu, sigma, reverse=False):
    """check_nalgebra, duality_check, the dual's table and one
    filtration correspondence on a, in this order or, reversed, in the
    opposite one."""
    calls = [
        lambda: _result(check_nalgebra, a),
        lambda: _result(duality_check, a),
        lambda: _result(lambda: dual_frame(a).ntable),
        lambda: _result(least_filtration_correspondence, a, mu, sigma),
    ]
    if reverse:
        return [call() for call in calls[::-1]][::-1]
    return [call() for call in calls]


def test_shared_reducts_match_the_reference():
    # frames drawn on a few posets, so that most algebras meet a reduct
    # an earlier one built; half the tables are arbitrary upset maps,
    # which break compatibility and make some duals disagree
    rng = random.Random(30)
    posets = [random_poset(rng, n) for n in (1, 2, 2, 3, 3, 3, 4, 4)]
    seen = collections.Counter()
    for _ in range(600):
        p = rng.choice(posets)
        lawful = rng.random() < 0.5
        if p.top() is not None and rng.random() < 0.3:
            admissible = [u for u in p.upsets() if u]
            if lawful:
                tf = rng.choice(enumerate_topframes(p))
            else:
                table = [-1] * (1 << p.n)
                for u in admissible:
                    table[u] = rng.choice(admissible)
                tf = TopFrame(p, tuple(table))
            make = functools.partial(admissible_algebra, tf)
            want_algebra = reference.admissible_algebra(tf)
        else:
            upsets = p.upsets()
            table = random_ntable(rng, p) if lawful else ntable_from_upset_map(p, {u: rng.choice(upsets) for u in upsets})
            make = functools.partial(upset_algebra, NFrame(p, table))
            want_algebra = reference._set_algebra(p, upsets, table)
        a = make()
        assert a == want_algebra
        mu = {"p": rng.randrange(a.size), "q": rng.randrange(a.size)}
        sigma = rng.choice(SIGMAS)
        want = [
            _result(reference.check_nalgebra, a),
            _result(reference.duality_check, a),
            _result(lambda: reference.dual_frame(a).ntable),
            _result(reference.least_filtration_correspondence, a, mu, sigma),
        ]
        reverse = rng.random() < 0.5
        assert _shared_outcomes(a, mu, sigma, reverse) == want, a
        # a second call on the same algebra repeats every answer and error
        assert _shared_outcomes(a, mu, sigma, reverse) == want, a
        again = make()
        assert again._reduct is a._reduct
        assert _shared_outcomes(again, mu, sigma, not reverse) == want, a
        for kind, value in want:
            seen[kind if kind != "ok" else "lawful" if value is None else value] += 1
    assert seen["lawful"] and seen[True] and seen["RuntimeError"]
    assert any(isinstance(key, tuple) and key[0] == "compatibility" for key in seen)


def test_shared_algebras_compare_copy_and_pickle_as_plain_ones():
    rng = random.Random(31)
    for a in _random_upset_algebras(rng, 20) + [upset_algebra(CHAIN_FRAME)]:
        want = (check_nalgebra(a), dual_frame(a), duality_check(a), prime_filters(a))
        plain = _replace(a)
        for b in (plain, copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
            assert (check_nalgebra(b), dual_frame(b), duality_check(b), prime_filters(b)) == want
        assert "Reduct" not in repr(a)
        # prime_filters hands out a fresh list each time
        filters = prime_filters(a)
        filters.append(-1)
        assert prime_filters(a) == want[3]


def test_the_reducts_order_takes_the_down_sets_of_its_scan():
    # eight elements are past the posets kept for the process, so the
    # order is built here, from the scan's cones; its down sets are the
    # scan's
    antichain = Poset(3, (1, 2, 4))
    _, r = set_reduct(antichain.up, antichain.upsets())
    order = r.order
    assert order.down == tuple(r.down)
    assert order == Poset(r.size, r.up) and order.down == Poset(r.size, r.up).down
