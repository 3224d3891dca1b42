"""N-algebras, top frames, duality, and algebraic filtration."""

import itertools
import random

import pytest

from subminimal.algebra import (
    NAlgebra,
    TopFrame,
    admissible_algebra,
    algebra_corpus,
    algebra_eval,
    algebra_from_dict,
    algebra_to_dict,
    check_nalgebra,
    check_topframe,
    dual_frame,
    duality_check,
    element_hat,
    enumerate_topframes,
    general_algebraic_filtration,
    least_filtration_correspondence,
    nalgebra_isomorphic,
    prime_filters,
    subdirectly_irreducible,
    sublattice_filtration,
    topframe_from_dict,
    topframe_isomorphic,
    topframe_to_dict,
    upset_algebra,
)
from subminimal.filtration import close_sigma
from subminimal.frames import (
    NFrame,
    Poset,
    check_nframe,
    enumerate_ntables,
    enumerate_posets,
    ntable_from_upset_map,
    random_nframe,
    random_ntable,
)
from subminimal.syntax import parse

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
    hit = check_nalgebra(bad)
    assert hit is not None


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
            assert tf.ntable[element_hat(a, filters, x)] == element_hat(
                a, filters, a.neg[x]
            )


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


def test_topframe_isomorphic_distinguishes():
    tf = dual_frame(ALG)
    assert topframe_isomorphic(tf, tf)
    other = TopFrame(CHAIN, (-1, -1, 2, 2))
    assert not topframe_isomorphic(tf, other)
