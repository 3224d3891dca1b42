"""The two-ladder poset family, its morphism facts, and the variants."""

import pytest

from subminimal.antichain import (
    VARIANTS,
    antichain_check,
    build_delta,
    comparison_matrix,
    delta_cover_pairs,
    extend_positive,
    n_variant,
    order_onto,
    positive_morphism,
    theta_refutation_check,
    verify_order_onto,
    verify_positive_morphism,
)
from subminimal.frames import (
    LOGICS,
    Poset,
    check_nframe,
    frame_class,
)

TWO = Poset.from_pairs(2, [(0, 1)])
THREE = Poset.from_pairs(3, [(0, 1), (1, 2)])

# cover relations of the first three family members, straight from the
# drawn ladders: two descending chains joined below a common root, tied
# by the cross rungs, meeting again in a common bottom
DRAWN = {
    0: [
        ("w", "x2"),
        ("w", "y1"),
        ("x1", "x0"),
        ("x2", "x1"),
        ("y1", "y0"),
        ("x0", "t"),
        ("y0", "t"),
        ("y1", "x0"),
    ],
    1: [
        ("w", "x3"),
        ("w", "y2"),
        ("x3", "x2"),
        ("x2", "x1"),
        ("x1", "x0"),
        ("y2", "y1"),
        ("y1", "y0"),
        ("x0", "t"),
        ("y0", "t"),
        ("y1", "x0"),
        ("y2", "x1"),
        ("x2", "y1"),
    ],
    2: [
        ("w", "x4"),
        ("w", "y3"),
        ("x4", "x3"),
        ("x3", "x2"),
        ("x2", "x1"),
        ("x1", "x0"),
        ("y3", "y2"),
        ("y2", "y1"),
        ("y1", "y0"),
        ("x0", "t"),
        ("y0", "t"),
        ("y1", "x0"),
        ("y2", "x1"),
        ("y3", "x2"),
        ("x2", "y1"),
        ("x3", "y2"),
    ],
}


def cover_pairs(p):
    out = []
    for u in range(p.n):
        for v in range(p.n):
            if u != v and p.le(u, v):
                if not any(
                    z != u and z != v and p.le(u, z) and p.le(z, v)
                    for z in range(p.n)
                ):
                    out.append((u, v))
    return sorted(out)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_family_member_matches_the_drawing(n):
    d = build_delta(n)
    assert d.poset.n == 2 * n + 7
    assert d.root == 0
    assert d.top == 2 * n + 6
    labeled = sorted((d.labels[a], d.labels[b]) for a, b in DRAWN[n])
    assert cover_pairs(d.poset) == labeled
    assert (
        sorted((d.labels[a], d.labels[b]) for a, b in delta_cover_pairs(n))
        == labeled
    )


def test_build_delta_rejects_negative_index():
    with pytest.raises(ValueError, match="starts at index 0"):
        build_delta(-1)


def test_order_onto_on_chains():
    assert order_onto(TWO, TWO) == [0, 1]
    assert order_onto(TWO, THREE) == [0, 0, 1]
    assert order_onto(THREE, TWO) is None
    assert verify_order_onto(TWO, THREE, [0, 0, 1])
    assert not verify_order_onto(TWO, THREE, [1, 0, 1])
    assert not verify_order_onto(TWO, THREE, [0, 0, 0])


def test_comparison_matrix_is_diagonal():
    mat = comparison_matrix(2)
    assert mat["indices"] == [0, 1, 2]
    assert mat["onto"] == [
        [True, False, False],
        [False, True, False],
        [False, False, True],
    ]
    assert mat["positive"] == mat["onto"]


def test_antichain_check():
    assert antichain_check([build_delta(k).poset for k in range(3)])
    assert not antichain_check([TWO, THREE])
    assert antichain_check([TWO])


def test_positive_morphism_to_singleton():
    s = Poset(1, (1,))
    pm = positive_morphism(s, THREE)
    assert pm is not None
    assert verify_positive_morphism(s, THREE, pm)
    ext = extend_positive(s, THREE, pm)
    assert verify_order_onto(s, THREE, ext)


def test_extend_positive_needs_a_topped_target():
    fork = Poset.from_pairs(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="no greatest world"):
        extend_positive(fork, THREE, {0: 0})


def test_positive_morphisms_extend_to_onto_maps():
    # the extension lemma at small scale: whenever a positive morphism
    # into a topped poset exists, topping up the rest yields an onto map
    from subminimal.frames import enumerate_posets_unlabeled

    all_posets = [
        p for k in range(1, 5) for p in enumerate_posets_unlabeled(k)
    ]
    topped = [p for p in all_posets if p.top() is not None]
    pairs = hits = 0
    for tgt in topped:
        for src in all_posets:
            pm = positive_morphism(tgt, src)
            pairs += 1
            if pm is not None:
                hits += 1
                ext = extend_positive(tgt, src, pm)
                assert verify_order_onto(tgt, src, ext)
    assert pairs == 216
    assert hits == 65


def test_kept_search_set_up_keeps_every_witness():
    # positive_morphism keeps the search's set-up, the profiles included,
    # with each poset's cones; on fresh lists the kernel builds it per
    # call, and every pair, asked twice, must give the witness of the
    # fresh call: the small grid, the empty poset on either side, and
    # seeded pairs on 6 worlds (no 6-world poset is kept process-wide,
    # so each is built once here and asked twice)
    import random

    from subminimal import kernels
    from frame_helpers import random_poset
    from subminimal.frames import enumerate_posets_unlabeled

    all_posets = [p for k in range(1, 6) for p in enumerate_posets_unlabeled(k)]
    topped = [p for p in all_posets if p.top() is not None]
    empty = Poset(0, ())
    pairs = [(tgt, src) for tgt in topped + [empty] for src in all_posets + [empty]]
    rng = random.Random(173)
    six = [random_poset(rng, 6) for _ in range(40)]
    pairs += [(tgt, src) for tgt in six[:20] + topped[::5] for src in six[20:]]
    hits = 0
    for _ in range(2):
        for tgt, src in pairs:
            found = kernels.search_positive_morphism(tgt.n, list(tgt.up), src.n, list(src.up))
            want = None
            if found is not None:
                dom, flat = found
                want = {w: flat[w] for w in range(src.n) if (dom >> w) & 1}
                hits += 1
            assert positive_morphism(tgt, src) == want, (tgt, src)
    assert len(topped) * len(all_posets) == 25 * 87
    assert hits == 2 * 376
    assert all(vars(p.up) for p in all_posets + six + [empty])


def _corrupted_maps(rng, tgt, src, f):
    """Maps near the positive morphism f: a key or a value out of
    range, a value dropped from the image, each domain world removed
    (below another one, that leaves no downward-closed domain), each
    missing world added at each value, and single values moved, which
    breaks forth or back or neither."""
    first = min(f)
    out = [{**f, src.n: 0}, {**f, -1: 0}, {**f, first: tgt.n}, {**f, first: -1}]
    out.append(dict.fromkeys(f, f[first]))
    out += [{v: c for v, c in f.items() if v != w} for w in f]
    out += [{**f, u: c} for u in range(src.n) if u not in f for c in range(tgt.n)]
    out += [{**f, w: rng.randrange(tgt.n)} for w in rng.choices(sorted(f), k=6)]
    return out


def test_the_mask_verifiers_give_the_verdicts_of_the_pairwise_loops():
    # verify_order_onto and verify_positive_morphism read cone and
    # down-set masks; the pairwise loops they replaced, kept in
    # mask_reference, must give the same verdict on every map: the
    # witnesses of the small grid, their onto extensions, random maps
    # and the corruptions of each witness
    import random

    import mask_reference
    from subminimal.frames import enumerate_posets_unlabeled

    rng = random.Random(311)
    posets = [p for k in range(1, 5) for p in enumerate_posets_unlabeled(k)]
    verdicts = {"onto": [0, 0], "positive": [0, 0]}
    for tgt in posets:
        for src in posets:
            maps = [[rng.randrange(tgt.n) for _ in range(src.n)] for _ in range(4)]
            maps.append([rng.randrange(tgt.n + 1) for _ in range(src.n + rng.randint(-1, 1))])
            partials = [{w: c for w, c in enumerate(f) if rng.random() < 0.7} for f in maps[:4]]
            pm = positive_morphism(tgt, src)
            if pm is not None:
                partials += [pm, *_corrupted_maps(rng, tgt, src, pm)]
                if tgt.top() is not None:
                    maps.append(extend_positive(tgt, src, pm))
            for f in maps:
                got = verify_order_onto(tgt, src, f)
                assert got is mask_reference.verify_order_onto(tgt, src, f), (tgt, src, f)
                verdicts["onto"][got] += 1
            for f in partials:
                got = verify_positive_morphism(tgt, src, f)
                assert got is mask_reference.verify_positive_morphism(tgt, src, f), (tgt, src, f)
                verdicts["positive"][got] += 1
    assert verdicts == {"onto": [2689, 256], "positive": [3486, 679]}


def test_variant_names():
    assert VARIANTS == ("base", "nef", "sub_nef", "copc")
    with pytest.raises(ValueError):
        n_variant(build_delta(0), "classical")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_variants_are_lawful_frames(n):
    d = build_delta(n)
    for v in VARIANTS:
        fr = n_variant(d, v)
        assert check_nframe(fr.poset, fr.ntable) is None


@pytest.mark.parametrize("n", [0, 1, 2])
def test_variant_class_membership(n):
    d = build_delta(n)
    assert frame_class(n_variant(d, "nef"), LOGICS["nef"])
    assert frame_class(n_variant(d, "copc"), LOGICS["copc"])
    assert not frame_class(n_variant(d, "sub_nef"), LOGICS["nef"])
    assert frame_class(n_variant(d, "base"), LOGICS["nef"])
    assert frame_class(n_variant(d, "base"), LOGICS["copc"])


@pytest.mark.parametrize("n", [0, 1, 2])
def test_theta_refutation(n):
    d = build_delta(n)
    assert theta_refutation_check(d, "base")
    assert theta_refutation_check(d, "nef")


def test_theta_refutation_is_defined_for_base_and_nef_alone():
    with pytest.raises(ValueError, match="the refutation pattern is defined for base and nef"):
        theta_refutation_check(build_delta(0), "copc")
