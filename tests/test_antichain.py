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
    # positive_morphism keeps the search's set-up with each poset's
    # cones; on fresh lists the kernel builds it per call, and every
    # pair, asked twice, must give the witness of the fresh call
    from subminimal import kernels
    from subminimal.frames import enumerate_posets_unlabeled

    all_posets = [p for k in range(1, 6) for p in enumerate_posets_unlabeled(k)]
    topped = [p for p in all_posets if p.top() is not None]
    hits = 0
    for _ in range(2):
        for tgt in topped:
            for src in all_posets:
                found = kernels.search_positive_morphism(tgt.n, list(tgt.up), src.n, list(src.up))
                want = None
                if found is not None:
                    dom, flat = found
                    want = {w: flat[w] for w in range(src.n) if (dom >> w) & 1}
                    hits += 1
                assert positive_morphism(tgt, src) == want, (tgt, src)
    assert len(topped) * len(all_posets) == 25 * 87
    assert 0 < hits < 2 * 25 * 87
    assert all(vars(p.up) for p in all_posets)


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
