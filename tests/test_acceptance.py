"""Acceptance gate: ten end-to-end checks, one per headline claim.

Each test prints a single pass line with its runtime. The three
checks with a stated budget assert it; the rest finish in seconds.
"""

import itertools
import random
import time

import kernel_reference as ref
from conftest import load_fixture, proof_mutations
from frame_helpers import element_hat

from subminimal.algebra import (
    algebra_corpus,
    dual_frame,
    duality_check,
    enumerate_topframes,
    least_filtration_correspondence,
    prime_filters,
)
from subminimal.antichain import (
    VARIANTS,
    build_delta,
    comparison_matrix,
    extend_positive,
    n_variant,
    positive_morphism,
    theta_refutation_check,
    verify_order_onto,
)
from subminimal.filtration import (
    close_sigma,
    filtration_theorem_check,
    greatest_filtration,
)
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    check_nframe,
    countermodel_search,
    enumerate_ntables,
    enumerate_posets,
    enumerate_posets_unlabeled,
    eval_formula,
    frame_class,
    nframe_isomorphic,
    ntable_from_upset_map,
    random_nframe,
)
from subminimal.modal import (
    ModalNFrame,
    NS4_AXIOMS,
    check_proof,
    en_check,
    enumerate_ns4_frames,
    ns4_frame_validates,
    proof_from_list,
    random_modal_ntable,
    random_ns4_frame,
    rn_validity,
    translation_gap_search,
    translation_preservation,
)
from subminimal.syntax import (
    AXIOM_COPC,
    AXIOM_MPC,
    AXIOM_NEF,
    LOGICS,
    parse,
)
from syntax_helpers import random_formula


def _report(number, label, started):
    elapsed = time.monotonic() - started
    print(f"acceptance {number} ({label}): pass in {elapsed:.1f}s")
    return elapsed


def test_acceptance_01_separation_chain():
    started = time.monotonic()
    jobs = [
        ("nef", AXIOM_COPC, "copc"),
        ("n", AXIOM_NEF, "nef"),
        ("copc", AXIOM_MPC, "mpc"),
    ]
    witnesses = {}
    for weaker, axiom, stronger in jobs:
        found = countermodel_search(LOGICS[weaker], axiom, max_worlds=4)
        assert found is not None, f"no {weaker} frame refutes the {stronger} axiom"
        model, world = found
        assert model.frame.n <= 4
        assert frame_class(model.frame, LOGICS[weaker])
        assert not frame_class(model.frame, LOGICS[stronger])
        mask = eval_formula(model, axiom)
        assert not (mask >> world) & 1, "witness does not refute on re-evaluation"
        witnesses[weaker] = model
    known = Poset.from_pairs(2, [(0, 1)])
    expected = NFrame(known, ntable_from_upset_map(known, {0: 2, 2: 3, 3: 2}))
    assert witnesses["nef"].frame.n == 2
    assert nframe_isomorphic(witnesses["nef"].frame, expected)
    assert _report(1, "separation chain", started) < 60


def test_acceptance_02_filtration_theorem_fuzz():
    started = time.monotonic()
    rng = random.Random(20262)
    for _ in range(10_000):
        fr = random_nframe(rng, rng.randint(1, 5))
        upsets = list(fr.poset.upsets())
        names = ["p", "q"][: rng.randint(1, 2)]
        model = NModel(fr, {name: rng.choice(upsets) for name in names})
        sigma = close_sigma([random_formula(rng, names, 3)])
        result = greatest_filtration(model, sigma)
        assert filtration_theorem_check(model, result) is None
        assert result.quotient.frame.n <= 2 ** len(sigma)
    assert _report(2, "filtration theorem, 10^4 cases", started) < 120


def test_acceptance_03_algebraic_filtration_correspondence():
    started = time.monotonic()
    sigmas = [close_sigma([parse(s)]) for s in ("p", "~p", "p & q", "p -> q")]
    assert all(len(sigma) <= 3 for sigma in sigmas)
    cases = 0
    for algebra in algebra_corpus(3):
        for x, y in itertools.product(range(algebra.size), repeat=2):
            for sigma in sigmas:
                assert least_filtration_correspondence(
                    algebra, {"p": x, "q": y}, sigma
                )
                cases += 1
    assert cases == 28_900
    _report(3, f"filtration correspondence, {cases} cases", started)


def test_acceptance_04_duality_both_directions():
    started = time.monotonic()
    topframes = [
        tf
        for n in range(1, 4)
        for p in enumerate_posets(n)
        if p.top() is not None
        for tf in enumerate_topframes(p)
    ]
    assert len(topframes) == 147
    for tf in topframes:
        assert duality_check(tf)
    corpus = [a for a in algebra_corpus(3) if a.size <= 8]
    assert len(corpus) == 271
    for algebra in corpus:
        assert duality_check(algebra)
        filters = prime_filters(algebra)
        tf = dual_frame(algebra)
        for x in range(algebra.size):
            hat_negated = element_hat(filters, algebra.neg[x])
            assert tf.ntable[element_hat(filters, x)] == hat_negated
    _report(4, "duality round trips", started)


def test_acceptance_05_antichain_and_extension():
    started = time.monotonic()
    matrix = comparison_matrix(3)
    for i in range(4):
        for j in range(4):
            assert matrix["onto"][i][j] is (i == j)
    for i in range(3):
        for j in range(3):
            assert matrix["positive"][i][j] is (i == j)
    posets = [p for k in range(1, 7) for p in enumerate_posets_unlabeled(k)]
    topped = [p for p in posets if p.top() is not None]
    pairs = extensions = 0
    for target in topped:
        for source in posets:
            pairs += 1
            partial = positive_morphism(target, source)
            if partial is None:
                continue
            extensions += 1
            total = extend_positive(target, source, partial)
            assert verify_order_onto(target, source, total)
    assert pairs == 35_640
    assert extensions == 2_384
    assert _report(5, "antichain and extension sweep", started) < 600


def test_acceptance_06_ladder_variants():
    started = time.monotonic()
    for n in range(4):
        delta = build_delta(n)
        upsets = list(delta.poset.upsets())
        for name in VARIANTS:
            fr = n_variant(delta, name)
            assert check_nframe(fr.poset, fr.ntable) is None
        nef = n_variant(delta, "nef")
        assert frame_class(nef, LOGICS["nef"])
        copc = n_variant(delta, "copc")
        for u in upsets:
            for v in upsets:
                if u & ~v == 0:
                    assert copc.ntable[v] & ~copc.ntable[u] == 0
        assert theta_refutation_check(delta, "base")
        assert theta_refutation_check(delta, "nef")
    _report(6, "ladder variants", started)


def test_acceptance_07_ns4_soundness():
    started = time.monotonic()
    two_world = enumerate_ns4_frames(2)
    assert len(two_world) == 82
    for fr in two_world:
        for name, axiom in NS4_AXIOMS.items():
            assert ns4_frame_validates(fr, axiom), name
    rng = random.Random(20267)
    for _ in range(1_000):
        fr = random_ns4_frame(rng, 3)
        for name, axiom in NS4_AXIOMS.items():
            assert ns4_frame_validates(fr, axiom), name
    _report(7, "bi-modal soundness", started)


def test_acceptance_08_translation_preservation():
    started = time.monotonic()
    swept = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for table in enumerate_ntables(p):
                assert translation_gap_search(NFrame(p, table), 3) is None
                swept += 1
    assert swept == 89_818
    rng = random.Random(20268)
    for _ in range(10_000):
        fr = random_nframe(rng, rng.randint(1, 4))
        upsets = list(fr.poset.upsets())
        names = ["p", "q"][: rng.randint(1, 2)]
        model = NModel(fr, {name: rng.choice(upsets) for name in names})
        f = random_formula(rng, names, 3)
        assert translation_preservation(model, f) is None
    _report(8, f"translation preserved on {swept} frames + fuzz", started)


def test_acceptance_09_en_rn_equivalence():
    # rn_validity runs the EN kernel, so the claim itself is checked by
    # the plain loops of kernel_reference: every guard choice, and every
    # pair q, r for the rule
    started = time.monotonic()
    rng = random.Random(20269)
    frames = [ModalNFrame(2, raw) for raw in itertools.product(range(4), repeat=4)]
    frames += [random_modal_ntable(rng, 3) for _ in range(1_000)]
    for fr in frames:
        for k in range(3):
            en = en_check(fr, k)
            assert en is rn_validity(fr, k)
            assert ref.en_holds(fr.n, fr.ntable, k) == ref.rn_holds(fr.n, fr.ntable, k) == en
    _report(9, "intersection law matches the rule", started)


def test_acceptance_10_proof_fixtures():
    started = time.monotonic()
    fixtures = [
        ("proof_cong.json", "ns4"),
        ("proof_rule1.json", "ns4"),
        ("proof_contra.json", "cos4"),
    ]
    for name, system in fixtures:
        items = load_fixture(name)
        proof = proof_from_list(items, system)
        assert check_proof(proof) is None, name
        mutations = proof_mutations(items, limit=20)
        assert len(mutations) == 20
        for label, mutated in mutations:
            broken = proof_from_list(mutated, system)
            assert check_proof(broken) is not None, f"{name}: {label} slipped through"
    _report(10, "proof fixtures and mutations", started)
