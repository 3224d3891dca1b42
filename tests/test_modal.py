"""NS4 frames, the lifted negation, the translation, and En/Rn."""

import copy
import hashlib
import itertools
import pickle
import random

import pytest

import mask_reference
import ns4_reference
from frame_helpers import random_nframe, random_poset
from modal_helpers import modal_nframe_to_dict, ns4_to_dict, random_modal_ntable, random_ns4_frame
from subminimal import kernels
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    _subfamilies,
    _trace_tables,
    check_nframe,
    enumerate_ntables,
    enumerate_posets,
    eval_formula,
    ntable_from_upset_map,
)
from subminimal.modal import (
    AXIOM_BBOX_CONTRA,
    AXIOM_BBOX_PERSIST,
    COS4_AXIOMS,
    ModalNFrame,
    NS4Frame,
    NS4Model,
    NS4_AXIOMS,
    _box_conj_norm,
    cos4_check_frame,
    en_check,
    enumerate_ns4_frames,
    enumerate_preorders,
    lift_nstar,
    modal_nframe_from_dict,
    ns4_check_frame,
    ns4_eval,
    ns4_frame_validates,
    ns4_from_dict,
    ns4_refuting_valuation,
    rn_validity,
    translation_gap_search,
    translation_preservation,
)
from subminimal.syntax import AXIOM_N, godel_translate, parse
from syntax_helpers import random_formula

CHAIN = Poset.from_pairs(2, [(0, 1)])
SEPARATING = NFrame(CHAIN, ntable_from_upset_map(CHAIN, {0: 2, 2: 3, 3: 2}))
HAND = NS4Frame(2, (1, 2), (2, 2, 2, 2))


def M(s):
    return parse(s, "modal")


def test_ns4_frame_requires_a_preorder():
    with pytest.raises(ValueError):
        NS4Frame(2, (3, 1), (0, 0, 0, 0))


def test_the_axiom_searches_of_a_frame_build_its_cone_lists_once(monkeypatch):
    built = []
    build = kernels._cones

    def cones(up, n):
        built.append(tuple(up))
        return build(up, n)

    monkeypatch.setattr(kernels, "_cones", cones)
    # the 3-chain, N(X) the worlds whose cone lies inside X
    fr = NS4Frame(3, (7, 6, 4), (0, 0, 0, 0, 4, 4, 6, 7))
    assert all(ns4_frame_validates(fr, ax) for ax in NS4_AXIOMS.values())
    assert ns4_eval(NS4Model(fr, {"p": 6}), M("[n]p & []p")) == 6
    assert built == [(7, 6, 4)]


def test_ns4_frame_rel_compares_pickles_and_copies_as_the_plain_tuple():
    # a frame whose search kept its cone lists pickles as a fresh one
    rel, table = (7, 6, 4), (0, 0, 0, 0, 4, 4, 6, 7)
    fr = NS4Frame(3, rel, table)
    assert ns4_frame_validates(fr, AXIOM_BBOX_PERSIST)
    assert vars(fr.rel)
    assert fr.rel == rel and hash(fr.rel) == hash(rel) and repr(fr) == repr(NS4Frame(3, rel, table))
    assert pickle.dumps(fr) == pickle.dumps(NS4Frame(3, rel, table))
    for clone in (copy.copy(fr), copy.deepcopy(fr), pickle.loads(pickle.dumps(fr))):
        assert clone == fr and hash(clone) == hash(fr)
        assert clone.rel == rel and vars(clone.rel) == {}


def test_lift_of_the_separating_frame_is_lawful():
    lifted = lift_nstar(SEPARATING)
    assert ns4_check_frame(lifted) is None
    for u in (0, 2, 3):
        assert lifted.ntable[u] == SEPARATING.ntable[u]


def test_ns4_check_frame_flags_a_mutation():
    lifted = lift_nstar(SEPARATING)
    bad = NS4Frame(
        2,
        lifted.rel,
        tuple(1 if x == 1 else v for x, v in enumerate(lifted.ntable)),
    )
    assert ns4_check_frame(bad) == ("value", 1)


def test_ns4_eval_hand_values():
    assert ns4_eval(NS4Model(lift_nstar(SEPARATING), {"p": 1}), M("[]T")) == 3
    assert ns4_check_frame(HAND) is None
    assert ns4_eval(NS4Model(HAND, {"p": 1}), M("[n]p")) == 2
    assert ns4_eval(NS4Model(HAND, {"p": 1}), M("[]p")) == 1
    assert ns4_eval(NS4Model(HAND, {"p": 1}), M("~p")) == 2


def test_all_two_world_frames_validate_the_axioms():
    frames = enumerate_ns4_frames(2)
    assert len(frames) == 82
    for fr in frames:
        for ax in NS4_AXIOMS.values():
            assert ns4_frame_validates(fr, ax)


def test_exhaustive_enumeration_is_guarded():
    with pytest.raises(ValueError, match="infeasible past 2 worlds"):
        enumerate_ns4_frames(3)


def test_ns4_enumeration_matches_the_table_filter():
    for n in (0, 1, 2):
        assert enumerate_ns4_frames(n) == ns4_reference.enumerate_ns4_frames(n)


def test_random_ns4_frame_matches_the_cluster_loop():
    for seed in (50, 54, 21, 20267, 7):
        new, old = random.Random(seed), random.Random(seed)
        for n in range(6):
            for _ in range(60):
                assert random_ns4_frame(new, n) == ns4_reference.random_ns4_frame(old, n)
        assert new.getstate() == old.getstate()


def test_three_world_trace_tables_are_lawful_and_hold_every_lift():
    subsets = range(8)
    tables = {rel: set(_trace_tables(rel, subsets, _subfamilies)) for rel in enumerate_preorders(3)}
    assert len(tables) == 29
    assert sum(map(len, tables.values())) == 9806
    for rel, found in tables.items():
        for table in found:
            assert kernels.ns4_table_violation(3, rel, table) == -1
    lifts = [lift_nstar(NFrame(p, t)) for p in enumerate_posets(3) for t in enumerate_ntables(p)]
    assert len(lifts) == 1282
    for fr in lifts:
        assert fr.ntable in tables[fr.rel]


def test_trace_tables_keep_their_order():
    # a digest of every table, in the order the trace recursion yields
    # them, frozen from the nested-closure recursion it replaced: on
    # each preorder of up to 3 worlds over all subsets and each poset of
    # up to 4 worlds over its upsets. The test above checks the sets
    # alone, and the coin-flip draws meet ns4_reference in
    # test_random_ns4_frame_matches_the_cluster_loop
    digest = hashlib.sha256()
    count = 0
    for n in range(4):
        for rel in enumerate_preorders(n):
            tables = _trace_tables(rel, range(1 << n), _subfamilies)
            count += len(tables)
            digest.update(repr(tables).encode())
    for n in range(5):
        for p in enumerate_posets(n):
            tables = _trace_tables(p.up, p.upsets(), _subfamilies)
            count += len(tables)
            digest.update(repr(tables).encode())
    assert count == 99712
    assert digest.hexdigest() == "0a5b503dbf1b0f17c26883bec6f62f43befb060bf92855d02b46c7dde15e5816"


def test_preorders_keep_the_relation_loop_order():
    counts = []
    for n in range(5):
        got = enumerate_preorders(n)
        assert got == mask_reference.enumerate_preorders(n)
        counts.append(len(got))
    assert counts == [1, 1, 4, 29, 355]


def test_random_frames_are_lawful_and_sound():
    rng = random.Random(50)
    for _ in range(100):
        fr = random_ns4_frame(rng, 3)
        assert ns4_check_frame(fr) is None
        for ax in NS4_AXIOMS.values():
            assert ns4_frame_validates(fr, ax)


def test_bbox_reflexivity_is_not_a_theorem():
    assert any(
        not ns4_frame_validates(fr, M("[n]p -> p"))
        for fr in enumerate_ns4_frames(2)
    )
    assert ns4_refuting_valuation(HAND, M("[n]p -> p")) == ({"p": 0}, 1)


def test_lift_extends_the_table_on_random_frames():
    rng = random.Random(51)
    for _ in range(200):
        g = random_nframe(rng, rng.randrange(1, 4))
        lifted = lift_nstar(g)
        assert ns4_check_frame(lifted) is None
        for u in g.poset.upsets():
            assert lifted.ntable[u] == g.ntable[u]


def _upset_valued_frame(rng, n):
    """A random poset with any upset at each upset: rarely local."""
    p = random_poset(rng, n)
    ups = p.upsets()
    table = [-1] * (1 << n)
    for u in ups:
        table[u] = rng.choice(ups)
    return NFrame(p, tuple(table))


def test_lift_keeps_exactly_the_local_tables_on_upsets():
    # N(X) lies in N*(X) on every upset X, with equality for a local
    # table (the proof is in lift_nstar's docstring); NFrame also takes
    # tables that are not local, and the lift can grow those
    swept = 0
    for n in range(4):
        for p in enumerate_posets(n):
            for t in enumerate_ntables(p):
                lifted = lift_nstar(NFrame(p, t)).ntable
                assert all(lifted[u] == t[u] for u in p.upsets()), (p, t)
                swept += 1
    assert swept == 1 + 4 + 46 + 1282
    antichain = Poset(2, [1, 2])
    assert lift_nstar(NFrame(antichain, (1, 1, 2, 2))).ntable == (1, 1, 3, 3)
    rng = random.Random(54)
    grown = 0
    for _ in range(300):
        g = _upset_valued_frame(rng, rng.randint(1, 3))
        lifted = lift_nstar(g).ntable
        assert all(g.ntable[u] & ~lifted[u] == 0 for u in g.poset.upsets())
        grown += any(lifted[u] != g.ntable[u] for u in g.poset.upsets())
    assert grown > 100, grown


def test_translated_base_axiom_matches_the_proof_goal():
    goal = M("[](([]([]p <-> []q)) -> []([n][]p <-> [n][]q))")
    assert _box_conj_norm(godel_translate(AXIOM_N)) == _box_conj_norm(goal)


def test_translation_preservation_fuzz():
    rng = random.Random(52)
    for _ in range(300):
        g = random_nframe(rng, rng.randrange(1, 5))
        names = ["p", "q"][: rng.randrange(1, 3)]
        upsets = g.poset.upsets()
        val = {nm: rng.choice(upsets) for nm in names}
        f = random_formula(rng, names, 3)
        assert translation_preservation(NModel(g, val), f) is None


def _composed_preservation(m, f):
    """translation_preservation as the composition it was: f in the
    model, the built translation in the lifted model."""
    prop = eval_formula(m, f)
    modal = ns4_eval(NS4Model(lift_nstar(m.frame), dict(m.valuation)), godel_translate(f))
    diff = prop ^ modal
    return None if diff == 0 else (diff & -diff).bit_length() - 1


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the errors must match too
        return ("err", type(exc).__name__, str(exc))


def test_translation_preservation_matches_the_built_translation():
    # lawful frames, where the two agree, and upset-valued tables that
    # are rarely local, where the lift differs from the table and the
    # translation can fail to preserve truth
    rng = random.Random(55)
    found = 0
    for _ in range(1500):
        n = rng.randint(1, 4)
        g = random_nframe(rng, n) if rng.random() < 0.4 else _upset_valued_frame(rng, n)
        names = ["p", "q"][: rng.randint(1, 2)]
        ups = g.poset.upsets()
        m = NModel(g, {nm: rng.choice(ups) for nm in names})
        f = random_formula(rng, names, rng.randint(0, 3))
        want = _composed_preservation(m, f)
        assert translation_preservation(m, f) == want, (g, m.valuation, f)
        found += want is not None
    assert found > 50, found


def test_translation_preservation_keeps_the_built_translations_answers_and_errors():
    chain = Poset(2, [3, 2])
    frame = NFrame(chain, (0, -1, 2, 2))
    # a valuation changed after the model checked it: p holds at world 0
    # only, not an upset; the translation reads []p, which is empty
    m = NModel(frame, {"p": 3})
    m.valuation["p"] = 1
    assert translation_preservation(m, parse("p")) == 0 == _composed_preservation(m, parse("p"))
    cases = [
        (NModel(frame, {"p": 3}), parse("p -> q")),
        (NModel(frame, {"p": 3}), M("[]p")),
        (NModel(frame, {"p": 3}), M("F")),
    ]
    for mask in (4, -1):
        bad = NModel(frame, {"p": 3, "q": 2})
        bad.valuation["q"] = mask
        cases += [(bad, parse("p")), (bad, parse("~q"))]
    errors = set()
    for model, f in cases:
        want = _outcome(_composed_preservation, model, f)
        assert _outcome(translation_preservation, model, f) == want, (model.valuation, f)
        errors.add(want[1:])
    assert errors == {
        ("ValueError", "model does not value variable q"),
        ("ValueError", "box in a propositional compilation"),
        ("ValueError", "falsum in a propositional compilation"),
        ("ValueError", "truth set of q out of range"),
        ("IndexError", "tuple index out of range"),
    }, errors


def test_translation_gap_search_clean_on_small_frames():
    for n in (1, 2):
        for p in enumerate_posets(n):
            for t in enumerate_ntables(p):
                assert translation_gap_search(NFrame(p, t), 3) is None
    rng = random.Random(53)
    for _ in range(50):
        assert translation_gap_search(random_nframe(rng, 3), 3) is None


def test_translation_gap_search_finds_no_gap_exactly_on_local_tables():
    # on upset-valued tables the gap search settles at its first round,
    # where N meets its lift on the upsets: None exactly when the
    # locality law holds (translation_gap_search's docstring)
    rng = random.Random(55)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(0, 4)
        if rng.random() < 0.5:
            fr = random_nframe(rng, n)
        else:
            fr = _upset_valued_frame(rng, n)
        local = check_nframe(fr.poset, fr.ntable) is None
        assert (translation_gap_search(fr, 3) is None) == local, fr
        seen[local] += 1
    assert min(seen.values()) >= 500, seen


def test_en_matches_rn_on_all_two_world_tables():
    for values in itertools.product(range(4), repeat=4):
        fr = ModalNFrame(2, values)
        for k in range(3):
            assert en_check(fr, k) == rn_validity(fr, k)


def test_en_rn_at_a_huge_arity_equal_arity_two_to_the_n():
    # an intersection of k >= 4 of the four table values repeats some,
    # so it is also one of exactly 4, and the other way round
    for values in itertools.product(range(4), repeat=4):
        fr = ModalNFrame(2, values)
        assert en_check(fr, 1000) == en_check(fr, 4)
        assert rn_validity(fr, 1000) == rn_validity(fr, 4)


def test_en_rn_match_a_fresh_scan_at_every_arity():
    # the frame keeps the k = 1 answer; every arity must still read what
    # a fresh en_holds gives, on all 2-world tables and random 3- and
    # 4-world ones
    rng = random.Random(2612)
    tables = list(itertools.product(range(4), repeat=4))
    tables += [tuple(rng.randrange(8) for _ in range(8)) for _ in range(300)]
    tables += [tuple(rng.randrange(16) for _ in range(16)) for _ in range(100)]
    answers = set()
    for values in tables:
        n = len(values).bit_length() - 1
        fr = ModalNFrame(n, values)
        for k in range(4):
            want = bool(kernels.en_holds(n, list(values), k))
            assert en_check(fr, k) is want and rn_validity(fr, k) is want, (values, k)
            answers.add(want)
        assert fr == ModalNFrame(n, values) and hash(fr) == hash(ModalNFrame(n, values))
        assert repr(fr) == repr(ModalNFrame(n, values))
    assert answers == {False, True}


def test_en_rn_scan_each_frame_once(monkeypatch):
    calls = []

    def counted(n, ntable, k):
        calls.append(k)
        return 0

    monkeypatch.setattr(kernels, "en_holds", counted)
    monkeypatch.setattr(kernels, "rn_holds", counted)
    fr = ModalNFrame(2, (1, 0, 3, 2))
    assert [(en_check(fr, k), rn_validity(fr, k)) for k in range(4)] == [(True, True)] + [(False, False)] * 3
    assert calls == [1]


def test_en_rn_reject_negative_arity():
    fr = ModalNFrame(1, (0, 0))
    with pytest.raises(ValueError):
        en_check(fr, -1)
    with pytest.raises(ValueError):
        rn_validity(fr, -1)


def test_cos4_hand_frames():
    assert cos4_check_frame(NS4Frame(2, (3, 2), (3, 3, 3, 3)))
    assert not cos4_check_frame(NS4Frame(2, (3, 2), (0, 0, 2, 3)))


def test_cos4_classification_on_two_worlds():
    frames = enumerate_ns4_frames(2)
    good = [fr for fr in frames if cos4_check_frame(fr)]
    assert len(good) == 29
    for fr in good:
        assert ns4_frame_validates(fr, AXIOM_BBOX_CONTRA)
        for ax in COS4_AXIOMS.values():
            assert ns4_frame_validates(fr, ax)
    # the check is exactly antitone table + antisymmetric order
    for fr in frames:
        anti = all(
            not (fr.ntable[y] & ~fr.ntable[x])
            for y in range(4)
            for x in range(4)
            if x & ~y == 0
        )
        po = all(
            not ((fr.rel[v] >> w) & 1) or v == w
            for w in range(2)
            for v in range(2)
            if (fr.rel[w] >> v) & 1
        )
        assert cos4_check_frame(fr) == (anti and po)


def test_ns4_json_round_trip():
    assert ns4_from_dict(ns4_to_dict(HAND)) == HAND
    rng = random.Random(54)
    for _ in range(30):
        fr = random_ns4_frame(rng, rng.randint(1, 3))
        assert ns4_from_dict(ns4_to_dict(fr)) == fr


def test_ns4_from_dict_validation():
    with pytest.raises(ValueError, match="out of range"):
        ns4_from_dict({"worlds": 2, "rel": [[0, 5]], "N": {"0": 0}})
    with pytest.raises(ValueError, match="cover every subset"):
        ns4_from_dict({"worlds": 2, "rel": [], "N": {"0": 0}})


def test_ns4_from_dict_closes_the_relation():
    fr = ns4_from_dict(
        {
            "worlds": 3,
            "rel": [[0, 1], [1, 2]],
            "N": {str(x): 0 for x in range(8)},
        }
    )
    assert (fr.rel[0] >> 2) & 1


def test_modal_nframe_json_round_trip():
    rng = random.Random(55)
    for _ in range(30):
        fr = random_modal_ntable(rng, rng.randint(1, 3))
        assert modal_nframe_from_dict(modal_nframe_to_dict(fr)) == fr


def test_ns4_model_names_an_unvalued_variable():
    m = NS4Model(NS4Frame(1, (1,), (0, 0)), {})
    with pytest.raises(ValueError, match="model has no valuation for p"):
        m.val("p")
    with pytest.raises(ValueError, match="model has no valuation for p"):
        ns4_eval(m, parse("p", "modal"))
