"""Posets, N-frames, validity, enumeration, and the frame classes."""

import hashlib
import itertools
import random
import time
import types

import pytest

from conftest import outcome
from filtration_reference import eval_formula as reference_eval
from frame_helpers import enumerate_nframes, frame_validates, poset_isomorphic
from subminimal import frames, kernels
from subminimal.kernels import pure
from subminimal.algebra import TopFrame, topframe_from_dict
from subminimal.frames import (
    DEFAULT_MAX_WORLDS,
    LOGICS,
    NFrame,
    NModel,
    Poset,
    SearchTimeout,
    _class_frames,
    _class_members,
    _frame_stream,
    _orbit_least_frames,
    _pair_bit,
    _poset_classes,
    _relabeled_masks,
    canonical_poset_key,
    check_nframe,
    countermodel_search,
    enumerate_ntables,
    enumerate_posets,
    enumerate_posets_unlabeled,
    enumerate_upsets,
    eval_formula,
    formula_evaluator,
    frame_class,
    frame_from_dict,
    frame_to_dict,
    from_neighbourhood,
    model_from_dict,
    model_to_dict,
    nframe_isomorphic,
    ntable_from_upset_map,
    poset_from_dict,
    poset_to_dict,
    random_nframe,
    random_ntable,
    random_poset,
    refuting_valuation,
    to_neighbourhood,
    truth_sets,
)
from subminimal.modal import ModalNFrame, NS4Frame, modal_nframe_from_dict, ns4_from_dict
from subminimal.syntax import (
    AXIOM_COPC,
    AXIOM_MPC,
    AXIOM_N,
    AXIOM_NEF,
    Neg,
    parse,
    random_formula,
    show,
    subformula_closure,
)

CHAIN2 = Poset(2, (3, 2))
LAWFUL2 = ntable_from_upset_map(CHAIN2, {0: 2, 2: 3, 3: 2})
SEPARATING = NFrame(CHAIN2, ntable_from_upset_map(CHAIN2, {0: 2, 2: 3, 3: 2}))


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(2, (3,))
    with pytest.raises(ValueError):
        Poset(2, (2, 1))  # not reflexive
    with pytest.raises(ValueError):
        Poset(2, (3, 3))  # 0 <= 1 <= 0 without 0 = 1
    p = Poset.from_pairs(3, [(0, 1), (1, 2)])
    assert p.le(0, 2)
    assert not p.le(2, 0)


def test_upsets_of_chain_and_antichain():
    assert enumerate_upsets(CHAIN2) == [0, 2, 3]
    assert len(enumerate_upsets(Poset(3, (1, 2, 4)))) == 8
    assert len(enumerate_upsets(Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))) == 6


def _mask_walk_posets(n):
    """Every antisymmetric, transitive pair mask in ascending order: the
    reference the relabeled classes must reproduce."""
    pairs = list(itertools.permutations(range(n), 2))
    for mask in range(1 << n * (n - 1)):
        up = [1 << w for w in range(n)]
        for i, j in pairs:
            if (mask >> _pair_bit(i, j, n)) & 1:
                up[i] |= 1 << j
        antisymmetric = not any((up[i] >> j) & (up[j] >> i) & 1 for i, j in pairs)
        transitive = all(up[j] & ~up[i] == 0 for i, j in pairs if (up[i] >> j) & 1)
        if antisymmetric and transitive:
            yield Poset(n, up)


def test_posets_are_the_relabeled_classes():
    for n in range(5):
        assert list(enumerate_posets(n)) == list(_mask_walk_posets(n))


def test_labeled_enumeration_counts():
    assert [len(list(enumerate_posets(n))) for n in (1, 2, 3, 4, 5)] == [1, 3, 19, 219, 4231]
    assert [
        sum(len(enumerate_ntables(p)) for p in enumerate_posets(n))
        for n in (1, 2, 3)
    ] == [4, 46, 1282]


def test_ntables_are_the_lawful_upset_tables():
    # brute force: every upset-valued table, kept when locality holds
    seen = 0
    for n in (1, 2, 3):
        for p in enumerate_posets(n):
            upsets = p.upsets()
            if len(upsets) > 5:
                continue
            lawful = []
            for values in itertools.product(upsets, repeat=len(upsets)):
                table = ntable_from_upset_map(p, dict(zip(upsets, values)))
                if check_nframe(p, table) is None:
                    lawful.append(table)
            assert enumerate_ntables(p) == lawful
            seen += 1
    assert seen > 10


def test_unlabeled_enumeration_counts():
    assert [len(enumerate_posets_unlabeled(n)) for n in range(1, 7)] == [
        1,
        2,
        5,
        16,
        63,
        318,
    ]
    # the first grown representative of each class, in key order: the
    # antichain search indexes these posets, so they pin its witnesses
    assert [p.up for p in enumerate_posets_unlabeled(4)] == [
        (1, 2, 4, 8), (9, 2, 4, 8), (13, 2, 4, 8), (15, 2, 4, 8),
        (9, 10, 4, 8), (13, 2, 12, 8), (5, 10, 4, 8), (13, 10, 4, 8),
        (15, 10, 4, 8), (13, 14, 4, 8), (15, 14, 4, 8), (9, 10, 12, 8),
        (13, 10, 12, 8), (15, 10, 12, 8), (13, 14, 12, 8), (15, 14, 12, 8),
    ]
    # the same list for 5 and 6 worlds, as a SHA-256 digest of its repr
    digests = {
        5: "947eb443fe67ee694094193ebc273e2c322d2ba918a3f54bacc05a4abe52e003",
        6: "bd40db4d01f4f9baba5fb3d4fa56155b3302d509ec1e68f042e7a55bfbaac3cc",
    }
    for n, digest in digests.items():
        ups = [p.up for p in enumerate_posets_unlabeled(n)]
        assert hashlib.sha256(repr(ups).encode()).hexdigest() == digest, n


def test_check_nframe_accepts_lawful_table():
    assert check_nframe(CHAIN2, LAWFUL2) is None


def test_check_nframe_reports_first_violation():
    bad = ntable_from_upset_map(CHAIN2, {0: 0, 2: 0, 3: 3})
    assert check_nframe(CHAIN2, bad) == (3, 2)


def test_check_nframe_rejects_non_upset_values():
    with pytest.raises(ValueError):
        check_nframe(CHAIN2, (1, -1, 3, 2))


def test_ntable_from_upset_map_requires_full_domain():
    with pytest.raises(ValueError, match="misses upset 3"):
        ntable_from_upset_map(CHAIN2, {0: 2, 2: 3})
    with pytest.raises(ValueError, match="non-upset 1"):
        ntable_from_upset_map(CHAIN2, {0: 2, 1: 0, 2: 3, 3: 2})


def _entries(table):
    return {x: v for x, v in enumerate(table) if v != -1}


def _json_table(table):
    return {str(x): v for x, v in _entries(table).items()}


# Every table taker on the 2-chain 0 <= 1 (2 worlds, upsets 0, 2, 3):
# its domain's name, a table it accepts, and a call on a flat table.
# The readers of mappings get the table's entries other than -1.
TABLE_TAKERS = {
    "NFrame": ("upset", (2, -1, 3, 2), lambda t: NFrame(CHAIN2, t)),
    "ntable_from_upset_map": (
        "upset",
        (2, -1, 3, 2),
        lambda t: ntable_from_upset_map(CHAIN2, _entries(t)),
    ),
    "frame_from_dict": (
        "upset",
        (2, -1, 3, 2),
        lambda t: frame_from_dict({"worlds": 2, "leq": [[0, 1]], "N": _json_table(t)}),
    ),
    "TopFrame": ("admissible set", (-1, -1, 2, 2), lambda t: TopFrame(CHAIN2, t)),
    "topframe_from_dict": (
        "admissible set",
        (-1, -1, 2, 2),
        lambda t: topframe_from_dict({"worlds": 2, "leq": [[0, 1]], "N": _json_table(t)}),
    ),
    "NS4Frame": ("subset", (2, 2, 2, 2), lambda t: NS4Frame(2, (1, 2), t)),
    "ns4_from_dict": (
        "subset",
        (2, 2, 2, 2),
        lambda t: ns4_from_dict({"worlds": 2, "rel": [], "N": _json_table(t)}),
    ),
    "ModalNFrame": ("subset", (2, 2, 2, 2), lambda t: ModalNFrame(2, t)),
    "modal_nframe_from_dict": (
        "subset",
        (2, 2, 2, 2),
        lambda t: modal_nframe_from_dict({"worlds": 2, "N": _json_table(t)}),
    ),
}


def _malformed(kind, table):
    """(case, table, message) for the ways a table breaks the contract.
    A table one entry too long is, to a mapping reader, a key past the
    last subset. Every subset is in the domain of a total table, so
    there the entry off the domain is that same key and is not repeated."""
    out = [
        ("length", table + (0,), r"one entry per subset, 4, not 5|table key 4 out of range"),
        ("missing", table[:3] + (-1,), rf"misses {kind} 3"),
        ("range", table[:2] + (4,) + table[3:], rf"negation value 4 at {kind} 2 out of range"),
    ]
    if kind != "subset":
        out.append(("off-domain", (table[0], 0) + table[2:], rf"entry at non-{kind} 1$"))
    return out


@pytest.mark.parametrize(
    "taker, table, message",
    [
        pytest.param(name, bad, message, id=f"{name}-{case}")
        for name, (kind, good, _) in TABLE_TAKERS.items()
        for case, bad, message in _malformed(kind, good)
    ],
)
def test_every_table_taker_keeps_one_table_contract(taker, table, message):
    """NFrame, TopFrame, NS4Frame, ModalNFrame, ntable_from_upset_map
    and the four JSON readers accept their lawful table and reject each
    malformed one, naming the offending set."""
    _, good, call = TABLE_TAKERS[taker]
    call(good)
    with pytest.raises(ValueError, match=message):
        call(table)


def test_eval_formula_hand_values():
    m = NModel(SEPARATING, {"p": 2, "q": 0})
    assert eval_formula(m, parse("p")) == 2
    assert eval_formula(m, parse("~p")) == 3
    assert eval_formula(m, parse("~q")) == 2
    assert eval_formula(m, parse("p -> q")) == 0
    assert eval_formula(m, parse("T")) == 3


def _holey_model(rng):
    # table values at upsets are redrawn as any subset now and then, so
    # a negation of a negation can meet a -1 hole; some variables go unvalued
    fr = random_nframe(rng, rng.randint(1, 4))
    p = fr.poset
    if rng.random() < 0.5:
        table = list(fr.ntable)
        for u in p.upsets():
            if rng.random() < 0.6:
                table[u] = rng.randrange(1 << p.n)
        fr = NFrame(p, tuple(table))
    ups = p.upsets()
    return NModel(fr, {x: rng.choice(ups) for x in ("p", "q", "r") if rng.random() < 0.85})


def test_truth_sets_match_the_compiled_kernel():
    rng = random.Random(31)
    seen = {"ok": 0, "hole": 0, "missing": 0, "modal": 0}
    for _ in range(3000):
        m = _holey_model(rng)
        language = "modal" if rng.random() < 0.1 else "prop"
        f = random_formula(rng, ("p", "q", "r"), rng.randint(0, 4), language)
        if language == "prop" and rng.random() < 0.5:
            # a negation of a redrawn value meets a hole when that value is no upset
            f = Neg(Neg(f))
        want = outcome(reference_eval, m, f)
        assert outcome(eval_formula, m, f) == want
        if want[0] == "ok":
            seen["ok"] += 1
            truth = truth_sets(m, (f,))
            assert truth.keys() == subformula_closure(f)
            for g, value in truth.items():
                assert value == reference_eval(m, g)
        elif "undefined negation" in want[1]:
            seen["hole"] += 1
        elif "does not value" in want[1]:
            seen["missing"] += 1
        else:
            seen["modal"] += 1
    assert min(seen.values()) >= 50, seen


def test_truth_sets_error_is_the_least_over_all_formulas():
    m = NModel(SEPARATING, {"p": 2})
    with pytest.raises(ValueError, match="does not value variable q$"):
        truth_sets(m, [parse("r & ~s"), parse("p -> q")])
    # an unvalued variable comes before a modal node anywhere
    with pytest.raises(ValueError, match="does not value variable q$"):
        truth_sets(m, [parse("[]p", "modal"), parse("q")])
    with pytest.raises(ValueError, match="^box in a propositional compilation$"):
        truth_sets(m, [parse("p"), parse("[]p", "modal"), parse("[n]p", "modal")])


def test_formula_evaluator_matches_eval_formula_over_many_calls():
    # each formula is a temporary: were the memory to drop it, a later
    # formula could take its id and read its value
    rng = random.Random(37)
    for _ in range(100):
        m = _holey_model(rng)
        evaluate = formula_evaluator(m)
        for _ in range(30):
            text = show(random_formula(rng, ("p", "q", "r"), rng.randint(0, 3)))
            assert outcome(evaluate, parse(text)) == outcome(eval_formula, m, parse(text))


def test_separating_frame_classes():
    want = {"n": True, "nef": True, "copc": False, "mpc": False}
    got = {name: frame_class(SEPARATING, logic) for name, logic in LOGICS.items()}
    assert got == want


def test_frame_class_conditions_match_the_axioms():
    # frame_class reads NeF, CoPC and MPC off the table; on every labeled
    # frame up to 3 worlds and every 4-world stream frame it must agree
    # with validity of the axiom over all valuations
    small = list(_labeled_frames(3))
    four = [fr for fr in frames._frame_stream(4) if fr.n == 4]
    members = {name: 0 for name in ("nef", "copc", "mpc")}
    for fr in small + four:
        for name in members:
            logic = LOGICS[name]
            got = frame_class(fr, logic)
            assert got == frame_validates(fr, logic.axiom), (name, frame_to_dict(fr))
            members[name] += got
    assert len(small) + len(four) == 5562
    assert all(0 < count < 5562 for count in members.values()), members


def test_lawful_frames_validate_the_base_axiom():
    rng = random.Random(30)
    for _ in range(100):
        fr = random_nframe(rng, rng.randint(1, 4))
        assert frame_validates(fr, AXIOM_N)


def test_refuting_valuation_refutes():
    hit = refuting_valuation(SEPARATING, AXIOM_COPC)
    assert hit is not None
    val, world = hit
    full = 3
    assert eval_formula(NModel(SEPARATING, val), AXIOM_COPC) != full
    assert not (eval_formula(NModel(SEPARATING, val), AXIOM_COPC) >> world) & 1


def test_countermodel_search_separates_nef_from_copc():
    hit = countermodel_search(LOGICS["nef"], AXIOM_COPC, 4)
    assert hit is not None
    model, world = hit
    assert nframe_isomorphic(model.frame, SEPARATING)
    assert model.valuation == {"p": 0, "q": 2}
    assert world == 0


def test_countermodel_search_separates_n_from_nef():
    hit = countermodel_search(LOGICS["n"], AXIOM_NEF, 4)
    assert hit is not None
    model, world = hit
    assert model.frame.poset.n == 1
    full = (1 << model.frame.poset.n) - 1
    assert eval_formula(model, AXIOM_NEF) != full


def test_countermodel_search_refutes_mpc_axiom_in_copc():
    hit = countermodel_search(LOGICS["copc"], AXIOM_MPC, 4)
    assert hit is not None
    model, world = hit
    assert model.frame.poset.n == 1
    assert not (eval_formula(model, AXIOM_MPC) >> world) & 1


def test_countermodel_search_none_for_valid_formula():
    assert countermodel_search(LOGICS["n"], AXIOM_N, 3) is None


def test_countermodel_search_timeout():
    with pytest.raises(SearchTimeout, match="no verdict within the budget"):
        countermodel_search(LOGICS["n"], AXIOM_NEF, 4, deadline=time.time() - 1)


def test_search_timeout_says_how_far_it_got(monkeypatch):
    # a clock that ticks once per deadline check, one check per batch of
    # class frames, here one batch per poset class: checks 0..4 pass, so
    # 5 classes are tried, the 4 one-world frames, the 10 + 15 two-world
    # ones and the 20 + 60 of the first two 3-world classes
    ticks = itertools.count()
    monkeypatch.setattr(frames, "time", types.SimpleNamespace(time=lambda: next(ticks)))
    with pytest.raises(
        SearchTimeout,
        match=r"^no verdict within the budget: reached 3 worlds after trying 109 class frames$",
    ):
        countermodel_search(LOGICS["n"], AXIOM_N, 3, deadline=4)


def _uncached_stream(n):
    for size in range(1, n + 1):
        for key, _ in _poset_classes(size):
            yield from _orbit_least_frames(size, key)


def test_memoized_class_members_equal_the_uncached_build():
    uncached = list(_uncached_stream(DEFAULT_MAX_WORLDS))
    assert list(_frame_stream(DEFAULT_MAX_WORLDS)) == uncached
    classes = [
        (size, key) for size in range(1, DEFAULT_MAX_WORLDS + 1) for key, _ in _poset_classes(size)
    ]
    for size, key in classes:
        assert _class_frames(size, key) is _class_frames(size, key)
    for logic in LOGICS.values():
        members = [fr for size, key in classes for fr in _class_members(size, key, logic)]
        assert members == [fr for fr in uncached if frame_class(fr, logic)], logic.name


def test_search_on_a_warm_memo_repeats_its_witness():
    first = countermodel_search(LOGICS["copc"], AXIOM_MPC, 4)
    again = countermodel_search(LOGICS["copc"], AXIOM_MPC, 4)
    assert first is not None and again is not None
    assert (model_to_dict(again[0]), again[1]) == (model_to_dict(first[0]), first[1])
    with pytest.raises(SearchTimeout, match="no verdict within the budget"):
        countermodel_search(LOGICS["copc"], AXIOM_MPC, 4, deadline=time.time() - 1)


def test_five_world_classes_are_not_memoized(monkeypatch):
    # a stand-in kernel that refutes at the first position of the first
    # 5-world batch, so the search reaches 5 worlds without walking them
    def refute_at_five(code, nvars, n, up, tables, upsets):
        return 0 if n == 5 else -1

    monkeypatch.setattr(kernels, "find_refuting_valuation_prop", refute_at_five)
    model, _ = countermodel_search(LOGICS["n"], AXIOM_N, 5)
    assert model.frame.n == 5
    kept = [*frames._CLASS_FRAMES, *frames._CLASS_MEMBERS, *frames._CLASS_TABLES]
    assert kept and all(memo[0] <= DEFAULT_MAX_WORLDS for memo in kept)


@pytest.mark.parametrize("block, count", [(pure._BLOCK, 300), (64, 100)], ids=["wide", "narrow"])
def test_batched_search_keeps_the_frame_by_frame_witness(monkeypatch, block, count):
    # the reference: one kernel call per frame of the stream, in order,
    # each frame's result shared by the four logics; narrow blocks split
    # each class into blocks of a few frames, or of part of one
    monkeypatch.setattr(pure, "_BLOCK", block)
    rng = random.Random(37)
    past_first = 0
    for _ in range(count):
        f = random_formula(rng, ["p", "q"], 3)
        max_worlds = rng.randint(1, DEFAULT_MAX_WORLDS)
        hits = {}
        for logic in LOGICS.values():
            want = None
            for fr in _frame_stream(max_worlds):
                if frame_class(fr, logic):
                    if fr not in hits:
                        hits[fr] = refuting_valuation(fr, f)
                    if hits[fr] is not None:
                        want = model_to_dict(NModel(fr, hits[fr][0])), hits[fr][1]
                        break
            hit = countermodel_search(logic, f, max_worlds)
            got = None if hit is None else (model_to_dict(hit[0]), hit[1])
            assert got == want, (show(f), logic.name, max_worlds)
            if hit is not None:
                fr = hit[0].frame
                past_first += fr != _class_members(fr.n, canonical_poset_key(fr.poset), logic)[0]
    # witnesses past the first frame of their class, where the frame
    # order inside a batch decides
    assert past_first >= count // 10


def test_streamed_classes_come_in_block_sized_batches(monkeypatch):
    # the first 5-world class has 32 upsets, so a one-variable formula
    # puts 32 valuations on each frame and two frames fill 64 bits
    monkeypatch.setattr(pure, "_BLOCK", 64)
    key = _poset_classes(5)[0][0]
    batches = list(itertools.islice(frames._class_batches(5, key, LOGICS["n"], 1), 3))
    assert [len(batch) for batch, _ in batches] == [2, 2, 2]
    assert [fr for batch, _ in batches for fr in batch] == list(
        itertools.islice(_class_members(5, key, LOGICS["n"]), 6)
    )
    for batch, tables in batches:
        assert tables == tuple(fr.ntable for fr in batch)


def _labeled_frames(max_worlds):
    for size in range(1, max_worlds + 1):
        for p in enumerate_posets(size):
            yield from enumerate_nframes(p)


def _labeled_search(labeled, logic, f):
    """The countermodel search over the given labeled frames in order:
    the reference the isomorph-free stream must agree with."""
    for fr in labeled:
        if frame_class(fr, logic):
            hit = refuting_valuation(fr, f)
            if hit is not None:
                return model_to_dict(NModel(fr, hit[0])), hit[1]
    return None


def test_isomorph_free_search_keeps_the_labeled_witness():
    rng = random.Random(36)
    upto3 = list(_labeled_frames(3))
    formulas = [random_formula(rng, ["p", "q"], 3) for _ in range(100)]
    # random formulas are nearly always refuted first on a frame with no
    # nontrivial automorphism; these two are refuted first at the root of
    # a V-shaped poset under a table its mirror image moves, so a wrong
    # choice of labeling or of table in the orbit changes their witness
    formulas += [parse("~p -> (p -> q) | (q -> p)"), parse("~p -> ~q | (p -> q) | (q -> p)")]
    cases = [
        (upto3, 3, LOGICS[name], f) for f in formulas for name in ("n", "nef", "copc", "mpc")
    ]
    cases += [
        (_labeled_frames(4), 4, LOGICS["n"], AXIOM_NEF),
        (_labeled_frames(4), 4, LOGICS["nef"], AXIOM_COPC),
        (_labeled_frames(4), 4, LOGICS["copc"], AXIOM_MPC),
    ]
    found = 0
    for labeled, bound, logic, f in cases:
        want = _labeled_search(labeled, logic, f)
        hit = countermodel_search(logic, f, bound)
        assert (None if hit is None else (model_to_dict(hit[0]), hit[1])) == want, (logic.name, f)
        found += want is not None
    assert 0 < found < len(cases)


def test_frame_stream_holds_one_frame_per_isomorphism_class():
    stream = list(_frame_stream(3))
    assert [sum(fr.n == k for fr in stream) for k in (1, 2, 3)] == [4, 25, 242]
    assert sum(fr.n == 4 for fr in _frame_stream(4)) == 4230
    assert all(fr.poset.pair_mask() == canonical_poset_key(fr.poset) for fr in stream)
    groups = {}
    for fr in stream:
        groups.setdefault((fr.n, canonical_poset_key(fr.poset)), []).append(fr)
    # each streamed frame is a labeled frame too, so matching exactly one
    # also shows that no two streamed frames are isomorphic
    for size in (1, 2, 3):
        for p in enumerate_posets(size):
            group = groups[(size, canonical_poset_key(p))]
            for fr in enumerate_nframes(p):
                assert sum(nframe_isomorphic(fr, rep) for rep in group) == 1


def test_neighbourhood_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        fr = random_nframe(rng, rng.randint(1, 4))
        nbhd = to_neighbourhood(fr)
        assert from_neighbourhood(fr.poset, nbhd) == fr


def test_poset_isomorphism():
    a = Poset.from_pairs(3, [(0, 1), (0, 2)])
    b = Poset.from_pairs(3, [(2, 0), (2, 1)])
    c = Poset.from_pairs(3, [(0, 1), (1, 2)])
    assert poset_isomorphic(a, b)
    assert not poset_isomorphic(a, c)


def test_nframe_isomorphism_respects_tables():
    other = NFrame(CHAIN2, ntable_from_upset_map(CHAIN2, {0: 3, 2: 3, 3: 3}))
    assert nframe_isomorphic(SEPARATING, SEPARATING)
    assert not nframe_isomorphic(SEPARATING, other)


def _shuffled(rng, p):
    """p relabeled by a random permutation of its worlds."""
    order = list(range(p.n))
    rng.shuffle(order)
    up = [0] * p.n
    for w in range(p.n):
        m = p.up[w]
        acc = 0
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            acc |= 1 << order[v]
        up[order[w]] = acc
    return Poset(p.n, up)


def test_canonical_key_constant_on_relabelings():
    rng = random.Random(32)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 5))
        q = _shuffled(rng, p)
        assert canonical_poset_key(p) == canonical_poset_key(q)
        assert poset_isomorphic(p, q)


def test_canonical_key_is_the_least_relabeled_mask():
    # the pruned search against the min over all n! relabelings: on
    # every class up to 6 worlds, on relabelings of each, and on random
    # 7-world posets
    rng = random.Random(34)
    for n in range(7):
        for _, rep in _poset_classes(n):
            least = min(_relabeled_masks(rep))
            assert canonical_poset_key(rep) == least, rep
            for _ in range(2):
                q = _shuffled(rng, rep)
                assert canonical_poset_key(q) == least, q
    for _ in range(40):
        p = random_poset(rng, 7)
        assert canonical_poset_key(p) == min(_relabeled_masks(p)), p


def test_random_generators_are_lawful():
    rng = random.Random(33)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 5))
        table = random_ntable(rng, p)
        assert check_nframe(p, table) is None
        fr = random_nframe(rng, rng.randint(1, 5))
        assert check_nframe(fr.poset, fr.ntable) is None


def test_json_round_trips():
    rng = random.Random(34)
    for _ in range(40):
        fr = random_nframe(rng, rng.randint(1, 4))
        assert frame_from_dict(frame_to_dict(fr)) == fr
        p = fr.poset
        assert poset_from_dict(poset_to_dict(p)) == p
        ups = enumerate_upsets(p)
        m = NModel(fr, {"p": rng.choice(ups), "q": rng.choice(ups)})
        back = model_from_dict(model_to_dict(m))
        assert back.frame == m.frame
        assert dict(back.valuation) == dict(m.valuation)


def test_frame_from_dict_rejects_cyclic_order():
    d = frame_to_dict(SEPARATING)
    d["leq"] = [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        frame_from_dict(d)


def test_validity_is_monotone_down_the_chain():
    # a frame in a stronger class validates every weaker axiom
    rng = random.Random(35)
    order = ["n", "nef", "copc", "mpc"]
    for _ in range(60):
        fr = random_nframe(rng, rng.randint(1, 3))
        flags = [frame_class(fr, LOGICS[name]) for name in order]
        for weak, strong in zip(flags, flags[1:]):
            if strong:
                assert weak
