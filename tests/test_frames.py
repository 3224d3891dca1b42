"""Posets, N-frames, validity, enumeration, and the frame classes."""

import collections
import copy
import hashlib
import itertools
import pickle
import random
import time
import types
import weakref

import pytest

import mask_reference
from conftest import outcome
from filtration_reference import _members as reference_members
from filtration_reference import eval_formula as reference_eval
from frame_helpers import (
    enumerate_nframes,
    frame_validates,
    from_neighbourhood,
    poset_isomorphic,
    to_neighbourhood,
)
from subminimal import frames, kernels
from subminimal.kernels import pure
from subminimal.algebra import TopFrame, topframe_from_dict, topframe_isomorphic
from subminimal.antichain import positive_morphism
from subminimal.filtration import close_sigma
from subminimal.frames import (
    DEFAULT_MAX_WORLDS,
    LOGICS,
    NFrame,
    NModel,
    Poset,
    SearchTimeout,
    _ClassTables,
    _class_tables,
    _frame_stream,
    _pair_bit,
    _poset_classes,
    _poset_from_mask,
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
    model_from_dict,
    model_to_dict,
    nframe_isomorphic,
    ntable_from_upset_map,
    poset_from_dict,
    poset_isomorphisms,
    poset_to_dict,
    random_nframe,
    random_ntable,
    random_poset,
    refuting_valuation,
    truth_sets,
)
from subminimal.modal import ModalNFrame, NS4Frame, modal_nframe_from_dict, ns4_from_dict
from subminimal.syntax import (
    AXIOM_COPC,
    AXIOM_MPC,
    AXIOM_N,
    AXIOM_NEF,
    Logic,
    Neg,
    compiled,
    parse,
    show,
    subformulas,
)
from syntax_helpers import random_formula, subformula_closure

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


def test_small_posets_are_kept_once_per_value():
    # one object per (n, cones) up to DEFAULT_MAX_WORLDS worlds, whatever
    # sequence type the cones come in; none kept above
    n = DEFAULT_MAX_WORLDS
    chain = [(1 << n) - (1 << w) for w in range(n)]
    p = Poset(n, chain)
    assert Poset(n, tuple(chain)) is p
    assert Poset.from_pairs(n, [(w, w + 1) for w in range(n - 1)]) is p
    assert p.upsets() is Poset(n, chain).upsets()
    big = [(1 << n + 1) - (1 << w) for w in range(n + 1)]
    assert Poset(n + 1, big) == Poset(n + 1, big)
    assert Poset(n + 1, big) is not Poset(n + 1, big)
    assert (n + 1, tuple(big)) not in frames._POSETS
    assert all(k <= DEFAULT_MAX_WORLDS for k, _ in frames._POSETS)


def test_the_poset_memo_holds_at_most_the_243_small_posets():
    labeled = [p for n in range(DEFAULT_MAX_WORLDS + 1) for p in enumerate_posets(n)]
    assert len(labeled) == 1 + 1 + 3 + 19 + 219 == 243
    assert all(frames._POSETS[p.n, p.up] is p for p in labeled)
    assert len(frames._POSETS) == 243


def test_posets_pickle_and_copy_by_value():
    small = Poset.from_pairs(3, [(0, 1), (0, 2)])
    big = Poset.from_pairs(DEFAULT_MAX_WORLDS + 1, [(0, 1), (1, 2)])
    for p in (small, big):
        # a kept set-up rides on the cones; it is not part of the value
        positive_morphism(p, p)
        for back in (
            pickle.loads(pickle.dumps(p)),
            pickle.loads(pickle.dumps(p, protocol=0)),
            copy.copy(p),
            copy.deepcopy(p),
        ):
            assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
            assert (back is p) == (p is small)
            assert back.down == p.down and back.upsets() == p.upsets()


@pytest.mark.parametrize(
    "n, up, message",
    [
        (3, (3, 2, 5), "transitivity fails"),
        (2, (3, 3), "antisymmetry fails"),
        (-1, (), "world count must be nonnegative"),
        (2, (2, 2), "cone of world 0 is not reflexive in range"),
        (2, (3,), "one cone per world required"),
    ],
)
def test_an_invalid_poset_raises_on_every_call(n, up, message):
    kept = dict(frames._POSETS)
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            Poset(n, up)
    assert frames._POSETS == kept


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


def test_truth_sets_keys_are_the_walk_in_order():
    # the dict the walk fills is the one returned: its keys come children
    # first, the formulas in turn, each node once, as a closure from
    # close_sigma holds them; a set of one formula's closure is put in
    # that formula's walk
    rng = random.Random(40)
    m = NModel(SEPARATING, {"p": 2, "q": 3, "r": 0})
    for _ in range(300):
        formulas = [random_formula(rng, ("p", "q", "r"), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
        walk = list(dict.fromkeys(g for f in formulas for g in subformulas(f)))
        assert list(truth_sets(m, formulas)) == walk
        sigma = close_sigma(formulas)
        assert list(truth_sets(m, sigma)) == list(sigma) == walk
        if len(formulas) == 1:
            assert list(truth_sets(m, frozenset(sigma))) == walk


def test_formula_evaluator_matches_eval_formula_over_many_calls():
    # each formula is a temporary, which the memory, keyed by node, keeps
    # alive, so a later formula never takes its place
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
    # a clock that ticks once per deadline check, one check per rooted
    # poset class: checks 0..4 pass, so 5 classes are tried, the 4
    # one-world frames, the 15 of the two-world chain, the 48 + 64 of
    # both rooted 3-world classes and the 232 of the first rooted 4-world
    # class
    ticks = itertools.count()
    monkeypatch.setattr(frames, "time", types.SimpleNamespace(time=lambda: next(ticks)))
    with pytest.raises(
        SearchTimeout,
        match=r"^no verdict within the budget: reached 4 worlds after trying 363 class frames$",
    ):
        countermodel_search(LOGICS["n"], AXIOM_N, 4, deadline=4)


def _brute_isomorphisms(p, q):
    """Every order isomorphism p -> q, ascending, by trying all n!
    bijections."""
    if p.n != q.n:
        return []
    return [
        f
        for f in itertools.permutations(range(p.n))
        if all(p.le(u, v) == q.le(f[u], f[v]) for u in range(p.n) for v in range(p.n))
    ]


def _carries(f, domain, a, b):
    """Whether the world map f carries table a on the domain onto b."""
    return all(b[frames._push_mask(u, f)] == frames._push_mask(a[u], f) for u in domain)


def _uncached_tables(size, key):
    """N's tables of one poset class, built afresh: every lawful table on
    the class's least labeling that no automorphism, found by brute
    force, carries to a smaller value tuple over the ascending upsets."""
    p = _poset_from_mask(size, key)
    upsets = p.upsets()
    automorphisms = _brute_isomorphisms(p, p)

    def least(t):
        values = [t[u] for u in upsets]
        for g in automorphisms:
            moved = {frames._push_mask(u, g): frames._push_mask(t[u], g) for u in upsets}
            if [moved[u] for u in upsets] < values:
                return False
        return True

    return [t for t in enumerate_ntables(p) if least(t)]


def _uncached_stream(n):
    for size in range(1, n + 1):
        for key, _ in _poset_classes(size):
            p = _poset_from_mask(size, key)
            yield from (NFrame(p, t) for t in _uncached_tables(size, key))


def test_memoized_class_members_equal_the_uncached_build(monkeypatch):
    monkeypatch.setattr(frames, "_CLASS_TABLES", {})
    classes = [
        (size, key) for size in range(1, DEFAULT_MAX_WORLDS + 1) for key, _ in _poset_classes(size)
    ]
    rooted = {(size, key) for size, key in classes if _rooted(size, _poset_from_mask(size, key).up)}
    # the four logics' searches fill the memo for the rooted classes,
    # and a stream run after them adds N's tables of the others only
    for logic in LOGICS.values():
        assert countermodel_search(logic, AXIOM_N, DEFAULT_MAX_WORLDS) is None
    searched = set(frames._CLASS_TABLES)
    assert searched == {(size, key, name) for size, key in rooted for name in LOGICS}
    stream = list(_frame_stream(DEFAULT_MAX_WORLDS))
    assert set(frames._CLASS_TABLES) - searched == {
        (size, key, "n") for size, key in classes if (size, key) not in rooted
    }
    uncached = list(_uncached_stream(DEFAULT_MAX_WORLDS))
    assert stream == uncached
    # the stream yields N's memo entries, in order, as the very tables
    # the search hands to the kernel
    entries = []
    for size, key in classes:
        p, tables = _class_tables(size, key, LOGICS["n"])
        entries += [(p, t) for t in tables]
    assert [(fr.poset, fr.ntable) for fr in stream] == entries
    assert all(fr.poset is p and fr.ntable is t for fr, (p, t) in zip(stream, entries))
    for logic in LOGICS.values():
        tables = []
        for size, key in classes:
            kept = _class_tables(size, key, logic)
            assert kept is _class_tables(size, key, logic)
            p, class_tables = kept
            assert p == _poset_from_mask(size, key) and type(class_tables) is _ClassTables
            tables += class_tables
        assert tables == [fr.ntable for fr in uncached if frame_class(fr, logic)], logic.name


def test_search_on_a_warm_memo_repeats_its_witness():
    first = countermodel_search(LOGICS["copc"], AXIOM_MPC, 4)
    again = countermodel_search(LOGICS["copc"], AXIOM_MPC, 4)
    assert first is not None and again is not None
    assert (model_to_dict(again[0]), again[1]) == (model_to_dict(first[0]), first[1])
    with pytest.raises(SearchTimeout, match="no verdict within the budget"):
        countermodel_search(LOGICS["copc"], AXIOM_MPC, 4, deadline=time.time() - 1)


def test_five_world_classes_are_not_memoized(monkeypatch):
    # a stand-in kernel that refutes at the first position of the first
    # 5-world class, so the search reaches 5 worlds without walking them
    def refute_at_five(code, nvars, n, up, tables, upsets):
        return 0 if n == 5 else -1

    monkeypatch.setattr(kernels, "find_refuting_valuation_prop", refute_at_five)
    model, _ = countermodel_search(LOGICS["n"], AXIOM_N, 5)
    assert model.frame.n == 5
    kept = frames._CLASS_TABLES
    assert kept and all(memo[0] <= DEFAULT_MAX_WORLDS for memo in kept)


def _rooted(size, up):
    return (1 << size) - 1 in up


def test_each_rooted_five_world_class_is_one_kernel_call(monkeypatch):
    # a stand-in kernel that refutes nothing, so the search walks every
    # rooted 5-world class; the class builder is teed, so each call is
    # checked to get the very tables built for it, which are dropped
    # after, one class in memory at a time
    build = frames._class_tables
    built = []
    calls = collections.Counter()

    def tee(size, key, logic):
        out = build(size, key, logic)
        if size == 5:
            built.append((key, out))
        return out

    def record(code, nvars, n, up, tables, upsets):
        if n == 5:
            key, (p, members) = built.pop()
            assert not built and p == _poset_from_mask(5, key) and tuple(up) == p.up
            assert type(tables) is tuple and tables is members
            calls[key] += 1
        return -1

    monkeypatch.setattr(frames, "_class_tables", tee)
    monkeypatch.setattr(kernels, "find_refuting_valuation_prop", record)
    assert countermodel_search(LOGICS["n"], parse("~(p & q) -> ~(q & p)"), 5) is None
    rooted = [key for key, rep in _poset_classes(5) if _rooted(5, rep.up)]
    assert len(rooted) == 16 and calls == dict.fromkeys(rooted, 1)
    assert all(memo[0] <= DEFAULT_MAX_WORLDS for memo in frames._CLASS_TABLES)


def test_search_hands_only_rooted_classes_to_the_kernel(monkeypatch):
    # a stand-in kernel that records every poset it is given and refutes
    # nothing below 5 worlds, so each logic's search exhausts 4 worlds;
    # on a fresh memo the searches must build and keep the rooted classes
    # and nothing of the others; N then goes on to the first 5-world
    # class, refuted at its first position
    monkeypatch.setattr(frames, "_CLASS_TABLES", {})
    seen = []

    def record(code, nvars, n, up, tables, upsets):
        seen.append((n, tuple(up)))
        return 0 if n == 5 else -1

    monkeypatch.setattr(kernels, "find_refuting_valuation_prop", record)
    for logic in LOGICS.values():
        assert countermodel_search(logic, AXIOM_N, DEFAULT_MAX_WORLDS) is None
    model, _ = countermodel_search(LOGICS["n"], AXIOM_N, 5)
    assert seen[-1][0] == 5 and all(_rooted(n, up) for n, up in seen)
    rooted = {
        (size, key)
        for size in range(1, DEFAULT_MAX_WORLDS + 1)
        for key, rep in _poset_classes(size)
        if _rooted(size, rep.up)
    }
    assert len(rooted) == 1 + 1 + 2 + 5
    assert set(frames._CLASS_TABLES) == {
        (size, key, name) for size, key in rooted for name in LOGICS
    }
    # the witness is on the first rooted 5-world class, which is not the
    # first 5-world class
    first = next(key for key, rep in _poset_classes(5) if _rooted(5, rep.up))
    assert first != _poset_classes(5)[0][0]
    assert canonical_poset_key(model.frame.poset) == first == model.frame.poset.pair_mask()


def _walked_witnesses(f, max_worlds):
    """Each logic's witness from the unpruned walk of the frame stream,
    one kernel call per frame in stream order, each frame's refutation
    shared by the four logics: the reference the class-by-class search
    over the rooted classes must agree with."""
    hits = {}
    out = {}
    for name, logic in LOGICS.items():
        out[name] = None
        for fr in _frame_stream(max_worlds):
            if frame_class(fr, logic):
                if fr not in hits:
                    hits[fr] = refuting_valuation(fr, f)
                if hits[fr] is not None:
                    out[name] = model_to_dict(NModel(fr, hits[fr][0])), hits[fr][1]
                    break
    return out


# classical tautologies drawn by random_formula, with the world count of
# each logic's witness up to 4 worlds (None: no countermodel there)
ROOTED_PINS = {
    "~~(p | T) | ~p & ~p & ~(p & p) | ((~q & ~p -> ~(p & q)) | ~(p | ~p))": (4, 4, None, None),
    "~(T & p | (q | q)) | ~(p -> p -> T) | ~~((p -> q) | p)": (1, 1, 1, 4),
    "~((q -> r) -> p & r) & p -> (~(p & r) -> ~q | ~q) -> ((r -> q) -> q -> p) & (~q | q & q)": (
        2,
        4,
        None,
        None,
    ),
    "(~p -> p | r) | (r | q) | q | ((p | ~T) & p -> ~~~p)": (3, 3, 3, 3),
    "~~q | ~q": (1, 1, 1, 3),
    "~~q -> ~~T": (3, None, None, None),
    "~~(~T -> p & T) | ~p": (1, 1, 1, 4),
    "~~~(T -> q) -> ~~(T & q -> T -> T)": (4, None, None, None),
    "~(p & ~p)": (1, 1, 1, None),
    "p -> p": (None, None, None, None),
}

# one world under classical negation: it validates the classical
# tautologies and nothing else
BOOLEAN = NFrame(Poset(1, (1,)), (1, 0))


def test_rooted_search_keeps_the_walked_witness():
    # the pinned tautologies up to 4 worlds, and the classical tautologies
    # among 400 draws up to 3 worlds: most exhaust the bound, and those
    # refuted past one world are refuted only on rooted frames, here on
    # both rooted 3-world classes and four of the five 4-world ones
    cases = [(parse(text), 4) for text in ROOTED_PINS]
    for i in range(400):
        f = random_formula(random.Random(i), ["p", "q", "r"], 3 + i % 3)
        if refuting_valuation(BOOLEAN, f) is None:
            cases.append((f, 3))
    sizes = collections.Counter()
    classes = set()
    for f, bound in cases:
        walked = _walked_witnesses(f, bound)
        got = {}
        for name, logic in LOGICS.items():
            hit = countermodel_search(logic, f, bound)
            got[name] = None if hit is None else (model_to_dict(hit[0]), hit[1])
            if hit is not None:
                # the search fails f at the least world of its frame
                model, world = hit
                assert model.frame.poset.up[world] == (1 << model.frame.n) - 1
                classes.add((model.frame.n, model.frame.poset.pair_mask()))
            sizes[hit and hit[0].frame.n] += 1
        assert got == walked, show(f)
        if show(f) in ROOTED_PINS:
            counts = tuple(w and w[0]["worlds"] for w in walked.values())
            assert counts == ROOTED_PINS[show(f)], show(f)
    assert len(cases) == len(ROOTED_PINS) + 108
    assert sizes[3] >= 8 and sizes[4] >= 4 and sizes[None] >= 300, sizes
    assert {key for n, key in classes if n == 3} == {3, 11}
    assert {key for n, key in classes if n == 4} == {7, 23, 55, 311}


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
        walked = _walked_witnesses(f, max_worlds)
        for logic in LOGICS.values():
            hit = countermodel_search(logic, f, max_worlds)
            got = None if hit is None else (model_to_dict(hit[0]), hit[1])
            assert got == walked[logic.name], (show(f), logic.name, max_worlds)
            if hit is not None:
                fr = hit[0].frame
                _, tables = _class_tables(fr.n, canonical_poset_key(fr.poset), logic)
                past_first += fr.ntable != tables[0]
    # witnesses past the first frame of their class, where the frame
    # order inside a class decides
    assert past_first >= count // 10


def test_column_masks_outlive_their_block_only_when_kept(monkeypatch):
    # a narrow block holds a few frames of the first rooted 4-world
    # class under a one-variable formula valid in N, so the search walks
    # every block: a plain tuple of tables keeps at most one _Columns
    # alive at a time, and a _ClassTables keeps one per block
    monkeypatch.setattr(pure, "_BLOCK", 64)
    refs = []
    most = 0

    def alive():
        return sum(ref() is not None for ref in refs)

    class Counted(pure._Columns):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

        def __missing__(self, x):
            nonlocal most
            most = max(most, alive())
            return super().__missing__(x)

    monkeypatch.setattr(pure, "_Columns", Counted)
    key = next(key for key, rep in _poset_classes(4) if _rooted(4, rep.up))
    p, tables = _class_tables(4, key, LOGICS["n"])
    _, code = compiled(parse("~(p & p) -> ~p"))
    fpb = 64 // len(p.upsets())
    blocks = -(-len(tables) // fpb)
    assert fpb > 1 and blocks > 10
    assert pure.find_refuting_valuation_prop(code, 1, 4, p.up, tuple(tables), p.upsets()) == -1
    assert most == 1 and alive() == 0
    kept = _ClassTables(tables)
    assert pure.find_refuting_valuation_prop(code, 1, 4, p.up, kept, p.upsets()) == -1
    assert list(kept.columns) == [(len(p.upsets()), fpb)]
    assert len(kept.columns[len(p.upsets()), fpb]) == alive() == blocks


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


def test_from_neighbourhood_names_the_bad_family():
    chain = Poset.from_pairs(2, [(0, 1)])  # upsets 0, 2, 3; R(1) = {1}
    fr = from_neighbourhood(chain, (frozenset({3}), frozenset({2, 3})))
    assert fr.ntable == (0, -1, 2, 3)
    cases = [
        ((frozenset({3}),), "one neighbourhood family per world required"),
        ((frozenset({1}), frozenset()), "neighbourhood of world 0 holds a non-upset"),
        ((frozenset({3}), frozenset()), "neighbourhoods shrink from world 0 upward"),
        ((frozenset(), frozenset({3})), "neighbourhood of world 1 ignores its cone unevenly"),
    ]
    for nbhd, message in cases:
        with pytest.raises(ValueError, match=message):
            from_neighbourhood(chain, nbhd)


def test_frame_checks_name_the_offending_set():
    chain = Poset.from_pairs(2, [(0, 1)])
    fr = NFrame(chain, (0, -1, 2, 3))
    with pytest.raises(ValueError, match="negation undefined at 1"):
        fr.neg(1)
    with pytest.raises(ValueError, match="negation table misses upset 2"):
        check_nframe(chain, (0, -1, -1, 3))
    with pytest.raises(ValueError, match="unknown logic: ipc"):
        frame_class(fr, Logic("ipc", 9, AXIOM_N))


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


def _grown_posets(n):
    """Every poset _poset_classes keys on its way to n worlds: a fresh
    maximal world above each downset of each smaller class."""
    out = []
    for size in range(2, n + 1):
        new = 1 << (size - 1)
        for _, base in _poset_classes(size - 1):
            for dmask in enumerate_upsets(Poset(base.n, base.down)):
                up = [cone | new if (dmask >> w) & 1 else cone for w, cone in enumerate(base.up)]
                out.append(Poset(size, up + [new]))
    return out


def test_canonical_key_is_the_least_relabeled_mask_on_every_grown_poset():
    # the row bound against the min over all n! relabelings: on all 938
    # posets the classes up to 6 worlds key, and on random 7- and
    # 8-world posets
    grown = _grown_posets(6)
    assert len(grown) == 938
    for p in grown:
        assert canonical_poset_key(p) == min(_relabeled_masks(p)), p
    rng = random.Random(44)
    for n in (7, 7, 7, 8, 8):
        p = random_poset(rng, n)
        assert canonical_poset_key(p) == min(_relabeled_masks(p)), p


def test_least_labelings_are_the_brute_force_isomorphisms_onto_the_key():
    # on the decoded key they are the automorphisms; on the first grown
    # representative they are its isomorphisms onto the decoded key
    for n in range(1, 6):
        for key, rep in _poset_classes(n):
            least = _poset_from_mask(n, key)
            got_key, labelings = frames._least_labelings(least)
            assert got_key == key
            assert list(labelings) == _brute_isomorphisms(least, least), least
            assert labelings[0] == tuple(range(n))
            assert frames._least_labelings(rep) == (key, tuple(_brute_isomorphisms(rep, least))), rep


def _chain(n, rng):
    """An n-chain under a random labeling."""
    order = list(range(n))
    rng.shuffle(order)
    return Poset.from_pairs(n, list(zip(order, order[1:])))


def test_the_key_search_enters_an_n_chain_n_plus_one_times(monkeypatch):
    # the row bound cuts every candidate but the highest free world at
    # each label; without it the 16-chain made millions of entries
    entries = 0
    search = frames._least_placement

    def counted(*args):
        nonlocal entries
        entries += 1
        return search(*args)

    monkeypatch.setattr(frames, "_least_placement", counted)
    rng = random.Random(45)
    for n in (1, 2, 3, 8, 16, 20):
        entries = 0
        p = _chain(n, rng)
        assert canonical_poset_key(p) == sum(1 << _pair_bit(i, j, n) for i in range(n) for j in range(i + 1, n))
        assert entries <= n + 1, (n, entries)


def _relabeled_frame(rng, p, ntable, domain):
    """A random relabeling of p with the table carried along."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = _shuffled_by(p, perm)
    table = [-1] * len(ntable)
    for u in domain:
        table[frames._push_mask(u, perm)] = frames._push_mask(ntable[u], perm)
    return q, tuple(table)


def test_isomorphism_tests_agree_with_brute_force_up_to_six_worlds():
    # relabeled and random pairs: the isomorphisms in order, and whether
    # some isomorphism carries the N-frame or top-frame table
    rng = random.Random(46)
    verdicts = collections.Counter()
    for _ in range(120):
        n = rng.randint(1, 6)
        p = random_poset(rng, n)
        a = random_ntable(rng, p)
        if rng.random() < 0.6:
            q, b = _relabeled_frame(rng, p, a, p.upsets())
            if rng.random() < 0.3:
                b = random_ntable(rng, q)
        else:
            q = random_poset(rng, n)
            b = random_ntable(rng, q)
        brute = _brute_isomorphisms(p, q)
        assert list(poset_isomorphisms(p, q)) == brute, (p, q)
        want = any(_carries(f, p.upsets(), a, b) for f in brute)
        assert nframe_isomorphic(NFrame(p, a), NFrame(q, b)) == want, (p, q, a, b)
        verdicts["nframe", want] += 1
        # the same posets with a top world added, and the tables cut to
        # the nonempty upsets that hold it
        tp, tq = _with_top(p), _with_top(q)
        sa = _top_table(rng, tp)
        if want and rng.random() < 0.7:
            f = brute[0] + (n,)
            tb = [-1] * len(sa)
            for u in tp.upsets()[1:]:
                tb[frames._push_mask(u, f)] = frames._push_mask(sa[u], f)
            tb = tuple(tb)
        else:
            tb = _top_table(rng, tq)
        s, t = TopFrame(tp, sa), TopFrame(tq, tb)
        top_brute = _brute_isomorphisms(tp, tq)
        top_want = any(_carries(f, s.admissible(), sa, tb) for f in top_brute)
        assert topframe_isomorphic(s, t) == top_want, (tp, tq, sa, tb)
        verdicts["top", top_want] += 1
    assert min(verdicts.values()) >= 15, verdicts


def test_isomorphic_frames_with_many_automorphisms_read_one_labeling_each(monkeypatch):
    # two 7-world antichains built apart, 5,040 automorphisms, all twin
    # swaps: a's first least labeling carries a tuple b's first carries
    # too, so each frame's 128 upsets are pushed through one labeling
    a, b = (NFrame(Poset(7, [1 << w for w in range(7)]), tuple(range(128))) for _ in range(2))
    assert a.poset is not b.poset
    pushed = []
    push = frames._push_mask
    monkeypatch.setattr(frames, "_push_mask", lambda mask, f: pushed.append(mask) or push(mask, f))
    assert nframe_isomorphic(a, b)
    assert len(pushed) == 2 * 128


def _shuffled_by(p, perm):
    """p with world w renamed perm[w]."""
    up = [0] * p.n
    for w in range(p.n):
        up[perm[w]] = frames._push_mask(p.up[w], perm)
    return Poset(p.n, up)


def _with_top(p):
    """p with a greatest world n added."""
    top = 1 << p.n
    return Poset(p.n + 1, [cone | top for cone in p.up] + [top])


def _top_table(rng, p):
    """A random lawful top-frame table on a topped poset: a trace table
    over the nonempty upsets whose values hold the top world."""
    t = p.top()
    admissible = p.upsets()[1:]
    while True:
        (table,) = frames._trace_tables(p.up, admissible, frames._coin_flips(rng))
        if (table[1 << t] >> t) & 1:
            return table


def test_poset_isomorphisms_come_in_lexicographic_order():
    # the search places world 0 first, each world on ascending targets,
    # so it yields every isomorphism once, in the brute force's order
    rng = random.Random(36)
    found = 0
    for _ in range(80):
        p = random_poset(rng, rng.randint(1, 5))
        q = _shuffled(rng, p) if rng.random() < 0.8 else random_poset(rng, p.n)
        brute = [
            f
            for f in itertools.permutations(range(p.n))
            if all(p.le(u, v) == q.le(f[u], f[v]) for u in range(p.n) for v in range(p.n))
        ]
        assert list(poset_isomorphisms(p, q)) == brute, (p, q)
        found += len(brute)
    assert found >= 100


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


def test_transpose_matches_the_loops_it_replaced():
    rng = random.Random(28)
    for width in range(13):
        for _ in range(30):
            rows = [rng.getrandbits(width) for _ in range(rng.randrange(14))]
            got = pure._transpose(rows, width)
            assert got == mask_reference.down_sets(width, rows)
            assert got == mask_reference.hats(width, rows)
            order = [object() for _ in rows]
            assert got == mask_reference.signatures(dict(zip(order, rows)), order, width)
            pi = [rng.randrange(width) for _ in range(rng.randrange(14))] if width else []
            assert pure._transpose([1 << c for c in pi], width) == reference_members(pi, width)
    for n in range(5):
        for p in enumerate_posets(n):
            assert list(p.down) == mask_reference.down_sets(n, p.up)


def test_enumerate_upsets_matches_the_loop_it_replaced():
    counts = []
    for n in range(6):
        posets = list(enumerate_posets(n))
        for p in posets:
            assert enumerate_upsets(p) == mask_reference.upsets(n, p.up)
        counts.append(len(posets))
    # every labeled poset of up to 5 worlds
    assert counts == [1, 1, 3, 19, 219, 4231]


def test_inclusion_cones_match_the_loops_they_replaced():
    rng = random.Random(29)
    seen = collections.Counter()
    for _ in range(600):
        width = rng.randrange(6)
        masks = [rng.getrandbits(width) for _ in range(rng.randrange(9))]
        if masks and rng.random() < 0.3:
            masks.insert(rng.randrange(len(masks)), rng.choice(masks))
        cones = pure._inclusion_cones(masks)
        assert cones == mask_reference.dual_cones(masks) == mask_reference.greatest_cones(masks)
        # a shift and a common bit keep every inclusion; random traces
        # mostly break one
        if rng.random() < 0.5:
            other = [m << 1 | 1 for m in masks]
        else:
            other = [rng.getrandbits(width) for _ in masks]
        agree = mask_reference.orders_agree(masks, other)
        assert (cones == pure._inclusion_cones(other)) == agree
        seen[agree] += 1
        seen["duplicate"] += len(set(masks)) < len(masks)
    assert seen[True] > 100 and seen[False] > 100 and seen["duplicate"] > 100


def _count_order(floor, ceil, up):
    """The binary count at which up is picked: bit i for the i-th pair
    (c, d), c major, that ceil adds to floor."""
    n = len(floor)
    gap = [(c, d) for c in range(n) for d in range(n) if (ceil[c] >> d) & 1 and not (floor[c] >> d) & 1]
    return sum(1 << i for i, (c, d) in enumerate(gap) if (up[c] >> d) & 1)


def test_orders_between_are_every_transitive_relation_in_count_order():
    rng = random.Random(30)
    sizes = collections.Counter()
    for _ in range(120):
        n = rng.randrange(5)
        floor = [sum(1 << d for d in range(n) if rng.random() < 0.3) for _ in range(n)]
        ceil = [f | sum(1 << d for d in range(n) if rng.random() < 0.6) for f in floor]
        # every relation between floor and ceil, cone by cone, kept when
        # transitive by the definition
        cones = [[x for x in range(1 << n) if f & ~x == 0 and x & ~c == 0] for f, c in zip(floor, ceil)]
        want = [
            up for up in itertools.product(*cones)
            if all(up[d] & ~up[c] == 0 for c in range(n) for d in range(n) if (up[c] >> d) & 1)
        ]
        want.sort(key=lambda up: _count_order(floor, ceil, up))
        assert list(frames._orders_between(floor, ceil)) == want
        sizes[len(want) > 1] += 1
    assert sizes[True] > 30
