"""Filtration construction, its defining conditions, and decide()."""

import collections
import copy
import dataclasses
import itertools
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import filtration_reference as ref
from conftest import outcome
import subminimal
from subminimal import filtration, frames, syntax
from subminimal.algebra import algebra_corpus, least_filtration_correspondence, sublattice_filtration
from subminimal.filtration import (
    FiltrationResult,
    ResourceLimitError,
    SearchTimeout,
    Verdict,
    check_conditions,
    close_sigma,
    decide,
    enumerate_filtrations,
    filtration_theorem_check,
    greatest_among,
    greatest_filtration,
)
from subminimal.frames import (
    LOGICS,
    NFrame,
    NModel,
    Poset,
    _push_mask,
    enumerate_ntables,
    enumerate_posets,
    model_from_dict,
    nframe_isomorphic,
    ntable_from_upset_map,
    random_nframe,
    truth_sets,
)
from subminimal.syntax import (
    AXIOM_COPC,
    AXIOM_N,
    And,
    parse,
    show,
    variables,
)
from syntax_helpers import random_formula, substitute


def fork_model():
    # three worlds, 0 below both 1 and 2; p holds exactly at 1, and the
    # negation sends every proper upset to the whole frame
    return model_from_dict(
        {
            "worlds": 3,
            "leq": [[0, 1], [0, 2]],
            "N": {"0": 7, "2": 7, "4": 7, "6": 7, "7": 0},
            "valuation": {"p": 2},
        }
    )


def random_model(rng, max_worlds=5, names=("p", "q")):
    fr = random_nframe(rng, rng.randint(1, max_worlds))
    ups = fr.poset.upsets()
    return NModel(fr, {x: rng.choice(ups) for x in names})


def test_close_sigma_is_a_closure():
    # a tuple that is its own walk: the subformulas of each formula in
    # turn, children first, each once
    sigma = close_sigma([parse("~p")])
    assert sigma == (parse("p"), parse("~p"))
    bigger = close_sigma([parse("p & q -> ~p")])
    assert close_sigma(bigger) == bigger
    assert parse("p & q") in bigger
    both = close_sigma([parse("~p"), parse("p & q -> ~p")])
    assert both == (parse("p"), parse("~p"), parse("q"), parse("p & q"), parse("p & q -> ~p"))


def test_greatest_filtration_of_the_fork():
    m = fork_model()
    r = greatest_filtration(m, close_sigma([parse("~p")]))
    assert r.pi == (0, 1, 0)
    q = r.quotient
    assert q.frame.poset.n == 2
    assert q.frame.poset.up == (3, 2)
    assert q.frame.ntable == ntable_from_upset_map(
        Poset(2, (3, 2)), {0: 3, 2: 3, 3: 0}
    )
    assert q.valuation == {"p": 2}


def test_greatest_filtration_requires_closed_sigma():
    with pytest.raises(ValueError, match="not subformula-closed"):
        greatest_filtration(fork_model(), [parse("~p")])


def test_conditions_hold_on_greatest_filtration():
    rng = random.Random(40)
    for _ in range(200):
        m = random_model(rng)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        r = greatest_filtration(m, sigma)
        assert check_conditions(m, r) is None


def test_truth_agreement_and_size_bound():
    rng = random.Random(41)
    for _ in range(200):
        m = random_model(rng)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        r = greatest_filtration(m, sigma)
        assert filtration_theorem_check(m, r) is None
        assert r.quotient.frame.poset.n <= 2 ** len(sigma)


def test_check_conditions_flags_a_corrupted_quotient():
    m = fork_model()
    sigma = close_sigma([parse("~p")])
    r = greatest_filtration(m, sigma)
    qposet = r.quotient.frame.poset
    # the whole frame maps to 0 in the greatest table, so sending it to
    # the whole frame instead escapes the class-wise bound
    bad_frame = NFrame(
        qposet, ntable_from_upset_map(qposet, {0: 3, 2: 3, 3: 3})
    )
    bad = FiltrationResult(
        NModel(bad_frame, r.quotient.valuation), r.pi, r.sigma
    )
    hit = check_conditions(m, bad)
    assert hit is not None
    assert hit[0] == "c"


def test_enumerate_filtrations_contains_dominated_variants():
    m = fork_model()
    sigma = close_sigma([parse("~p")])
    every = enumerate_filtrations(m, sigma)
    assert every
    g = greatest_filtration(m, sigma)
    assert any(r.quotient.frame == g.quotient.frame for r in every)
    for r in every:
        assert check_conditions(m, r) is None
        assert greatest_among(m, sigma, r)


def test_enumerate_filtrations_matches_brute_force():
    rng = random.Random(42)
    for _ in range(20):
        m = random_model(rng, max_worlds=3, names=("p",))
        sigma = close_sigma([parse("~p")])
        every = enumerate_filtrations(m, sigma)
        seen = {
            (r.quotient.frame.poset.up, r.quotient.frame.ntable) for r in every
        }
        assert len(seen) == len(every)
        g = greatest_filtration(m, sigma)
        k = g.quotient.frame.poset.n
        # brute force over every order on the classes and every upset
        # table: a pair is a filtration exactly when the checker says so
        for qposet in enumerate_posets(k):
            for table in enumerate_ntables(qposet):
                try:
                    cand = FiltrationResult(
                        NModel(NFrame(qposet, table), g.quotient.valuation),
                        g.pi,
                        sigma,
                    )
                except ValueError:
                    # the projected valuation is not an upset of this
                    # order, so no filtration lives on it
                    assert (qposet.up, table) not in seen
                    continue
                ok = check_conditions(m, cand) is None
                assert ok == ((qposet.up, table) in seen)


def test_greatest_among_rejects_non_filtrations():
    m = fork_model()
    sigma = close_sigma([parse("~p")])
    r = greatest_filtration(m, sigma)
    qposet = r.quotient.frame.poset
    bad = FiltrationResult(
        NModel(
            NFrame(qposet, ntable_from_upset_map(qposet, {0: 3, 2: 3, 3: 3})),
            r.quotient.valuation,
        ),
        r.pi,
        r.sigma,
    )
    with pytest.raises(ValueError, match="not a filtration"):
        greatest_among(m, sigma, bad)


def test_greatest_among_takes_sigma_as_a_set():
    # Sigma in another order is the same Sigma, with the same classes,
    # so the greatest filtration still dominates
    m = fork_model()
    both = close_sigma([parse("~p"), parse("p & p")])
    for given, built in ((frozenset(both), both), (both, frozenset(both)), (both[::-1], both)):
        r = greatest_filtration(m, built)
        assert r.sigma != syntax._ordered(given) and greatest_among(m, given, r)


# ---------------------------------------------------------------------------
# decide


def test_decide_theorem_by_instance():
    v = decide(LOGICS["copc"], substitute(AXIOM_COPC, {"p": parse("p & p")}))
    assert v.status == "theorem"
    assert v.bound is None


def test_decide_weaker_axiom_is_instance_for_stronger_logic():
    v = decide(LOGICS["mpc"], AXIOM_N)
    assert v.status == "theorem"


def test_decide_refuted_with_witness():
    v = decide(LOGICS["nef"], AXIOM_COPC)
    assert v.status == "refuted"
    assert v.model is not None and v.world is not None
    two = NFrame(Poset(2, (3, 2)), ntable_from_upset_map(Poset(2, (3, 2)), {0: 2, 2: 3, 3: 2}))
    assert nframe_isomorphic(v.model.frame, two)


def test_decide_no_countermodel_up_to_bound():
    flipped = substitute(AXIOM_COPC, {"p": parse("q"), "q": parse("p")})
    v = decide(LOGICS["copc"], And(AXIOM_COPC, flipped), max_worlds=3)
    assert v.status == "no-countermodel-up-to-bound"
    assert v.bound == 3


def test_decide_certifies_small_fmp_theorems():
    # closure of p -> p has two members, so the finite-model bound is 4
    # and exhausting the search up to 4 worlds certifies the theorem
    v = decide(LOGICS["n"], parse("p -> p"), max_worlds=4)
    assert v.status == "theorem"
    assert v.bound == 4


def test_decide_resource_limit_is_honest():
    f = And(AXIOM_N, AXIOM_N)
    target = 1 << len(close_sigma([f]))
    with pytest.raises(
        ResourceLimitError,
        match=rf"needs frames up to {target} worlds, above the limit of 3",
    ):
        decide(LOGICS["n"], f, max_worlds=3)


def test_decide_timeout():
    flipped = substitute(AXIOM_COPC, {"p": parse("q"), "q": parse("p")})
    with pytest.raises(SearchTimeout):
        decide(LOGICS["nef"], And(AXIOM_COPC, flipped), timeout_ms=0)


@pytest.mark.parametrize("f", [parse("p -> p"), AXIOM_N], ids=["searched", "axiom-instance"])
def test_decide_rejects_a_timeout_too_large_for_a_float(f):
    # 10**400 / 1000 overflows a float; the check comes before the
    # axiom scan, so an instance is no exception
    with pytest.raises(ValueError, match="^timeout too large for a float$"):
        decide(LOGICS["n"], f, 3, 10**400)


# ---------------------------------------------------------------------------
# differential against the formula-by-formula layer in filtration_reference


def _key(r):
    q = r.quotient
    return (r.pi, q.frame.poset.up, q.frame.ntable, tuple(q.valuation.items()), r.sigma)


def _same_checks(m, r):
    """Both checks agree with the reference; returns the theorem check."""
    assert outcome(check_conditions, m, r) == outcome(ref.check_conditions, m, r)
    theorem = outcome(filtration_theorem_check, m, r)
    assert theorem == outcome(ref.filtration_theorem_check, m, r)
    return theorem


def test_differential_on_random_models():
    rng = random.Random(43)
    enumerated = 0
    for _ in range(600):
        m = random_model(rng)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        g = greatest_filtration(m, sigma)
        assert _key(g) == _key(ref.greatest_filtration(m, sigma))
        assert _same_checks(m, g) == ("ok", None)
        if g.classes() <= 2:
            enumerated += 1
            every = [_key(r) for r in enumerate_filtrations(m, sigma)]
            assert every == [_key(r) for r in ref.enumerate_filtrations(m, sigma)]
    assert enumerated >= 200


BRUTE_SIGMAS = ["~p", "~~p & ~p", "~(p -> ~p) | ~~p", "~T & ~p"]


@pytest.mark.parametrize("text", BRUTE_SIGMAS)
def test_differential_witnesses_on_brute_force_candidates(text):
    rng = random.Random(44)
    sigma = close_sigma([parse(text)])
    kinds = set()
    for _ in range(12):
        m = random_model(rng, max_worlds=3, names=("p",))
        g = greatest_filtration(m, sigma)
        for qposet in enumerate_posets(g.classes()):
            for table in enumerate_ntables(qposet):
                try:
                    cand = FiltrationResult(
                        NModel(NFrame(qposet, table), g.quotient.valuation), g.pi, sigma
                    )
                except ValueError:
                    continue
                hit = check_conditions(m, cand)
                kinds.add(None if hit is None else hit[0])
                _same_checks(m, cand)
    assert {None, "b", "d"} <= kinds


def _corrupted(rng, g):
    """g with one negation entry or one valuation entry changed."""
    q = g.quotient
    qposet = q.frame.poset
    upsets = qposet.upsets()
    if q.valuation and rng.random() < 0.3:
        name = rng.choice(sorted(q.valuation))
        valuation = dict(q.valuation)
        valuation[name] = rng.choice([u for u in upsets if u != valuation[name]] or upsets)
        return FiltrationResult(NModel(q.frame, valuation), g.pi, g.sigma)
    x = rng.choice(upsets)
    table = list(q.frame.ntable)
    table[x] = rng.choice([v for v in range(1 << qposet.n) if v != table[x]] or [table[x]])
    return FiltrationResult(NModel(NFrame(qposet, tuple(table)), q.valuation), g.pi, g.sigma)


def test_differential_witnesses_on_corrupted_quotients():
    rng = random.Random(45)
    errors = fails = 0
    # quotients where some formula meets an undefined entry, yet the check
    # returns an earlier disagreement in Sigma's order
    fails_before_error = 0
    for _ in range(1500):
        m = random_model(rng, max_worlds=4)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        g = greatest_filtration(m, sigma)
        if g.classes() < 2:
            continue
        # Sigma in show order: in walk order a child's disagreement comes
        # before its parent's undefined entry, so no error would be reached
        bad = dataclasses.replace(_corrupted(rng, g), sigma=tuple(sorted(sigma, key=show)))
        kind, value = _same_checks(m, bad)
        if kind != "ok":
            errors += 1
        elif value is not None:
            fails += 1
            if outcome(truth_sets, bad.quotient, sigma)[0] != "ok":
                fails_before_error += 1
    assert fails >= 200
    assert errors >= 1
    assert fails_before_error >= 3


def test_every_valuation_corruption_is_refused():
    # check_conditions once returned None on each of these, leaving the
    # wrong valuation to the theorem check
    rng = random.Random(45)
    corrupted = 0
    for _ in range(300):
        m = random_model(rng, max_worlds=4)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        g = greatest_filtration(m, sigma)
        if g.classes() < 2:
            continue
        bad = _corrupted(rng, g)
        wrong = sorted(x for x, v in g.quotient.valuation.items() if bad.quotient.valuation[x] != v)
        if not wrong:
            continue
        corrupted += 1
        for module in (filtration, ref):
            assert module.check_conditions(m, bad) == ("v", (wrong[0],))
            with pytest.raises(ValueError, match=r"condition \(v\) fails at \('%s',\)" % wrong[0]):
                module.greatest_among(m, sigma, bad)
    assert corrupted >= 50

    # a variable of Sigma left out is refused, one outside Sigma is not
    m = fork_model()
    sigma = close_sigma([parse("~p & q")])
    m.valuation["q"] = 6
    g = greatest_filtration(m, sigma)
    frame = g.quotient.frame
    for valuation, want in (
        ({"p": g.quotient.valuation["p"]}, ("v", ("q",))),
        ({**g.quotient.valuation, "r": 0}, None),
    ):
        r = FiltrationResult(NModel(frame, valuation), g.pi, sigma)
        assert check_conditions(m, r) == want
        assert ref.check_conditions(m, r) == want


def test_greatest_among_matches_the_brute_force_reference():
    rng = random.Random(46)
    models = checked = refused = 0
    for _ in range(300):
        m = random_model(rng, max_worlds=3)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        every = enumerate_filtrations(m, sigma)
        # a handful of models have thousands of filtrations; they would
        # only lengthen the run
        if len(every) > 500:
            continue
        models += 1
        g = greatest_filtration(m, sigma)
        candidates = every + [_corrupted(rng, g)] * (g.classes() >= 2)
        for r in candidates:
            got = outcome(greatest_among, m, sigma, r)
            assert got == outcome(ref.greatest_among, m, sigma, r)
            checked += 1
            refused += got[0] != "ok"
    assert models >= 200
    assert checked >= 4000
    assert refused >= 20

    # the reference answered False on these two; neither is covered by
    # the domination theorem, so the new check refuses them: the first
    # as a projection mismatch, the second, whose projection is not
    # onto, as no filtration at all
    antichain = Poset(2, (1, 2))
    empty = ntable_from_upset_map(antichain, dict.fromkeys(antichain.upsets(), 0))
    m = NModel(NFrame(antichain, empty), {"p": 1, "q": 2})
    both = close_sigma([parse("p"), parse("q")])
    through_p = greatest_filtration(m, close_sigma([parse("p")]))
    point = Poset(1, (1,))
    m1 = NModel(NFrame(point, ntable_from_upset_map(point, {0: 0, 1: 0})), {"p": 0})
    two = Poset(2, (3, 2))
    # class 1 lies above class 0 and no world projects to it
    empty_class = FiltrationResult(
        NModel(NFrame(two, ntable_from_upset_map(two, {0: 0, 2: 0, 3: 0})), {"p": 0}),
        (0,),
        close_sigma([parse("p")]),
    )
    assert check_conditions(m1, empty_class) == ("onto", (1,))
    for model, sigma, r, error in (
        (m, both, through_p, "projection mismatch"),
        (m1, empty_class.sigma, empty_class, r"not a filtration: condition \(onto\) fails at \(1,\)"),
    ):
        assert ref.greatest_among(model, sigma, r) is False
        with pytest.raises(ValueError, match=error):
            greatest_among(model, sigma, r)


def test_check_conditions_refuses_a_class_no_world_projects_to():
    # the second class lies above the first and no world projects to it;
    # the projection of the truth set of ~p is not an upset there, so its
    # table entry is undefined, and (d) alone read it as every class
    point = Poset(1, (1,))
    m = NModel(NFrame(point, (1, 0)), {"p": 0})
    two = Poset(2, (3, 2))
    r = FiltrationResult(
        NModel(NFrame(two, ntable_from_upset_map(two, {0: 1, 2: 0, 3: 0})), {"p": 0}),
        (0,),
        close_sigma([parse("~~p")]),
    )
    assert ref.check_conditions(m, r) is None
    with pytest.raises(ValueError, match="undefined negation entry"):
        filtration_theorem_check(m, r)
    assert check_conditions(m, r) == ("onto", (1,))


# ---------------------------------------------------------------------------
# one read of Sigma per model


def _comparable(out):
    kind, value = out
    if isinstance(value, FiltrationResult):
        return kind, _key(value)
    if isinstance(value, list):
        return kind, [_key(r) for r in value]
    return out


def _three_ways(name, m, *args, warm=None):
    """The outcome of the named function on the shared (warm) model, or
    the one given, which must equal it on a fresh copy of the model and
    in the reference. The reference takes Sigma in the order given, so
    a set goes to it in the package's order."""
    warm = _comparable(warm or outcome(getattr(filtration, name), m, *args))
    cold = NModel(m.frame, dict(m.valuation))
    assert _comparable(outcome(getattr(filtration, name), cold, *args)) == warm
    ordered = [syntax._ordered(a) if isinstance(a, frozenset) else a for a in args]
    assert _comparable(outcome(getattr(ref, name), m, *ordered)) == warm
    return warm


def test_warm_and_cold_reads_agree_with_the_reference():
    rng = random.Random(47)
    # Sigma as given, as a frozenset of its members, and as a list
    forms = (lambda s: s, lambda s: frozenset(list(s)), list)
    enumerated = checked = 0
    kinds = set()
    for i in range(300):
        m = random_model(rng, max_worlds=3)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        given = forms[i % 3](sigma)
        assert _three_ways("greatest_filtration", m, given)[0] == "ok"
        g = greatest_filtration(m, given)
        every = [g]
        # enumeration is exponential in the classes: a 3-world antichain
        # with three classes can have 262,144 filtrations
        if g.classes() <= 2:
            every = enumerate_filtrations(m, given)
            _three_ways("enumerate_filtrations", m, given, warm=("ok", every))
            enumerated += 1
        # a Sigma the model cannot evaluate: the reads fail and are not kept
        unread = FiltrationResult(g.quotient, g.pi, close_sigma([And(next(iter(sigma)), parse("r"))]))
        # a projection finer than Sigma-agreement, checked against Sigma
        finer = greatest_filtration(m, frozenset(sigma) | {parse("p"), parse("q")})
        finer = FiltrationResult(finer.quotient, finer.pi, g.sigma)
        candidates = every + [_corrupted(rng, g)] * (g.classes() >= 2) + [unread, finer]
        for r in candidates:
            for name in ("check_conditions", "filtration_theorem_check"):
                kinds.add((name, _three_ways(name, m, r)[0]))
            kinds.add(("greatest_among", _three_ways("greatest_among", m, given, r)[0]))
            checked += 1
    assert enumerated >= 200
    assert checked >= 2000
    for name in ("check_conditions", "filtration_theorem_check", "greatest_among"):
        assert {(name, "ok"), (name, "ValueError")} <= kinds


def test_a_stale_read_is_never_used():
    m = fork_model()
    sigma = close_sigma([parse("~p")])
    before = greatest_filtration(m, sigma)
    # the valuation is a plain dict, so a caller can change it in place
    m.valuation["p"] = 7
    after = greatest_filtration(m, sigma)
    assert _key(after) == _key(greatest_filtration(NModel(m.frame, dict(m.valuation)), sigma))
    assert _key(after) != _key(before)
    assert check_conditions(m, after) is None
    assert filtration_theorem_check(m, after) is None
    # p now holds at world 0, which before's quotient sends where p fails
    assert filtration_theorem_check(m, before) == (parse("p"), 0)
    assert check_conditions(m, before) == ("v", ("p",))


def test_the_kept_read_is_outside_equality_hash_and_repr():
    m = fork_model()
    twin = NModel(m.frame, m.valuation)
    seen = (m == twin, m == m, hash(m), repr(m))
    greatest_filtration(m, close_sigma([parse("~p")]))
    assert "_read" in vars(m)
    assert (m == twin, m == m, hash(m), repr(m)) == seen
    assert [f.name for f in dataclasses.fields(NModel)] == ["frame", "valuation"]


def test_a_model_keeps_a_bounded_number_of_reads():
    # one read is kept, the last one, and it serves every equal Sigma
    m = fork_model()
    sigma = close_sigma([parse("~p")])
    want = _key(greatest_filtration(m, sigma))
    kept = vars(m)["_read"]
    assert kept.sigma is sigma
    # a list is made a new tuple on every call, equal to Sigma, so each
    # call takes the kept read
    for _ in range(3):
        assert _key(greatest_filtration(m, list(sigma))) == want
        assert vars(m)["_read"] is kept
    # the same set in another order is another Sigma: its signature bits
    # follow that order, so it is read anew and its read takes the place
    # of the one before
    both = close_sigma([parse("~p"), parse("p & p")])
    greatest_filtration(m, both)
    last = vars(m)["_read"]
    assert last is not kept and last.sigma is both
    greatest_filtration(m, frozenset(both))
    assert vars(m)["_read"] is not last and vars(m)["_read"].sigma == (parse("p"), parse("p & p"), parse("~p"))
    assert set(vars(m)) == {"frame", "valuation", "_read"}
    assert _key(greatest_filtration(m, sigma)) == want
    assert vars(m)["_read"].sigma is sigma


def test_one_source_read_per_model_and_sigma(monkeypatch):
    # a frozen counter: one filtrate-style item per (model, Sigma) pair
    # reads Sigma on its model once, however many calls share the read
    reads = []
    real = filtration._truth_walk

    def counting(m, formulas, order):
        reads.append((m, formulas))
        return real(m, formulas, order)

    monkeypatch.setattr(filtration, "_truth_walk", counting)
    fork = fork_model()
    chain = model_from_dict(
        {"worlds": 3, "leq": [[0, 1], [1, 2]], "N": {"0": 7, "4": 6, "6": 4, "7": 0}, "valuation": {"p": 6, "q": 4}}
    )
    first = close_sigma([parse("~p -> ~~p")])
    second = close_sigma([parse("~(p & ~p) | ~~p")])
    pairs = [(fork, first), (fork, second), (chain, first), (chain, second)]
    filtrations = []
    for m, sigma in pairs:
        r = greatest_filtration(m, sigma)
        assert check_conditions(m, r) is None
        assert filtration_theorem_check(m, r) is None
        every = enumerate_filtrations(m, sigma)
        assert all(greatest_among(m, sigma, f) for f in every)
        filtrations.append(len(every))
    assert filtrations == [4, 4, 8, 8]
    assert reads == pairs


def test_orders_are_decided_once_per_read_and_order(monkeypatch):
    # a frozen counter beside the one above: (a) and (b) run once per
    # read and quotient order, however many filtrations share the order,
    # and Sigma is still read once per pair of model and Sigma
    reads = []
    decided = []
    real_truth, real_order = filtration._truth_walk, filtration._order_witness

    def counting_truth(m, formulas, order):
        reads.append((m, formulas))
        return real_truth(m, formulas, order)

    def counting_order(source_up, pi, members, sig, order, up):
        decided.append(tuple(up))
        return real_order(source_up, pi, members, sig, order, up)

    monkeypatch.setattr(filtration, "_truth_walk", counting_truth)
    monkeypatch.setattr(filtration, "_order_witness", counting_order)
    fork = fork_model()
    chain = model_from_dict(
        {"worlds": 3, "leq": [[0, 1], [1, 2]], "N": {"0": 7, "4": 6, "6": 4, "7": 0}, "valuation": {"p": 6, "q": 4}}
    )
    # two worlds, unrelated: the projected order is discrete and the
    # greatest one puts the class where p fails below the other
    antichain = model_from_dict({"worlds": 2, "leq": [], "N": {"0": 3, "1": 3, "2": 0, "3": 0}, "valuation": {"p": 1}})
    first = close_sigma([parse("~p -> ~~p")])
    second = close_sigma([parse("~(p & ~p) | ~~p")])
    pairs = [(m, sigma) for m in (fork, chain, antichain) for sigma in (first, second)]
    counts = []
    for m, sigma in pairs:
        decided.clear()
        r = greatest_filtration(m, sigma)
        assert check_conditions(m, r) is None
        assert filtration_theorem_check(m, r) is None
        every = enumerate_filtrations(m, sigma)
        assert all(greatest_among(m, sigma, f) for f in every)
        assert all(check_conditions(m, f) is None for f in every)
        orders = list(dict.fromkeys(f.quotient.frame.poset.up for f in [r, *every]))
        assert decided == orders
        counts.append((len(every), len(decided)))
    assert counts == [(4, 1), (4, 1), (8, 1), (8, 1), (8, 2), (8, 2)]
    assert reads == pairs


def _on_other_orders(g):
    """g's classes, projection and valuation on every other order of
    its classes that keeps the valuation an upset, each with g's table
    value at the sets that are upsets in both orders and 0 elsewhere."""
    q = g.quotient
    out = []
    for qposet in enumerate_posets(g.classes()):
        if qposet == q.frame.poset:
            continue
        table = [-1] * len(q.frame.ntable)
        for x in qposet.upsets():
            table[x] = max(q.frame.ntable[x], 0)
        try:
            out.append(FiltrationResult(NModel(NFrame(qposet, tuple(table)), q.valuation), g.pi, g.sigma))
        except ValueError:
            continue
    return out


def _relabeled(g):
    """g with its classes numbered in each other way, class c becoming
    class perm[c]: projection, order, table and valuation moved along.
    Each is a filtration that does not project by the read's pi."""
    q = g.quotient
    k = g.classes()
    out = []
    for perm in itertools.permutations(range(k)):
        if perm == tuple(range(k)):
            continue
        up = [0] * k
        for c, cone in enumerate(q.frame.poset.up):
            up[perm[c]] = _push_mask(cone, perm)
        qposet = Poset(k, up)
        table = [-1] * len(q.frame.ntable)
        for x in q.frame.poset.upsets():
            table[_push_mask(x, perm)] = _push_mask(q.frame.ntable[x], perm)
        valuation = {name: _push_mask(value, perm) for name, value in q.valuation.items()}
        pi = tuple(perm[c] for c in g.pi)
        out.append(FiltrationResult(NModel(NFrame(qposet, tuple(table)), valuation), pi, g.sigma))
    return out


def _with_an_empty_class(g):
    """g with one more class, above none and below none, that no world
    projects to."""
    q = g.quotient
    k = g.classes()
    qposet = Poset(k + 1, (*q.frame.poset.up, 1 << k))
    table = {x: q.frame.ntable[x & ~(1 << k)] for x in qposet.upsets()}
    frame = NFrame(qposet, ntable_from_upset_map(qposet, table))
    return FiltrationResult(NModel(frame, q.valuation), g.pi, g.sigma)


def _all_three(m, sigma, r):
    return (
        outcome(check_conditions, m, r),
        outcome(filtration_theorem_check, m, r),
        outcome(greatest_among, m, sigma, r),
    )


def _reference_three(m, sigma, r):
    return (
        outcome(ref.check_conditions, m, r),
        outcome(ref.filtration_theorem_check, m, r),
        outcome(ref.greatest_among, m, sigma, r),
    )


def test_shared_reads_match_the_reference_witness_for_witness():
    # the candidates share the read's projection, as the same tuple or an
    # equal one, on a warm model and after its valuation changed in place;
    # the relabeled ones are filtrations that number the classes another
    # way, which only a read projected for them serves; every violation
    # kind is reached, and each answer is the reference's, but for
    # "onto", which the reference does not know
    rng = random.Random(48)
    kinds = collections.Counter()
    models = stale = relabeled = 0
    mismatch = "projection mismatch: same model and sigma expected"
    for _ in range(120):
        m = random_model(rng, max_worlds=3)
        sigma = close_sigma([random_formula(rng, ("p", "q"), 3)])
        every = enumerate_filtrations(m, sigma)
        # a handful of models have thousands of filtrations
        if len(every) > 200:
            continue
        models += 1
        g = greatest_filtration(m, sigma)
        renumbered = _relabeled(g)
        relabeled += len(renumbered)
        for r in renumbered:
            assert _all_three(m, sigma, r) == (("ok", None), ("ok", None), ("ValueError", mismatch))
        candidates = every + _on_other_orders(g) + [_corrupted(rng, g) for _ in range(3 * (g.classes() >= 2))]
        candidates += [_with_an_empty_class(g), *renumbered]
        for changed in (False, True):
            if changed:
                # a valuation changed in place makes the kept read stale;
                # the next call must read Sigma again
                name = min(g.quotient.valuation, default="p")
                upsets = m.frame.poset.upsets()
                m.valuation[name] = rng.choice([u for u in upsets if u != m.valuation[name]] or upsets)
                stale += _key(greatest_filtration(NModel(m.frame, dict(m.valuation)), sigma)) != _key(g)
            for r in candidates:
                got = _all_three(m, sigma, r)
                hit = got[0][1]
                kinds[None if hit is None else hit[0]] += 1
                if hit is not None and hit[0] == "onto":
                    assert hit == ("onto", (g.classes(),))
                    assert got[2] == ("ValueError", f"not a filtration: condition (onto) fails at {hit[1]}")
                    assert got[1] == outcome(ref.filtration_theorem_check, m, r)
                else:
                    assert got == _reference_three(m, sigma, r)
                assert _all_three(NModel(m.frame, dict(m.valuation)), sigma, r) == got
                assert _all_three(m, sigma, FiltrationResult(r.quotient, tuple(list(r.pi)), r.sigma)) == got
    assert models >= 110
    assert stale >= 80
    assert relabeled >= 90
    assert set(kinds) == {None, "onto", "a", "b", "c", "d", "v"}


def test_a_read_made_for_another_projection_is_never_kept():
    m = fork_model()
    sigma = close_sigma([parse("~p")])
    g = greatest_filtration(m, sigma)
    (relabeled,) = _relabeled(g)
    # p -> ~~p fails at world 0, which sees world 1, and holds at world 2
    finer = greatest_filtration(m, close_sigma([*sigma, parse("p -> ~~p")]))
    finer = FiltrationResult(finer.quotient, finer.pi, sigma)
    assert (g.pi, relabeled.pi, finer.pi) == ((0, 1, 0), (1, 0, 1), (0, 1, 2))
    assert check_conditions(m, g) is None
    kept = vars(m)["_read"]
    orders = list(kept.orders)
    assert kept.sigma is sigma
    for r in (relabeled, finer):
        assert check_conditions(m, r) is None
        assert ref.check_conditions(m, r) is None
        with pytest.raises(ValueError, match="projection mismatch"):
            greatest_among(m, sigma, r)
    assert vars(m)["_read"] is kept
    assert list(kept.orders) == orders


# --------------------------------------------------------------------------
# a closure from close_sigma, its own walk, against a set of its members


def _sigma_formulas(rng):
    """Formula lists to close: parsed ones (one Var per name, <->, ~),
    random_formula ones (no node shared) and several at once."""
    texts = ["(p <-> q) -> (~q <-> ~p)", "~(p -> ~p) | ~~p", "(p & ~p) -> ~q", "~T & ~(q | p)", "~p"]
    out = [[parse(t)] for t in texts]
    out += [[parse(a), parse(b)] for a, b in zip(texts, texts[1:])]
    out += [[random_formula(rng, ("p", "q"), 3)] for _ in range(30)]
    out += [[random_formula(rng, ("p", "q"), 3) for _ in range(3)] for _ in range(15)]
    return out


def _candidates(rng, m, sigma):
    """The greatest filtration and candidates against it that reach every
    witness of check_conditions, each with Sigma as given."""
    g = greatest_filtration(m, sigma)
    out = [g, *_on_other_orders(g), *_relabeled(g), _with_an_empty_class(g)]
    out += [_corrupted(rng, g) for _ in range(3 * (g.classes() >= 2))]
    if g.classes() <= 2:
        out += enumerate_filtrations(m, sigma)
    return out


def _answers(m, sigma, candidates):
    """Every answer and witness the filtration layer gives on the
    candidates, each carrying sigma: the greatest filtration, the
    enumerated ones on at most two classes, and per candidate its
    check_conditions, theorem check and greatest_among outcomes."""
    g = greatest_filtration(m, sigma)
    every = [_key(r) for r in enumerate_filtrations(m, sigma)] if g.classes() <= 2 else None
    checks = [_all_three(m, sigma, dataclasses.replace(r, sigma=sigma)) for r in candidates]
    return _key(g), every, checks


def test_a_set_sigma_answers_as_its_ordered_tuple():
    # a set of Sigma's members is put in one order at entry, the walk of
    # its maximal members taken by show, and then answers, witness for
    # witness and on a model of its own, as that tuple does; a set of one
    # formula's closure is put in that formula's walk, close_sigma's order
    rng = random.Random(49)
    kinds = collections.Counter()
    corpus = algebra_corpus(2)
    for formulas in _sigma_formulas(rng):
        sigma = close_sigma(formulas)
        plain = frozenset(sigma)
        ordered = syntax._ordered(plain)
        assert type(ordered) is type(sigma) and len(ordered) == len(sigma) and set(ordered) == plain
        assert ordered == sigma or len(formulas) > 1
        for _ in range(6):
            m = random_model(rng, max_worlds=3)
            twin = NModel(m.frame, dict(m.valuation))
            candidates = _candidates(random.Random(rng.random()), m, ordered)
            got = _answers(m, ordered, candidates)
            assert got == _answers(twin, plain, candidates)
            for (_, hit), _, _ in got[2]:
                kinds[None if hit is None else hit[0]] += 1
        for _ in range(2):
            a = rng.choice(corpus)
            mu = {"p": rng.randrange(a.size), "q": rng.randrange(a.size)}
            for fn in (least_filtration_correspondence, sublattice_filtration):
                assert outcome(fn, a, mu, ordered) == outcome(fn, a, mu, plain)
    assert set(kinds) == {None, "onto", "a", "b", "c", "d", "v"}


def test_a_kept_walk_raises_the_errors_of_a_plain_sigma():
    m = fork_model()  # values p alone
    open_sigma = frozenset(close_sigma([parse("~p -> ~~p")])) - {parse("~p")}
    cases = [
        (open_sigma, "sigma is not subformula-closed: "),
        (close_sigma([parse("~p | q")]), "model does not value variable q"),
        (close_sigma([parse("[]p -> p", "modal")]), "box in a propositional compilation"),
    ]
    for sigma, message in cases:
        want = outcome(ref.greatest_filtration, m, syntax._ordered(sigma))
        assert want[0] == "ValueError" and want[1].startswith(message)
        if sigma is open_sigma:
            # p, ~~p, ~p -> ~~p: the first member in that order that
            # misses a subformula, and the operand it misses
            want = ("ValueError", message + "~~p needs ~p")
        for s in (sigma, frozenset(sigma)):
            for fn in (greatest_filtration, enumerate_filtrations):
                assert outcome(fn, m, s) == want


def _count_walks(monkeypatch):
    """The node counts of every syntax._postorder walk from here on."""
    walked = []
    real = syntax._postorder

    def counting(formulas, seen=()):
        order = real(formulas, seen)
        walked.append(len(order))
        return order

    for module in (syntax, frames):
        monkeypatch.setattr(module, "_postorder", counting)
    return walked


def test_a_kept_walk_is_read_without_walking_sigma_again(monkeypatch):
    m = fork_model()
    sigma = close_sigma([parse("~(p -> ~p) | ~~p"), parse("~p & (p -> p)")])
    walked = _count_walks(monkeypatch)
    r = greatest_filtration(m, sigma)
    assert check_conditions(m, r) is None
    assert filtration_theorem_check(m, r) is None
    assert all(greatest_among(m, sigma, f) for f in enumerate_filtrations(m, sigma))
    assert walked == []
    # a plain frozenset is walked once, when it is put in order, and is
    # then its own walk
    plain = frozenset(sigma)
    assert filtration_theorem_check(m, greatest_filtration(m, plain)) is None
    assert len(walked) == 1


def test_sigma_errors_and_names_cost_one_walk(monkeypatch):
    # a flat p & ... & p & q: walking each member apart, or compiling
    # each, costs |Sigma|^2 / 2 nodes; reading the names and the first
    # failing formula off one walk costs |Sigma|. Each Sigma is parsed
    # anew, since a walked member keeps its order.
    n = 400
    walked = _count_walks(monkeypatch)
    compiles = []
    real_compile = frames.compile_prop
    monkeypatch.setattr(frames, "compile_prop", lambda f, names: compiles.append(f) or real_compile(f, names))
    m = fork_model()

    def sigmas(text, language="prop"):
        return close_sigma([parse(text, language)]), frozenset(close_sigma([parse(text, language)]))

    cases = [
        ("model does not value variable q", sigmas(" & ".join(["p"] * n + ["q"]))),
        ("box in a propositional compilation", sigmas(" & ".join(["p"] * n + ["[]p"]), "modal")),
    ]
    for message, both in cases:
        for s in both:
            walked.clear()
            compiles.clear()
            with pytest.raises(ValueError, match=message):
                greatest_filtration(m, s)
            assert sum(walked) <= 2 * len(s) and len(compiles) <= 1
    a = algebra_corpus(2)[3]
    flat = " & ".join(["p"] * n)
    want = outcome(sublattice_filtration, a, {"p": 1}, close_sigma([parse(flat)]))
    assert want[0] == "ok"
    for fn, expected in ((sublattice_filtration, want), (least_filtration_correspondence, ("ok", True))):
        for s in sigmas(flat):
            walked.clear()
            assert outcome(fn, a, {"p": 1}, s) == expected
            # a plain frozenset is walked once, to be ordered; a closure is its own walk
            assert walked == ([len(s)] if type(s) is frozenset else [])


def test_a_closed_sigma_pickles_and_copies_as_itself():
    # being closed and its own walk is structural, so a copy is too and
    # is taken as it is
    sigma = close_sigma([parse("~p -> ~~p"), parse("p & ~T")])
    r = greatest_filtration(fork_model(), sigma)
    for other in (pickle.loads(pickle.dumps(sigma)), copy.copy(sigma), copy.deepcopy(sigma)):
        assert type(other) is type(sigma) and other == sigma and syntax._ordered(other) is other
    for other in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert type(other.sigma) is type(sigma) and _key(other) == _key(r)
    # a shallow copy shares its fields, so the Sigma object
    assert copy.copy(r).sigma is sigma


def test_a_model_pickles_and_copies_without_its_reads():
    # the read keys its truth sets by node ids and holds its Sigma
    # object, which mean nothing in another model or process
    m = fork_model()
    sigma = close_sigma([parse("~p -> ~~p")])
    want = _key(greatest_filtration(m, sigma))
    assert "_read" in vars(m)
    for other in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert "_read" not in vars(other)
        assert (other.frame, dict(other.valuation)) == (m.frame, dict(m.valuation))
        assert _key(greatest_filtration(other, sigma)) == want


# ---------------------------------------------------------------------------
# one order for a set Sigma, whatever order it iterates in

# k objects are allocated before the package is imported and again before
# the formulas are built, so the nodes live elsewhere in each run and a
# set of them iterates in another order
_DRIFT = """
import sys
junk = [[] for _ in range(int(sys.argv[1]))]
from subminimal.filtration import FiltrationResult, check_conditions, close_sigma
from subminimal.frames import NFrame, NModel, Poset, truth_sets
from subminimal.syntax import parse, show
more = [[] for _ in range(int(sys.argv[1]))]
point = NFrame(Poset.from_pairs(1, []), (1, 0))
# a 2-world chain with p and q true at the top world, both worlds in one class
chain = NModel(NFrame(Poset.from_pairs(2, [(0, 1)]), (3, -1, 1, 0)), {"p": 2, "q": 2})
one = NModel(point, {"p": 1, "q": 1})
kind, (w, v, f) = check_conditions(chain, FiltrationResult(one, (0, 0), frozenset(close_sigma([parse("p"), parse("q")]))))
print(kind, w, v, show(f))
# ~p and ~q hold at the one world and the quotient negates nothing
both = NModel(NFrame(Poset.from_pairs(1, []), (1, 1)), {"p": 1, "q": 1})
empty = NModel(NFrame(Poset.from_pairs(1, []), (0, 0)), {"p": 1, "q": 1})
kind, (w, f) = check_conditions(both, FiltrationResult(empty, (0,), frozenset(close_sigma([parse("~q"), parse("~p")]))))
print(kind, w, show(f))
try:
    truth_sets(NModel(point, dict.fromkeys("pqrs", 1)), frozenset(parse(t, "modal") for t in ("[]p", "[n]q", "[]r", "[n]s")))
except ValueError as exc:
    print(exc)
sigma = frozenset(close_sigma([parse("~p -> ~~q"), parse("q & ~p")]))
print(*map(show, truth_sets(NModel(point, {"p": 1, "q": 0}), sigma)), sep="; ")
"""


def test_a_set_sigma_answers_the_same_under_every_allocation_history_and_hash_seed():
    src = str(pathlib.Path(subminimal.__file__).resolve().parents[1])
    found = set()
    for k in (0, 1, 7, 50, 300, 2000):
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            argv = [sys.executable, "-c", _DRIFT, str(k)]
            found.add(subprocess.run(argv, capture_output=True, text=True, env=env, check=True).stdout)
    # the (b) witness names Sigma's first member and the (d) witness its
    # first negation, ~p, its maximal members being ~p and ~q; the set
    # of four modal formulas is in show order, so []p is compiled first;
    # a set of a closure is the walk of its maximal members, q & ~p
    # before ~p -> ~~q
    assert found == {
        "b 1 0 p\n"
        "d 0 ~p\n"
        "box in a propositional compilation\n"
        "q; p; ~p; q & ~p; ~q; ~~q; ~p -> ~~q\n"
    }
