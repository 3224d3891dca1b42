"""No public entry point leaves cyclic garbage behind.

A closure that names itself, such as a recursive helper defined inside
the function that calls it, is a reference cycle: everything it reaches
outlives the call until the cyclic collector runs. On the per-call
paths every evaluator and search is freed by reference counting
instead, so after one call the collector finds nothing. Each case
builds its inputs first; only the call runs with the collector off,
and the count of unreachable objects a full collection then finds is
exact, so a cycle brought back fails here.
"""

import gc

import pytest

from subminimal import cli
from subminimal.algebra import (
    duality_check,
    enumerate_topframes,
    least_filtration_correspondence,
    nalgebra_isomorphic,
    nalgebra_isomorphisms,
    topframe_isomorphic,
    upset_algebra,
)
from subminimal.antichain import build_delta, extend_positive, order_onto, positive_morphism
from subminimal.filtration import (
    check_conditions,
    close_sigma,
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
    canonical_poset_key,
    countermodel_search,
    eval_formula,
    formula_evaluator,
    model_from_dict,
    nframe_isomorphic,
    ntable_from_upset_map,
    poset_isomorphisms,
    truth_sets,
)
from subminimal.modal import (
    HilbertProof,
    NS4Model,
    ProofLine,
    check_proof,
    lift_nstar,
    ns4_eval,
    ns4_frame_validates,
    ns4_from_dict,
    ns4_refuting_valuation,
    translation_gap_search,
    translation_preservation,
)
from subminimal.syntax import parse

FORMULA = parse("~(p -> ~q) | (~~p & q)")
SIGMA = close_sigma([FORMULA])
CHAIN2 = Poset.from_pairs(2, [(0, 1)])


def fork_model():
    # 0 below 1 and 2; every proper upset is negated to the whole frame
    return model_from_dict(
        {
            "worlds": 3,
            "leq": [[0, 1], [0, 2]],
            "N": {"0": 7, "2": 7, "4": 7, "6": 7, "7": 0},
            "valuation": {"p": 2, "q": 4},
        }
    )


def chain_frame():
    # intuitionistic negation on the chain 0 < 1 < 2
    chain = Poset.from_pairs(3, [(0, 1), (1, 2)])
    return NFrame(chain, ntable_from_upset_map(chain, {0: 7, 4: 0, 6: 0, 7: 0}))


def diamond():
    return Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def diamond_frame():
    # every proper upset negated to the top world: the swap of the two
    # middle worlds, twins, carries the table onto itself
    p = diamond()
    return NFrame(p, ntable_from_upset_map(p, {u: 8 if u != 15 else 0 for u in p.upsets()}))


def _on_a_fresh_model(fn):
    return lambda: (fn, (fork_model(), SIGMA))


def _on_the_greatest_filtration(fn):
    def build():
        m = fork_model()
        g = greatest_filtration(fork_model(), SIGMA)
        return fn, (m, SIGMA, g) if fn is greatest_among else (m, g)

    return build


def _refused_check(m, r):
    try:
        filtration_theorem_check(m, r)
    except ValueError as exc:
        assert str(exc) == "model does not value variable q"
    else:
        raise AssertionError("the check evaluated an unvalued variable")


def _filtration_theorem_check_raising():
    # the error path: Sigma holds q, which the model leaves unvalued, and
    # the error raised has the formulas' other errors kept beside it
    m = fork_model()
    unvalued = NModel(m.frame, {"p": m.valuation["p"]})
    return _refused_check, (unvalued, greatest_filtration(m, SIGMA))


def _countermodel_search():
    # the first call builds the process-wide frame stream
    countermodel_search(LOGICS["n"], parse("p | ~p"), 3)
    return countermodel_search, (LOGICS["n"], parse("~~q -> q"), 3)


def _cli_decide():
    cli.main(["decide", "p -> p", "--logic", "n"])
    return cli.main, (["decide", "~~p -> p", "--logic", "n", "--max-worlds", "3"],)


def _ns4_frame_validates():
    return ns4_frame_validates, (lift_nstar(chain_frame()), parse("[](p -> q) -> []p -> []q", "modal"))


def hand_ns4_frame():
    # two unrelated worlds, N(X) = {1} everywhere: [n]p -> p fails at 1
    return ns4_from_dict({"worlds": 2, "rel": [[0, 0], [1, 1]], "N": {str(x): 2 for x in range(4)}})


def _ns4_refuting_valuation():
    # the first call fills the layout memo and the formula's code slot
    fr, f = hand_ns4_frame(), parse("[n]p -> p", "modal")
    assert ns4_refuting_valuation(fr, f) == ({"p": 0}, 1)
    return ns4_refuting_valuation, (fr, f)


def _ns4_eval():
    m, f = NS4Model(hand_ns4_frame(), {"p": 0}), parse("[n]p -> p", "modal")
    ns4_refuting_valuation(m.frame, f)
    return ns4_eval, (m, f)


def _check_proof():
    line = ProofLine(parse("([]p & []q) -> []p", "modal"), "taut")
    return check_proof, (HilbertProof("ns4", (line,)),)


CASES = {
    "truth_sets": _on_a_fresh_model(truth_sets),
    "eval_formula": lambda: (eval_formula, (fork_model(), FORMULA)),
    "formula_evaluator": lambda: (lambda m: formula_evaluator(m)(FORMULA), (fork_model(),)),
    # the parser lists the nodes it builds and hands their walk over
    "parse": lambda: (parse, ("~[]p <-> (q -> ~p)", "modal")),
    "close_sigma": lambda: (close_sigma, ([FORMULA],)),
    "close_sigma_of_several": lambda: (close_sigma, ([FORMULA, parse("~p -> q")],)),
    "greatest_filtration": _on_a_fresh_model(greatest_filtration),
    "greatest_filtration_plain_sigma": lambda: (greatest_filtration, (fork_model(), frozenset(SIGMA))),
    "enumerate_filtrations": _on_a_fresh_model(enumerate_filtrations),
    "check_conditions": _on_the_greatest_filtration(check_conditions),
    "filtration_theorem_check": _on_the_greatest_filtration(filtration_theorem_check),
    "filtration_theorem_check_raising": _filtration_theorem_check_raising,
    "greatest_among": _on_the_greatest_filtration(greatest_among),
    "countermodel_search": _countermodel_search,
    "cli_decide": _cli_decide,
    "duality_check_topframe": lambda: (duality_check, (enumerate_topframes(CHAIN2)[-1],)),
    "duality_check_algebra": lambda: (duality_check, (upset_algebra(chain_frame()),)),
    "least_filtration_correspondence_plain_sigma": lambda: (
        least_filtration_correspondence,
        (upset_algebra(chain_frame()), {"p": 1, "q": 2}, frozenset(SIGMA)),
    ),
    "least_filtration_correspondence": lambda: (
        least_filtration_correspondence,
        (upset_algebra(chain_frame()), {"p": 1, "q": 2}, SIGMA),
    ),
    "translation_preservation": lambda: (translation_preservation, (fork_model(), FORMULA)),
    "translation_gap_search": lambda: (translation_gap_search, (chain_frame(), 2)),
    "ns4_frame_validates": _ns4_frame_validates,
    "ns4_refuting_valuation": _ns4_refuting_valuation,
    "ns4_eval": _ns4_eval,
    "positive_morphism": lambda: (positive_morphism, (CHAIN2, build_delta(1).poset)),
    # both 9-world posets are fresh, so the call builds both profiles;
    # the chain's depth dominates, and its signature refuses the pair
    "positive_morphism_refused": lambda: (
        positive_morphism,
        (build_delta(1).poset, Poset.from_pairs(9, [(w, w + 1) for w in range(8)])),
    ),
    "extend_positive": lambda: (extend_positive, (CHAIN2, diamond(), {0: 0, 1: 1, 2: 1, 3: 1})),
    "order_onto": lambda: (order_onto, (Poset.from_pairs(3, [(0, 1), (0, 2)]), diamond())),
    "check_proof": _check_proof,
    "poset_isomorphisms": lambda: (lambda p, q: list(poset_isomorphisms(p, q)), (diamond(), diamond())),
    "canonical_poset_key": lambda: (canonical_poset_key, (diamond(),)),
    "nalgebra_isomorphic": lambda: (
        nalgebra_isomorphic,
        (upset_algebra(chain_frame()), upset_algebra(chain_frame())),
    ),
    "nalgebra_isomorphisms": lambda: (
        lambda a, b: list(nalgebra_isomorphisms(a, b)),
        (upset_algebra(diamond_frame()), upset_algebra(diamond_frame())),
    ),
    "nframe_isomorphic": lambda: (nframe_isomorphic, (diamond_frame(), diamond_frame())),
    "topframe_isomorphic": lambda: (
        topframe_isomorphic,
        (enumerate_topframes(diamond())[-1], enumerate_topframes(diamond())[-1]),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_call_leaves_no_cyclic_garbage(name, capsys):
    # capsys takes what cli.main prints
    fn, args = CASES[name]()
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
