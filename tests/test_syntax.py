"""Parser, printer, and formula utilities."""

import copy
import gc
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import kernel_reference
import subminimal
import syntax_reference
from subminimal.syntax import (
    AXIOM_COPC,
    AXIOM_MPC,
    AXIOM_N,
    AXIOM_NEF,
    LOGICS,
    And,
    BBox,
    Bot,
    Box,
    Imp,
    Neg,
    Or,
    ParseError,
    Top,
    Var,
    chain_axioms,
    compile_modal,
    compile_prop,
    compiled,
    depth,
    godel_translate,
    is_instance_of,
    parse,
    show,
    subformulas,
    variables,
)
from subminimal import syntax
from subminimal.algebra import algebra_eval, upset_algebra
from subminimal.filtration import check_conditions, close_sigma, greatest_filtration
from subminimal.frames import NFrame, NModel, Poset, _imp_mask, enumerate_ntables, eval_formula
from subminimal.frames import formula_evaluator, truth_sets
from subminimal.modal import (
    AXIOM_BBOX_CONTRA,
    NS4_AXIOMS,
    HilbertProof,
    ProofLine,
    check_proof,
    translation_preservation,
)
from syntax_helpers import random_formula, subformula_closure, substitute


def test_atoms_and_constants():
    assert parse("p") == Var("p")
    assert parse("T") == Top()
    assert parse("x_1") == Var("x_1")
    assert parse("F", "modal") == Bot()


def test_structure_of_connectives():
    f = parse("~p & q -> p | T")
    assert f == Imp(And(Neg(Var("p")), Var("q")), Or(Var("p"), Top()))


def test_str_is_show():
    rng = random.Random(28)
    seen = set()
    for i in range(400):
        language = "modal" if i % 2 else "prop"
        f = random_formula(rng, ["p", "q"], rng.randrange(5), language)
        assert str(f) == show(f)
        seen.update(type(g).__name__ for g in subformula_closure(f))
    assert seen == {"Var", "Top", "Bot", "Neg", "And", "Or", "Imp", "Box", "BBox"}


def test_precedence_strings_round_trip():
    for text in [
        "p & q & r",
        "p | q & r",
        "(p | q) & r",
        "p -> q -> r",
        "(p -> q) -> r",
        "~p & q",
        "~(p & q)",
        "~~p",
        "p & (q | r) -> ~p",
    ]:
        f = parse(text)
        assert show(f) == text
        assert parse(show(f)) == f


def test_show_matches_the_recursive_printer():
    rng = random.Random(39)
    for i in range(1800):
        language = "modal" if i % 2 else "prop"
        f = random_formula(rng, ("p", "q", "r"), i % 9, language)
        assert show(f) == syntax_reference.show(f), f


def test_show_refuses_a_non_formula_at_the_root_and_in_every_operand():
    # an operand that is no formula, a str among them, is never printed
    # as text
    p, q = Var("p"), Var("q")
    for bad in ("p", "p & q", 3, None, (p,), b"q"):
        places = [bad, And(bad, q), And(p, bad), Or(bad, q), Or(p, bad), Imp(bad, q), Imp(p, bad)]
        places += [Neg(bad), Box(bad), BBox(bad), Imp(And(p, Neg(bad)), q), Or(q, Box(Imp(p, bad)))]
        for f in places:
            with pytest.raises(TypeError) as info:
                show(f)
            assert str(info.value) == f"not a formula: {bad!r}"


def test_and_or_left_associative_imp_right():
    assert parse("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))
    assert parse("p -> q -> r") == Imp(Var("p"), Imp(Var("q"), Var("r")))


def test_iff_desugars():
    assert show(parse("p <-> q")) == "(p -> q) & (q -> p)"
    assert show(AXIOM_N) == "(p -> q) & (q -> p) -> (~p -> ~q) & (~q -> ~p)"


def test_modal_negation_desugars_to_bot():
    f = parse("~p", "modal")
    assert f == Imp(Var("p"), Bot())
    assert show(f) == "p -> F"
    assert parse(show(f), "modal") == f
    assert parse("[n][]p", "modal") == BBox(Box(Var("p")))
    assert show(parse("[n] [] p", "modal")) == "[n][]p"


def test_prop_language_rejects_modal_tokens():
    for bad in ["[]p", "[n]p", "F", "p -> []q"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_positions():
    with pytest.raises(ParseError, match=r"expected a formula \(at position 6\)"):
        parse("p -> (")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("(p -> q")
    with pytest.raises(ParseError):
        parse("p -> $")
    # at any depth: the reference parser recurses, so these are pinned here
    text = "(" * DEEP + "p"
    with pytest.raises(ParseError, match=rf"expected closing parenthesis \(at position {len(text)}\)"):
        parse(text)
    with pytest.raises(ParseError, match=rf"trailing input \(at position {DEEP + 2}\)"):
        parse("~" * DEEP + "p q")


# the token alphabet, spaces of several kinds and near misses: word
# characters no token takes, T before a word character, a box with a
# space inside and arrows cut short
FUZZ_PIECES = [
    "p", "q", "r1", "x_y", "pT", "T", "F", "~", "&", "|", "->", "<->", "[]", "[n]", "(", ")",
    " ", "\t", "\n", "\u2003", "Té", "pé", "_p", "1p", "[ ]", "<-", "-", "[", "]", "n", "é", "$",
]


def _parsed(parser, text, language):
    """The tree parsed, or the error as type, message and position."""
    try:
        return ("ok", parser(text, language))
    except ParseError as exc:
        return ("ParseError", exc.message, exc.position, str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_parse_matches_the_reference_parser():
    rng = random.Random(25)
    texts = []
    for _ in range(3_000):
        texts.append("".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randrange(10))))
        text = show(random_formula(rng, ["p", "q"], rng.randrange(5), rng.choice(["prop", "modal"])))
        k = rng.randrange(len(text) + 1)
        texts += [text, text[:k] + rng.choice(FUZZ_PIECES) + text[k + rng.randrange(2) :]]
    messages = set()
    for text in texts:
        for language in ("prop", "modal", "classical"):
            got = _parsed(parse, text, language)
            assert got == _parsed(syntax_reference.parse, text, language), (text, language)
            if got[0] == "ParseError":
                messages.add(got[1])
    assert messages == {
        "unexpected character",
        "expected a formula",
        "expected closing parenthesis",
        "trailing input",
        "modal operator outside the modal language",
        "falsum outside the modal language",
    }


def test_parse_shares_one_var_per_name():
    f = parse("p & q -> p | ~q")
    assert f.left.left is f.right.left and f.left.right is f.right.right.sub
    assert f == Imp(And(Var("p"), Var("q")), Or(Var("p"), Neg(Var("q"))))
    assert pickle.loads(pickle.dumps(f)) == f and show(f) == "p & q -> p | ~q"
    assert parse("p").name == "p" and parse("p") is parse("p") is Var("p")


def _walk_order(f, seen=None, out=None):
    """The children first order by its definition: each node object
    once, where a recursive walk that skips what it met leaves it."""
    seen, out = set() if seen is None else seen, [] if out is None else out
    if id(f) not in seen:
        seen.add(id(f))
        for child in (f.left, f.right) if isinstance(f, (And, Or, Imp)) else (
            (f.sub,) if isinstance(f, (Neg, Box, BBox)) else ()
        ):
            _walk_order(child, seen, out)
        out.append(f)
    return out


def test_subformulas_is_the_order_a_recursive_walk_leaves_nodes_in():
    # on parsed formulas, which keep the order the parser built them in,
    # and on formulas built by hand, which get it from the walk
    rng = random.Random(29)
    for i in range(2000):
        language = "modal" if i % 2 else "prop"
        f = random_formula(rng, ["p", "q", "r"], rng.randrange(6), language)
        text = show(f) if i % 3 else show(f).replace(" & ", " <-> ", 1)
        for g in (f, parse(text, language)):
            want = _walk_order(g)
            assert len(subformulas(g)) == len(want)
            assert all(a is b for a, b in zip(subformulas(g), want)), text


def test_parse_rejects_unknown_language():
    with pytest.raises(ValueError):
        parse("p", "classical")


def test_variables_sorted_and_deduplicated():
    assert variables(parse("q & p | q -> z_0")) == ("p", "q", "z_0")
    assert variables(Top()) == ()


def test_depth():
    assert depth(Var("p")) == 0
    assert depth(parse("~p")) == 1
    assert depth(AXIOM_N) == 4


def test_subformula_closure():
    sigma = subformula_closure(AXIOM_MPC)
    assert parse("p -> ~p") in sigma
    assert Var("p") in sigma
    for f in sigma:
        assert subformula_closure(f) <= sigma
    assert len(subformula_closure(parse("p & q"))) == 3


def test_substitute():
    f = substitute(AXIOM_COPC, {"p": parse("p & p"), "q": Top()})
    assert f == parse("(p & p -> T) -> (~T -> ~(p & p))")
    assert substitute(Top(), {"p": Bot()}) == Top()


def test_is_instance_of():
    assert is_instance_of(AXIOM_COPC, AXIOM_COPC)
    assert is_instance_of(parse("(q -> q) -> (~q -> ~q)"), AXIOM_COPC)
    assert is_instance_of(
        parse("(p & q -> ~r) -> (~~r -> ~(p & q))"), AXIOM_COPC
    )
    assert not is_instance_of(parse("(p -> q) -> (~p -> ~q)"), AXIOM_COPC)
    assert not is_instance_of(parse("p -> p"), AXIOM_MPC)


def test_chain_axioms_orders_the_ladder():
    assert chain_axioms(LOGICS["n"]) == (AXIOM_N,)
    assert chain_axioms(LOGICS["mpc"]) == (AXIOM_N, AXIOM_NEF, AXIOM_COPC, AXIOM_MPC)


def test_godel_translate_clauses():
    assert show(godel_translate(parse("~p"))) == "[n][]p"
    assert show(godel_translate(parse("~(p & q)"))) == "[n]([]p & []q)"
    assert godel_translate(Var("p")) == Box(Var("p"))
    assert godel_translate(Top()) == Top()
    assert show(godel_translate(parse("p -> q"))) == "[]([]p -> []q)"


def test_random_formula_deterministic_and_bounded():
    a = random_formula(random.Random(7), ("p", "q"), 3)
    b = random_formula(random.Random(7), ("p", "q"), 3)
    assert a == b
    rng = random.Random(0)
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), 4)
        assert depth(f) <= 4
        assert set(variables(f)) <= {"p", "q", "r"}
        assert parse(show(f)) == f


def test_random_formula_modal_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        f = random_formula(rng, ("p", "q"), 4, "modal")
        assert parse(show(f), "modal") == f


def test_round_trip_is_identity_on_hand_formulas():
    for axiom in (AXIOM_N, AXIOM_NEF, AXIOM_COPC, AXIOM_MPC):
        assert parse(show(axiom)) == axiom


# ---------------------------------------------------------------------------
# one object per formula, and its hash


def test_equal_formulas_are_one_object_however_built():
    rng = random.Random(30)
    for i in range(1000):
        language = "modal" if i % 2 else "prop"
        f = random_formula(rng, ("p", "q", "r"), rng.randrange(6), language)
        g = parse(show(f), language)
        assert g is f and subformulas(g) == subformulas(f)
        assert len(subformulas(f)) == len(subformula_closure(f))
    assert parse("p <-> q") is And(Imp(Var("p"), Var("q")), Imp(Var("q"), Var("p")))
    assert parse("~p", "modal") is Imp(Var("p"), Bot()) and Top() is Top() is not Bot()


def test_a_parse_lists_a_recurring_node_once():
    f = parse("(p & q | r) -> (p & q | r) & ~(p & q)")
    assert f.left is f.right.left and f.left.left is f.right.right.sub
    # the parse keeps its walk on the root, and subformulas gives it back
    order = subformulas(f)
    assert f._code[0] == order[:-1]
    assert [show(g) for g in subformulas(f)] == [
        "p", "q", "p & q", "r", "p & q | r", "~(p & q)", "(p & q | r) & ~(p & q)", show(f),
    ]
    assert len(compiled(f)[1]) == 3 * 8


def test_a_parse_hands_over_the_walk_postorder_builds():
    # the names are the test's own and each formula is dropped before
    # the next, so a root holding a variable is new: its kept order is
    # the one its parse listed, and the parse walks nothing itself
    rng = random.Random(43)
    names = ("walk_a", "walk_b", "walk_c")
    walks = []
    spy = lambda formulas, seen=(): walks.append(formulas) or postorder(formulas, seen)
    postorder, syntax._postorder = syntax._postorder, spy
    try:
        for i in range(2400):
            language = ("prop", "modal")[i % 2]
            a, b = (show(random_formula(rng, names, rng.randrange(7), language)) for _ in range(2))
            # repeated subtrees, some -> read as <->, some modal [n] as ~
            text = (a, f"({a}) & ({b}) -> ({a})", f"({b}) | ({a}) -> ({a}) & ({b})")[i % 3]
            text = text.replace(" -> ", " <-> ", rng.randrange(3))
            if language == "modal":
                text = text.replace("[n]", "~", rng.randrange(3))
            f = parse(text, language)
            assert not walks
            kept = f._code
            assert kept[1:] == (None, None, None) or "walk_" not in text
            assert kept[0] + (f,) == tuple(postorder((f,))) == subformulas(f)
            # a root that has code keeps that very tuple
            compiled(f, language)
            kept = f._code
            assert parse(text, language) is f and f._code is kept
            del f
    finally:
        syntax._postorder = postorder


def test_a_node_takes_exactly_its_fields():
    # too few or too many fields, or fields by keyword, build no node
    p = Var("p")
    before = len(syntax._NODES)
    for kind in (Top, Bot, Var, Neg, Box, BBox, And, Or, Imp):
        fields = ("p",) if kind is Var else (p,) * len(kind.__match_args__)
        assert kind(*fields) is kind(*fields) and show(kind(*fields))
        for wrong in (fields[:-1], fields + (p,))[not fields:]:
            with pytest.raises(TypeError, match="positional argument"):
                kind(*wrong)
        if fields:
            with pytest.raises(TypeError, match="keyword argument"):
                kind(**dict(zip(kind.__match_args__, fields)))
    assert len(syntax._NODES) == before
    with pytest.raises(TypeError) as info:
        And(p)
    assert "missing 1 required positional argument: 'right'" in str(info.value)


def test_the_node_table_keeps_no_dead_node():
    # reference counting alone takes a node's entry out, with the
    # collector off; the names are the test's own, so every node is new
    rng = random.Random(32)
    names = ("leak_a", "leak_b", "leak_c")
    texts = [show(random_formula(rng, names, 4, ("prop", "modal")[i % 2])) for i in range(1000)]
    before, grown = len(syntax._NODES), 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i, text in enumerate(texts):
            f = parse(text, ("prop", "modal")[i % 2])
            compiled(f, ("prop", "modal")[i % 2])
            subformula_closure(f)
            grown = max(grown, len(syntax._NODES) - before)
            del f
        assert len(syntax._NODES) == before and grown > 5
    finally:
        if enabled:
            gc.enable()
    assert not any(key[0] is Var and key[1] in names for key in syntax._NODES)


def test_copies_and_pickles_are_the_node():
    f = parse("~(p & q) -> ~~r | p")
    assert copy.copy(f) is f and copy.deepcopy(f) is f and copy.deepcopy([f, f.left])[1] is f.left
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert pickle.loads(pickle.dumps((f, Var("fresh_name")))) == (f, Var("fresh_name"))


def test_separately_built_deep_formulas_are_one_object():
    # == and a dict lookup between them cost one step, so a truth walk
    # over both is linear
    f, g = _chain("left-and"), _chain("left-and")
    assert f is g
    m = NModel(NFrame(Poset.from_pairs(1, []), (0, 1)), {"p": 1, "q": 1})
    truth = truth_sets(m, [f, g])
    assert len(truth) == DEEP + 2 and truth[g] == 1


def test_hash_is_identity_on_every_node():
    rng = random.Random(2)
    for i in range(2000):
        language = "modal" if i % 2 else "prop"
        f = random_formula(rng, ("p", "q", "r"), 4, language)
        for g in subformula_closure(f):
            assert hash(g) == object.__hash__(g)
        # built again, separately, the formula is the same object
        again = parse(show(f), language)
        assert again is f and hash(again) == hash(f)


def test_an_unhashable_operand_is_refused_at_construction():
    p, q = Var("p"), Var("q")
    with pytest.raises(TypeError) as info:
        And([], p)
    assert str(info.value) == "unhashable type: 'list'"
    # an operand that is no formula but hashes still builds, and interns
    assert And("p", q).left == "p" and And("p", q) is And("p", q)
    assert Imp(p, 3).right == 3 and Imp(p, 3) is Imp(p, 3)


def test_a_node_class_is_no_formula():
    # the class of a node is a leaf, as 'p' is: the walks give it back
    # alone and the compiler and the translation refuse it
    for bad in (And, Var, "p"):
        assert subformulas(bad) == (bad,)
        assert variables(bad) == () and depth(bad) == 0
        for fn in (compiled, godel_translate):
            with pytest.raises(TypeError) as info:
                fn(bad)
            assert str(info.value) == f"not a formula: {bad!r}"


def test_hash_cache_stays_out_of_eq_repr_and_copies():
    text = "~(p & q) -> T | r"
    hashed, fresh = parse(text), parse(text)
    hash(hashed)
    assert hashed == fresh and fresh == hashed
    assert repr(hashed) == repr(fresh)
    assert repr(hashed) == (
        "Imp(left=Neg(sub=And(left=Var(name='p'), right=Var(name='q'))), "
        "right=Or(left=Top(), right=Var(name='r')))"
    )
    for clone in (copy.copy(hashed), copy.deepcopy(hashed), copy.deepcopy(fresh)):
        assert clone == hashed
        assert clone in {fresh}
        assert hash(clone) == hash(hashed)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the test wants the exact failure
        return ("err", type(exc).__name__, str(exc))


def test_compiled_code_is_a_fresh_compilation():
    # both languages on formulas of both, each twice: the kept code and
    # a failure that keeps nothing give what compiling afresh gives
    rng = random.Random(6)
    both = 0
    for i in range(1000):
        f = random_formula(rng, ("p", "q", "r"), 4, "modal" if i % 2 else "prop")
        names = variables(f)
        for _ in range(2):
            for language, compile_ in (("prop", compile_prop), ("modal", compile_modal)):
                want = _outcome(compile_, f, names)
                if want[0] == "ok":
                    want = ("ok", (names, want[1]))
                assert _outcome(compiled, f, language) == want
        # a node with no Neg, Bot, Box or BBox keeps one code for both
        both += None not in f._code
    assert both > 100


def test_compiled_keeps_no_error():
    f = parse("p -> ~q")
    assert compiled(f) == (("p", "q"), compile_prop(f, ("p", "q")))
    for _ in range(2):
        with pytest.raises(ValueError, match="primitive negation in a modal compilation"):
            compiled(f, "modal")
    g = parse("[n]p -> p", "modal")
    assert compiled(g, "modal") == (("p",), compile_modal(g, ("p",)))
    for _ in range(2):
        with pytest.raises(ValueError, match="second modality in a propositional compilation"):
            compiled(g)
    with pytest.raises(ValueError, match="unknown language"):
        compiled(f, "Prop")


def test_compiled_numbers_variables_in_name_order_wherever_they_occur():
    # the variables occur out of name order; the code is pinned
    cases = {
        ("q -> p", "prop"): (("p", "q"), (0, 1, 0, 0, 0, 0, 4, 0, 1)),
        ("q -> p", "modal"): (("p", "q"), (0, 1, 0, 0, 0, 0, 4, 0, 1)),
        ("(r & p) -> ~q", "prop"): (
            ("p", "q", "r"),
            (0, 2, 0, 0, 0, 0, 2, 0, 1, 0, 1, 0, 5, 3, 0, 4, 2, 4),
        ),
        ("[]q -> [n](p & ~r)", "modal"): (
            ("p", "q", "r"),
            (0, 1, 0, 7, 0, 0, 0, 0, 0, 0, 2, 0, 6, 0, 0, 4, 3, 4, 2, 2, 5, 8, 6, 0, 4, 1, 7),
        ),
    }
    for (text, language), want in cases.items():
        f = parse(text, language)
        for _ in range(2):
            assert compiled(f, language) == want


def test_compiled_refuses_what_is_no_formula():
    p = Var("p")
    cases = [
        ("p", "prop", TypeError, "not a formula: 'p'"),
        (3, "modal", TypeError, "not a formula: 3"),
        (And("p", Var("q")), "prop", TypeError, "not a formula: 'p'"),
        (Imp(Var("q"), 3), "modal", TypeError, "not a formula: 3"),
        (Neg(None), "prop", TypeError, "not a formula: None"),
        (Imp(Box(p), 3), "prop", ValueError, "box in a propositional compilation"),
        (Imp(3, Box(p)), "prop", TypeError, "not a formula: 3"),
        (And(Neg(p), (p,)), "modal", ValueError, "primitive negation in a modal compilation"),
    ]
    for f, language, kind, message in cases:
        for _ in range(2):
            with pytest.raises(kind) as info:
                compiled(f, language)
            assert str(info.value) == message


def test_code_holds_one_instruction_per_distinct_subformula():
    iff_chain = parse("((p <-> q) <-> (q <-> r)) <-> ((r <-> p) <-> (p <-> q))")
    assert len(compiled(iff_chain)[1]) == 3 * 21
    counts = {name: len(compiled(ax, "modal")[1]) // 3 for name, ax in NS4_AXIOMS.items()}
    assert counts == {"K": 8, "T": 3, "4": 4, "bbox-cong": 12, "bbox-persist": 4}
    assert len(compiled(AXIOM_BBOX_CONTRA, "modal")[1]) == 3 * 8
    rng = random.Random(7)
    for i in range(500):
        language = "modal" if i % 2 else "prop"
        f = random_formula(rng, ("p", "q"), 5, language)
        assert len(compiled(f, language)[1]) == 3 * len(subformula_closure(f))


def test_compilers_fail_as_the_postfix_compilers_did():
    # value numbering keeps the postfix visit order, so the first
    # language or variable error is the one the postfix walk met
    rng = random.Random(8)
    for _ in range(1000):
        f = random_formula(rng, ("p", "q", "r"), 4, rng.choice(("prop", "modal")))
        names = rng.sample(("p", "q", "r"), rng.randint(0, 3))
        for mine, old in ((compile_prop, kernel_reference.compile_prop),
                          (compile_modal, kernel_reference.compile_modal)):
            got, want = _outcome(mine, f, names), _outcome(old, f, names)
            assert got[0] == want[0] and (got[0] == "ok" or got == want), (f, names)


def test_code_slot_stays_out_of_eq_repr_copies_and_pickles():
    # a copy is the node, code and all; a pickle holds the operands
    # alone and loads as the node
    text = "~(p & q) -> T | r"
    kept = parse(text)
    compiled(kept)
    assert kept._code is not None
    assert kept == parse(text) and "_code" not in repr(kept)
    assert kept.__reduce__() == (Imp, (kept.left, kept.right))
    for clone in (copy.copy(kept), copy.deepcopy(kept), pickle.loads(pickle.dumps(kept))):
        assert clone is kept
        assert compiled(clone) == compiled(kept)


def test_kept_order_holds_no_cycle_and_stays_out_of_copies_and_pickles():
    f = parse("(p <-> q) -> ~p")
    g = Imp(And(Var("p"), Var("q")), Neg(Var("p")))
    for h in (f, g):
        order = subformulas(h)
        assert order[-1] is h and all(k is not h for k in h._code[0]) and h._code[0] == order[:-1]
        for clone in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert clone is h and subformulas(clone) == order


def _python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    src = str(pathlib.Path(subminimal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, check=True
    )
    return proc.stdout


def test_pickled_formula_hashes_afresh_under_another_seed():
    text = "~(p & q) -> ~r | p"
    dumped = _python(
        "import pickle, sys\n"
        "from subminimal.syntax import parse, subformulas\n"
        f"f = parse({text!r})\n"
        "subformulas(f)\n"
        "sys.stdout.buffer.write(pickle.dumps(f))\n",
        seed=1,
    )
    found = _python(
        "import pickle, sys\n"
        "from subminimal.syntax import parse, subformulas\n"
        "g = pickle.loads(sys.stdin.buffer.read())\n"
        f"f = parse({text!r})\n"
        "print(g == f, g in {f}, subformulas(g) == subformulas(f))\n",
        seed=2,
        stdin=dumped,
    )
    assert found.split() == [b"True"] * 3


def test_an_open_sigma_is_named_the_same_under_every_hash_seed():
    # ~~p and ~p -> ~~p both miss ~p; the set is put in the walk of its
    # maximal members, p and ~p -> ~~p, and the first open member in
    # that order is named, where the set's own order changed with the
    # hash seed
    code = (
        "from subminimal.algebra import least_filtration_correspondence, upset_algebra\n"
        "from subminimal.filtration import close_sigma, greatest_filtration\n"
        "from subminimal.frames import NFrame, NModel, Poset\n"
        "from subminimal.syntax import parse\n"
        "m = NModel(NFrame(Poset.from_pairs(1, []), (0, 1)), {'p': 1})\n"
        "sigma = frozenset(close_sigma([parse('~p -> ~~p')])) - {parse('~p')}\n"
        "for call in (lambda: greatest_filtration(m, sigma),\n"
        "             lambda: least_filtration_correspondence(upset_algebra(m.frame), {'p': 1}, sigma)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    found = {_python(code, seed) for seed in range(8)}
    assert found == {b"sigma is not subformula-closed: ~~p needs ~p\n" * 2}


def test_syntax_checks_name_what_is_wrong():
    with pytest.raises(TypeError, match="not a formula: 42"):
        show(42)
    with pytest.raises(ValueError, match=r"not a propositional formula: \[\]p"):
        godel_translate(Box(Var("p")))
    with pytest.raises(ValueError, match="unknown language: 'tense'"):
        random_formula(random.Random(0), ["p"], 2, "tense")
    with pytest.raises(ValueError, match="variable not in the compilation order: q"):
        compile_prop(Var("q"), ["p"])
    with pytest.raises(TypeError, match="not a formula: 42"):
        compile_modal(42, [])


# ---------------------------------------------------------------------------
# depth: every walk is a loop over subformulas, so nothing recurses on depth
# (repr, copy.deepcopy and pickle are the standard library's and do)

DEEP = 100_000

# each chain is built bottom up from p, one node per step, sharing one
# q as a parse does
Q = Var("q")
CHAINS = {
    "left-and": lambda i, f: And(f, Q),
    "right-and": lambda i, f: And(Q, f),
    "neg-imp": lambda i, f: Neg(f) if i % 2 else Imp(Q, f),
    "box-bbox": lambda i, f: Box(f) if i % 2 else BBox(f),
}


def _chain(name, leaf=None):
    f = Var("p") if leaf is None else leaf
    step = CHAINS[name]
    for i in range(DEEP):
        f = step(i, f)
    return f


def _value(name, p, q, meet, imp, neg):
    """The chain's value, step by step, from the values of p and q."""
    v = p
    for i in range(DEEP):
        if name == "neg-imp":
            v = neg(v) if i % 2 else imp(q, v)
        else:
            v = meet(v, q) if name == "left-and" else meet(q, v)
    return v


def _proof_checks(f, g, distributed):
    lines = (
        ProofLine(Imp(f, g), "taut"),
        ProofLine(Box(f), "premise"),
        ProofLine(distributed, "box-conj", (1,)),
    )
    return check_proof(HilbertProof("ns4", lines))


@pytest.mark.parametrize("name", ["left-and", "right-and", "neg-imp"])
def test_propositional_walks_take_any_depth(name):
    f, g = _chain(name), _chain(name)
    assert f is g and hash(f) == hash(g) and not f != g
    assert f != _chain(name, Var("r"))
    assert depth(f) == DEEP and variables(f) == ("p", "q")
    assert len(subformula_closure(f)) == DEEP + 2
    text = show(f)
    assert parse(text) is f
    if name == "left-and":
        assert text == " & ".join(["p"] + ["q"] * DEEP)
    else:
        k = DEEP - 1 if name == "right-and" else DEEP // 2
        assert text == ("q & (" if name == "right-and" else "~(q -> ") * k + ("q & p" if name == "right-and" else "p") + ")" * k
    assert is_instance_of(Imp(And(f, Neg(g)), Neg(Var("q"))), AXIOM_NEF)
    assert godel_translate(f) == godel_translate(g) and depth(godel_translate(f)) > DEEP
    names, code = compiled(f)
    assert names == ("p", "q") and len(code) == 3 * (DEEP + 2) and compile_prop(g, names) == code
    if name == "neg-imp":
        with pytest.raises(ValueError, match="primitive negation in a modal compilation"):
            compile_modal(f, names)
    else:
        assert compile_modal(f, names) == code
    poset = Poset.from_pairs(2, [(0, 1)])
    table = next(t for t in enumerate_ntables(poset) if len({v for v in t if v >= 0}) == 3)
    m = NModel(NFrame(poset, table), {"p": 2, "q": 3})
    want = _value(name, 2, 3, int.__and__, lambda u, v: _imp_mask(poset.up, u, v), table.__getitem__)
    assert eval_formula(m, f) == want == formula_evaluator(m)(g) == truth_sets(m, [f])[g]
    assert translation_preservation(m, f) is None
    a = upset_algebra(m.frame)
    want = _value(name, 1, 2, lambda x, y: a.meet[x][y], lambda x, y: a.imp[x][y], a.neg.__getitem__)
    assert algebra_eval(a, {"p": 1, "q": 2}, f) == want
    boxed = Box(g) if name == "neg-imp" else Box(Var("p"))
    for _ in range(DEEP if name != "neg-imp" else 0):
        boxed = And(boxed, Box(Var("q"))) if name == "left-and" else And(Box(Var("q")), boxed)
    assert _proof_checks(f, g, boxed) is None


def test_eq_skips_an_operand_both_sides_share():
    # <-> shares its operands, so this unfolds to 2^40 nodes; == is
    # identity and never enters an operand
    text = "p"
    for _ in range(40):
        text = f"({text}) <-> q"
    f = parse(text)
    assert f.left.left is f.right.right
    assert f == f and f == copy.copy(f) and Box(f) == Box(f) and not f != copy.copy(f)
    assert hash(f) == hash(copy.copy(f))


def test_box_over_a_conjunction_takes_any_depth():
    f, p, q = And(Var("p"), Var("q")), Var("p"), Var("q")
    for _ in range(DEEP):
        f, p, q = Box(f), Box(p), Box(q)
    lines = (ProofLine(f, "premise"), ProofLine(And(p, q), "box-conj", (0,)))
    assert check_proof(HilbertProof("ns4", lines)) is None
    lines = (ProofLine(f, "premise"), ProofLine(And(q, p), "box-conj", (0,)))
    assert check_proof(HilbertProof("ns4", lines)) == (1, "not equal modulo distributing the box over conjunction")


def _counting_show(monkeypatch):
    """The formulas syntax.show is called on from here on."""
    shown = []
    real = syntax.show
    monkeypatch.setattr(syntax, "show", lambda f: shown.append(f) or real(f))
    return shown


def test_a_set_sigma_is_ordered_by_show_of_its_maximal_members_alone(monkeypatch):
    # a closed set with one maximal member is put in that member's walk,
    # close_sigma's order, without show; with several, show reads each
    # maximal member once and they come in its order
    shown = _counting_show(monkeypatch)
    f, g = parse("~(p -> ~p) | ~~p"), parse("q & ~p")
    assert syntax._ordered(frozenset(close_sigma([f]))) == close_sigma([f]) == subformulas(f)
    assert shown == []
    assert syntax._ordered(set(close_sigma([f, g]))) == close_sigma([g, f])
    assert len(shown) == 2 and set(shown) == {f, g}


def test_a_deep_closure_given_as_a_set_goes_through_the_greatest_filtration(monkeypatch):
    # one maximal member, so the set is ordered in one walk and show is
    # never called: the cost stays linear in the depth
    f = Var("p")
    for i in range(20_000):
        f = CHAINS["neg-imp"](i, f)
    poset = Poset.from_pairs(2, [(0, 1)])
    table = next(t for t in enumerate_ntables(poset) if len({v for v in t if v >= 0}) == 3)
    m = NModel(NFrame(poset, table), {"p": 2, "q": 3})
    shown = _counting_show(monkeypatch)
    r = greatest_filtration(m, frozenset(close_sigma([f])))
    assert shown == [] and r.sigma == subformulas(f) and check_conditions(m, r) is None


def test_modal_walks_take_any_depth():
    f, g = _chain("box-bbox"), _chain("box-bbox")
    assert f is g and hash(f) == hash(g) and not f != g
    assert depth(f) == DEEP and variables(f) == ("p",) and len(subformula_closure(f)) == DEEP + 1
    assert show(f) == "[][n]" * (DEEP // 2) + "p" and parse(show(f), "modal") is f
    assert is_instance_of(Imp(Box(Imp(f, g)), Imp(Box(f), Box(g))), NS4_AXIOMS["K"])
    with pytest.raises(ValueError, match=r"not a propositional formula: \[\]\[n\]"):
        godel_translate(f)
    names, code = compiled(f, "modal")
    assert names == ("p",) and len(code) == 3 * (DEEP + 1) == len(compile_modal(g, names))
    with pytest.raises(ValueError, match="box in a propositional compilation"):
        compile_prop(f, names)
    poset = Poset.from_pairs(2, [(0, 1)])
    m = NModel(NFrame(poset, list(enumerate_ntables(poset))[0]), {"p": 2})
    with pytest.raises(ValueError, match="box in a propositional compilation"):
        eval_formula(m, f)
    assert _proof_checks(f, g, Box(g)) is None


def test_parse_takes_any_depth():
    # one loop over one stack, so no nesting meets the recursion limit
    p = Var("p")
    assert parse("(" * DEEP + "p" + ")" * DEEP) is p
    f = parse("p -> " * DEEP + "q")
    assert depth(f) == DEEP and f.left is p and f.right.right.left is p
    # <-> shares its operands: show would print 2^DEEP copies
    f = parse("p <-> " * DEEP + "q")
    assert depth(f) == 2 * DEEP and f.left.right is f.right.left and f.left.left is p
    f = parse("~" * DEEP + "p", "modal")
    assert depth(f) == DEEP and f.right is f.left.right is Bot() and parse(show(f), "modal") is f
