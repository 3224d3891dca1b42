"""Kernel semantics, and the rewritten kernels against their plain loops.

The differential fuzz calls each kernel that replaced a plain loop with
a faster algorithm on random structures, next to that loop as kept in
kernel_reference.py, and demands the same value, the same exception
and the same first witness.
"""

import ast
import collections
import inspect
import itertools
import pathlib
import random
import time

import pytest

import kernel_reference as ref
import subminimal
from frame_helpers import random_nframe, random_ntable, random_poset
from modal_helpers import random_ns4_frame, random_preorder
from subminimal import frames, kernels
from subminimal.antichain import (
    build_delta,
    positive_morphism,
    verify_order_onto,
    verify_positive_morphism,
)
from subminimal.frames import (
    NModel,
    Poset,
    enumerate_posets_unlabeled,
    enumerate_upsets,
    eval_formula,
    refuting_valuation,
)
from subminimal.kernels import OP_AND, OP_BBOX, OP_BOX, OP_IMP, OP_NEG, OP_OR
from subminimal.syntax import (
    AXIOM_COPC,
    And,
    BBox,
    Bot,
    Box,
    Imp,
    Or,
    Top,
    Var,
    compile_modal,
    compile_prop,
    godel_translate,
    parse,
    variables,
)
from syntax_helpers import random_formula, substitute

# one implementation; the ids keep the [pure] suffix the kernel tests
# have always carried, so their history stays comparable
PURE = pytest.mark.parametrize("impl", [kernels], ids=["pure"])
CHAIN2 = Poset(2, (3, 2))
CHAIN2_UPSETS = (0, 2, 3)
LAWFUL2 = (2, -1, 3, 2)


def test_backend_constant_is_pure():
    assert subminimal.BACKEND == kernels.BACKEND == "pure"


def test_the_traced_kernel_names_are_kernel_functions():
    # perfbench/tracer.py binds a wrapper over each name of its KERNELS
    # tuple; read without importing the tracer, so a renamed kernel
    # fails here and not only in a traced benchmark run
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (names,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["KERNELS"]
    ]
    assert names
    for name in names:
        fn = getattr(kernels, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == kernels.__name__, name


@PURE
def test_eval_prop_matches_ast_eval(impl):
    rng = random.Random(20)
    names = ("p", "q")
    for _ in range(150):
        fr = random_nframe(rng, rng.randint(1, 4))
        ups = enumerate_upsets(fr.poset)
        val = {x: rng.choice(ups) for x in names}
        f = random_formula(rng, names, 3)
        got = impl.eval_prop(
            compile_prop(f, names), fr.poset.n, fr.poset.up, fr.ntable, [val[x] for x in names]
        )
        assert got == eval_formula(NModel(fr, val), f)


@PURE
def test_eval_prop_sentinels(impl):
    neg_code = compile_prop(parse("~p"), ["p"])
    # the hole at the non-upset index {0} is reachable only by feeding
    # a non-upset valuation directly to the kernel
    assert impl.eval_prop(neg_code, 2, CHAIN2.up, LAWFUL2, [1]) == -1
    modal_code = compile_modal(parse("[n]p", "modal"), ["p"])
    assert impl.eval_prop(modal_code, 2, CHAIN2.up, LAWFUL2, [2]) == -2


def _modal_truth(f, n, up, ntable, val):
    """Truth set of a modal formula straight from the semantics, world
    by world over the AST: [] holds where the whole cone does, [n] is a
    lookup in the table, the arrow is pointwise and F holds nowhere.
    The oracle of the modal evaluator; it shares no code with it."""
    kind = type(f)
    if kind is Var:
        return val[f.name]
    if kind is Top:
        return (1 << n) - 1
    if kind is Bot:
        return 0
    if kind is Box:
        a = _modal_truth(f.sub, n, up, ntable, val)
        return sum(1 << w for w in range(n) if all((a >> v) & 1 for v in range(n) if (up[w] >> v) & 1))
    if kind is BBox:
        return ntable[_modal_truth(f.sub, n, up, ntable, val)]
    a = _modal_truth(f.left, n, up, ntable, val)
    b = _modal_truth(f.right, n, up, ntable, val)
    if kind is And:
        return a & b
    if kind is Or:
        return a | b
    return sum(1 << w for w in range(n) if not (a >> w) & 1 or (b >> w) & 1)


@PURE
def test_eval_modal_matches_an_ast_walk(impl):
    # lawful frames, and arbitrary total tables on random preorders
    rng = random.Random(21)
    names = ("p", "q")
    for _ in range(300):
        if rng.random() < 0.5:
            fr = random_ns4_frame(rng, rng.randint(1, 3))
            n, up, table = fr.n, fr.rel, fr.ntable
        else:
            n = rng.randint(1, 4)
            up = random_preorder(rng, n)
            table = [rng.randrange(1 << n) for _ in range(1 << n)]
        val = {x: rng.randrange(1 << n) for x in names}
        f = random_formula(rng, names, 3, "modal")
        got = impl.eval_modal(compile_modal(f, names), n, up, table, [val[x] for x in names])
        assert got == _modal_truth(f, n, up, table, val), (n, up, table, val, f)


@PURE
def test_eval_modal_rejects_prop_negation(impl):
    code = compile_prop(parse("~p"), ["p"])
    assert impl.eval_modal(code, 2, CHAIN2.up, LAWFUL2, [2]) == -2


def test_eval_kernels_match_the_one_valuation_machine():
    # compiled code inside the kernels' contracts: prop code on lawful
    # tables with upset values and on holed tables with any subsets,
    # modal code on total tables, and each language's code fed to the
    # other kernel; the results, sentinels included, are the reference's
    rng = random.Random(27)
    names = ("p", "q", "r")
    seen = collections.Counter()
    for _ in range(1500):
        n = rng.randint(1, 4)
        case = rng.randrange(3)
        if case == 0:
            fr = random_nframe(rng, n)
            up, table = fr.poset.up, fr.ntable
            ups = enumerate_upsets(fr.poset)
            val = [rng.choice(ups) for _ in names]
        elif case == 1:
            up = random_poset(rng, n).up
            table = [rng.randrange(1 << n) if rng.random() < 0.7 else -1 for _ in range(1 << n)]
            val = [rng.randrange(1 << n) for _ in names]
        else:
            up = random_preorder(rng, n)
            table = [rng.randrange(1 << n) for _ in range(1 << n)]
            val = [rng.randrange(1 << n) for _ in names]
        modal = case == 2
        f = random_formula(rng, names, 4, "modal" if modal else "prop")
        code, postfix = _both(f, names, "modal" if modal else "prop")
        # now and then the other language's kernel, which must give -2
        # unless the code is in both languages; eval_modal only on total
        # tables, as its contract asks
        if rng.random() < 0.2 and (modal or min(table) >= 0):
            modal = not modal
        kernel, want = (
            (kernels.eval_modal, ref.eval_modal) if modal else (kernels.eval_prop, ref.eval_prop)
        )
        got = kernel(code, n, up, table, val)
        assert got == want(postfix, n, up, table, val), (code, n, up, table, val)
        seen[min(got, 0)] += 1
    assert min(seen[0], seen[-1], seen[-2]) >= 20, seen


def test_eval_kernels_differ_from_the_reference_only_off_contract():
    # a [n] lookup at a -1 entry: the reference carries -1 on as a
    # world mask, the one machine reports the hole
    bbox_and_q, postfix = _both(parse("[n]p & q", "modal"), ["p", "q"], "modal")
    assert ref.eval_modal(postfix, 2, CHAIN2.up, LAWFUL2, [1, 2]) == 2
    assert kernels.eval_modal(bbox_and_q, 2, CHAIN2.up, LAWFUL2, [1, 2]) == -1
    # hand-made code past a hole: the reference stops at the hole, the
    # one machine runs on to the wrong opcode, or to an operand slot no
    # instruction has filled, where the stack machine ran dry; ~p fills
    # slots 0 (p) and 1 (~p)
    neg_p, postfix_neg_p = _both(parse("~p"), ["p"])
    wrong = neg_p + (OP_BBOX, 1, 0)
    assert ref.eval_prop(postfix_neg_p + (OP_BBOX, 0), 2, CHAIN2.up, LAWFUL2, [1]) == -1
    assert kernels.eval_prop(wrong, 2, CHAIN2.up, LAWFUL2, [1]) == -2
    underflow = neg_p + (OP_AND, 1, 2)
    assert ref.eval_prop(postfix_neg_p + (OP_AND, 0), 2, CHAIN2.up, LAWFUL2, [1]) == -1
    with pytest.raises(IndexError):
        kernels.eval_prop(underflow, 2, CHAIN2.up, LAWFUL2, [1])


@PURE
def test_refuting_valuation_prop_agrees_with_search(impl):
    rng = random.Random(22)
    names = ("p", "q")
    for _ in range(120):
        fr = random_nframe(rng, rng.randint(1, 3))
        ups = enumerate_upsets(fr.poset)
        f = random_formula(rng, names, 3)
        idx = impl.find_refuting_valuation_prop(
            compile_prop(f, names), 2, fr.poset.n, fr.poset.up, (fr.ntable,), ups
        )
        hit = refuting_valuation(fr, f)
        assert (idx == -1) == (hit is None)
        if idx != -1:
            nu = len(ups)
            val = {names[1]: ups[idx % nu], names[0]: ups[(idx // nu) % nu]}
            full = (1 << fr.poset.n) - 1
            assert eval_formula(NModel(fr, val), f) != full


@PURE
def test_refuting_valuation_prop_domain_error(impl):
    code = compile_prop(parse("~p"), ["p"])
    with pytest.raises(ValueError, match="evaluation left the negation table domain"):
        impl.find_refuting_valuation_prop(
            code, 1, 2, CHAIN2.up, ((-1, -1, -1, -1),), CHAIN2_UPSETS
        )


def test_refuting_valuation_prop_stops_at_once_on_a_huge_space():
    # 2**70 valuations: only a search that walks bounded blocks in
    # index order can return the refutation at index 0
    code = compile_prop(parse("p"), ["p"])
    t0 = time.perf_counter()
    assert kernels.find_refuting_valuation_prop(code, 70, 1, (1,), ((1, 1),), (0, 1)) == 0
    assert kernels.find_refuting_valuation_modal(code, 70, 1, (1,), (1, 1)) == 0
    assert time.perf_counter() - t0 < 1.0


def test_refuting_valuation_prop_raises_only_at_a_hole_before_the_refutation():
    # one world, upsets (0, 1); ~p at p = 0 is index 0, at p = 1 index 1
    code = compile_prop(parse("~p"), ["p"])
    ups = (0, 1)
    # index 0 refutes (N(0) = 0), index 1 reaches the hole: no error
    assert kernels.find_refuting_valuation_prop(code, 1, 1, (1,), ((0, -1),), ups) == 0
    # index 0 reaches the hole before index 1 refutes
    with pytest.raises(ValueError, match="evaluation left the negation table domain"):
        kernels.find_refuting_valuation_prop(code, 1, 1, (1,), ((-1, 0),), ups)
    # every one-world table over "~p" and "q | ~p" (index 2q + p): a hole
    # after the refutation in the same block must not raise
    code2 = compile_prop(parse("q | ~p"), ["q", "p"])
    assert kernels.find_refuting_valuation_prop(code2, 2, 1, (1,), ((0, -1),), ups) == 0
    assert kernels.find_refuting_valuation_prop(code2, 2, 1, (1,), ((1, 0),), ups) == 1
    for ntable in itertools.product((-1, 0, 1), repeat=2):
        for text, vs in (("~p", ["p"]), ("q | ~p", ["q", "p"])):
            c, postfix = _both(parse(text), vs)
            args = (c, len(vs), 1, (1,), ntable, ups)
            want = _capture(ref.find_refuting_valuation_prop, postfix, *args[1:])
            assert _capture(kernels.find_refuting_valuation_prop, *_one_table(args)) == want


@PURE
def test_refuting_valuation_modal_opcode_error(impl):
    code = compile_prop(parse("~p"), ["p"])
    with pytest.raises(ValueError, match="modal opcode mismatch"):
        impl.find_refuting_valuation_modal(code, 1, 2, CHAIN2.up, (0, 0, 0, 0))


@PURE
def test_locality_violation_packed_witness(impl):
    # lawful table on the 2-chain
    assert impl.locality_violation(CHAIN2_UPSETS, LAWFUL2) == -1
    # N(W)&{1} = 2 but N(W & {1})&{1} = N({1})&{1} = 0: fails at
    # upset index 2 (the full set) against index 1 (the top cone)
    bad = (0, -1, 0, 3)
    assert impl.locality_violation(CHAIN2_UPSETS, bad) == 2 * 3 + 1


@PURE
def test_ns4_table_violation_codes(impl):
    # value {0} is not an upset of the 2-chain: code 2*X at X=0
    assert impl.ns4_table_violation(2, CHAIN2.up, (1, 0, 0, 0)) == 0
    # discrete order, N({1}) = W but N({1} & up(0)) = N(0) = 0: locality
    # breaks at X=2, code 2*X+1
    assert impl.ns4_table_violation(2, (1, 2), (0, 0, 3, 0)) == 5
    assert impl.ns4_table_violation(2, (1, 2), (0, 0, 0, 0)) == -1


@PURE
def test_lift_table_extends_and_stays_lawful(impl):
    rng = random.Random(23)
    for _ in range(100):
        fr = random_nframe(rng, rng.randint(1, 4))
        p = fr.poset
        ups = enumerate_upsets(p)
        flat = impl.lift_table(p.n, p.up, ups, fr.ntable)
        assert len(flat) == 1 << p.n
        for u in ups:
            assert flat[u] == fr.ntable[u]
        assert impl.ns4_table_violation(p.n, p.up, flat) == -1


@PURE
def test_en_rn_hand_values(impl):
    swap = (3, 2, 1, 0)
    for k in (0, 1, 2):
        assert impl.en_holds(2, swap, k) == 1
        assert impl.rn_holds(2, swap, k) == 1
    # N({0,1}) & N({0}) = 1, and relativizing to that set breaks the
    # guarded identity, so both the identity and the rule fail at k=1
    broken = (1, 3, 0, 0)
    assert impl.en_holds(2, broken, 1) == 0
    assert impl.rn_holds(2, broken, 1) == 0


@PURE
def test_search_order_onto_is_least_witness(impl):
    rng = random.Random(24)
    for _ in range(80):
        t = random_poset(rng, rng.randint(1, 3))
        s = random_poset(rng, rng.randint(1, 3))
        got = impl.search_order_onto(t.n, t.up, t.down, s.n, s.up, s.down)
        first = None
        for cand in itertools.product(range(t.n), repeat=s.n):
            if verify_order_onto(t, s, list(cand)):
                first = list(cand)
                break
        assert got == first


@PURE
def test_search_positive_morphism_existence(impl):
    rng = random.Random(25)
    for _ in range(80):
        t = random_poset(rng, rng.randint(1, 3))
        s = random_poset(rng, rng.randint(1, 3))
        got = impl.search_positive_morphism(t.n, t.up, s.n, s.up)
        exists = any(
            verify_positive_morphism(
                t, s, {w: f[i] for i, w in enumerate(worlds)}
            )
            for dom in range(1, 1 << s.n)
            for worlds in [[w for w in range(s.n) if (dom >> w) & 1]]
            for f in itertools.product(range(t.n), repeat=len(worlds))
        )
        assert (got is not None) == exists
        if got is not None:
            dom, flat = got
            mapping = {w: flat[w] for w in range(s.n) if (dom >> w) & 1}
            assert verify_positive_morphism(t, s, mapping)


def _thinned_relabeling(rng, t):
    """The order pairs of a relabeled copy of t, each kept with
    probability 0.9: a source onto which t often has a morphism."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u in range(t.n) for v in range(t.n)
            if u != v and (t.up[u] >> v) & 1 and rng.random() < 0.9]


def _small_morphism_pairs():
    """Every (topped target, source) pair of the unlabeled posets of 1
    to 5 worlds, 25 x 87 in all, in enumeration order."""
    posets = [p for k in range(1, 6) for p in enumerate_posets_unlabeled(k)]
    return [(t, s) for t in posets if t.top() is not None for s in posets]


def test_positive_morphism_refusals_keep_the_unpruned_witness():
    # the depth and signature refusals answer before any domain is
    # tried; the unpruned search of kernel_reference must give the same
    # answer and first witness on every small pair, with the empty
    # poset on either side, and on seeded pairs with a 6-world source,
    # on kept cones and on plain lists alike
    rng = random.Random(4242)
    empty = Poset(0, ())
    pairs = _small_morphism_pairs()
    pairs += [(t, empty) for t, _ in pairs[::87]]
    pairs += [(empty, s) for s in (empty, *(s for _, s in pairs[:87]))]
    for _ in range(2000):
        t = random_poset(rng, rng.randint(1, 6))
        if rng.random() < 0.5:
            s = Poset.from_pairs(6, _thinned_relabeling(rng, t))
        else:
            s = random_poset(rng, 6)
        pairs.append((t, s))
    outcomes = collections.Counter()
    for t, s in pairs:
        want = ref.search_positive_morphism(t.n, t.up, t.down, s.n, s.up, s.down)
        assert kernels.search_positive_morphism(t.n, t.up, s.n, s.up) == want, (t, s)
        assert kernels.search_positive_morphism(t.n, list(t.up), s.n, list(s.up)) == want, (t, s)
        outcomes[_morphism_outcome(t, s, want)] += 1
    assert len(pairs) == 25 * 87 + 25 + 88 + 2000
    assert outcomes == {"empty": 88, "depth": 1856, "signature": 245, "branched": 380, "found": 1719}


def _morphism_outcome(t, s, found):
    """How the search ends on a pair: empty target, refused by depth or
    by signature, branched without a morphism, or found one."""
    if found is not None:
        return "found"
    if not t.n:
        return "empty"
    t_depth, t_sig = kernels._profile(t.up, t.n)
    s_depth, s_sig = kernels._profile(s.up, s.n)
    if len(s_depth) < len(t_depth) or any(a < b for a, b in zip(s_depth, t_depth)):
        return "depth"
    return "signature" if s.n == t.n and s_sig != t_sig else "branched"


def test_the_refusals_leave_457_small_pairs_to_the_branching_search(monkeypatch):
    # a spy on _positive_from marks each pair whose search tries a
    # domain; without the refusals 1,744 of the 25 x 87 pairs did, with
    # the size check alone, so a change that drops a refusal fails here
    reached = set()
    branch = kernels._positive_from

    def spy(*args):
        reached.add(i)
        return branch(*args)

    monkeypatch.setattr(kernels, "_positive_from", spy)
    found = 0
    for i, (t, s) in enumerate(_small_morphism_pairs()):
        found += kernels.search_positive_morphism(t.n, t.up, s.n, s.up) is not None
    assert (len(reached), found) == (457, 345)


def test_an_empty_target_has_no_positive_morphism():
    # a positive morphism has a nonempty domain, and none maps onto the
    # empty poset; the kernel, the wrapper and the verifier agree
    empty = Poset(0, ())
    for s in (empty, Poset(1, (1,)), build_delta(0).poset):
        assert kernels.search_positive_morphism(0, empty.up, s.n, s.up) is None
        assert ref.search_positive_morphism(0, empty.up, empty.down, s.n, s.up, s.down) is None
        assert positive_morphism(empty, s) is None
        assert not verify_positive_morphism(empty, s, {})


def _both(f, names, language="prop"):
    """The formula's value-numbered code for the package kernels and
    its postfix code for the reference machine, as a pair."""
    if language == "modal":
        return compile_modal(f, names), ref.compile_modal(f, names)
    return compile_prop(f, names), ref.compile_prop(f, names)


def _join(left, right, op):
    """The (code, postfix) pair of the binary opcode op over the values
    of two such pairs: hand-made code, which may mix the languages. The
    right code's operand slots move past the left code's instructions,
    and op reads the last slot of each."""
    a, b = left[0], right[0]
    k = len(a) // 3
    moved = list(b)
    for i in range(0, len(b), 3):
        if b[i] in (OP_AND, OP_OR, OP_IMP):
            moved[i + 1] += k
            moved[i + 2] += k
        elif b[i] in (OP_NEG, OP_BOX, OP_BBOX):
            moved[i + 1] += k
    code = a + tuple(moved) + (op, k - 1, k + len(b) // 3 - 1)
    return code, left[1] + right[1] + (op, 0)


def _capture(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the fuzz wants the exact failure
        return ("err", type(exc).__name__, str(exc))


def _tables(rng, p, ups):
    """A lawful table, one with -1 holes at upsets, one with non-upset values."""
    lawful = random_ntable(rng, p)
    holed = list(lawful)
    for u in rng.sample(ups, rng.randint(1, len(ups))):
        holed[u] = -1
    odd = list(lawful)
    for u in ups:
        if rng.random() < 0.5:
            odd[u] = rng.randrange(1 << p.n)
    return [lawful, tuple(holed), tuple(odd)]


def _nvars_within(rng, nu, cap):
    nvars = rng.randint(0, 3)
    while nvars and nu**nvars > cap:
        nvars -= 1
    return nvars


def _one_table(args):
    """Arguments of the plain prop loop as the batched kernel takes
    them: the one table as a sequence of one."""
    return args[:4] + ((args[4],),) + args[5:]


def _table_by_table(code, nvars, n, up, tables, ups):
    """The plain prop loop run on each table in turn: the first
    position frame * len(ups)**nvars + valuation that refutes, or the
    first error, as the batched kernel must give them."""
    per = len(ups) ** nvars
    for j, table in enumerate(tables):
        got = _capture(ref.find_refuting_valuation_prop, code, nvars, n, up, table, ups)
        if got[0] != "ok":
            return got
        if got[1] >= 0:
            return ("ok", j * per + got[1])
    return ("ok", -1)


@pytest.mark.parametrize("block", [kernels._BLOCK, 16, 4], ids=["wide", "mid", "narrow"])
def test_batched_refutation_search_matches_the_plain_loop(monkeypatch, block):
    # narrow blocks split a batch of tables into several blocks, and a
    # frame's valuations into several blocks
    monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = random.Random(4343 + block)
    names = ("p", "q", "r")
    outcomes = set()
    for _ in range(400):
        n = rng.randint(0, 4)
        p = random_poset(rng, n)
        ups = enumerate_upsets(p)
        nvars = _nvars_within(rng, len(ups), 300)
        vs = names[: max(nvars, 1)]
        code, postfix = _both(random_formula(rng, vs, rng.randint(0, 4)), vs)
        if rng.random() < 0.05:
            modal = _both(random_formula(rng, vs, 2, "modal"), vs, "modal")
            code, postfix = _join((code, postfix), modal, OP_AND)
        # lawful, holed and odd tables, mostly lawful ones, in batches
        # of 0 to 20
        pool = [t for _ in range(3) for t in _tables(rng, p, ups)]
        pool += [random_ntable(rng, p) for _ in range(12)]
        tables = tuple(rng.choice(pool) for _ in range(rng.randint(0, 20)))
        want = _table_by_table(postfix, nvars, n, p.up, tables, ups)
        assert _capture(kernels.find_refuting_valuation_prop, code, nvars, n, p.up, tables, ups) == want
        # tables that keep their column masks give the same twice over
        kept = frames._ClassTables(tables)
        for _ in range(2):
            assert _capture(kernels.find_refuting_valuation_prop, code, nvars, n, p.up, kept, ups) == want
        outcomes.add((want[0], want[0] == "ok" and want[1] >= len(ups) ** nvars))
    # refutations past the first table, valid batches and errors all occur
    assert outcomes >= {("ok", True), ("ok", False), ("err", False)}


@pytest.mark.parametrize("block", [kernels._BLOCK, 4], ids=["wide", "narrow"])
def test_refuting_valuation_search_matches_the_plain_loop(monkeypatch, block):
    # narrow blocks make the spaces below span many blocks, so the fuzz
    # also crosses block boundaries and fixed high variables
    monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = random.Random(4242 + block)
    names = ("p", "q", "r")
    checked = 0
    for _ in range(600):
        n = rng.randint(0, 6)
        p = random_poset(rng, n)
        ups = enumerate_upsets(p)
        # the kernels read variables below max(nvars, 1), as the callers
        # compile them; with no variables the one slot holds the empty set
        nvars = _nvars_within(rng, len(ups), 1500)
        mvars = _nvars_within(rng, 1 << n, 1500)
        vs, mvs = names[: max(nvars, 1)], names[: max(mvars, 1)]
        code = _both(random_formula(rng, vs, rng.randint(0, 4)), vs)
        mcode = _both(random_formula(rng, mvs, rng.randint(0, 4), "modal"), mvs, "modal")
        if rng.random() < 0.15:
            # prop code holding modal opcodes, modal code holding ~
            ws = names[: max(min(nvars, mvars), 1)]
            prop_part = _both(random_formula(rng, ws, 3), ws)
            modal_part = _both(random_formula(rng, ws, 3, "modal"), ws, "modal")
            code = _join(code, modal_part, OP_AND)
            mcode = _join(mcode, prop_part, OP_OR)
        for table in _tables(rng, p, ups):
            args = (code[0], nvars, n, p.up, table, ups)
            a = _capture(ref.find_refuting_valuation_prop, code[1], *args[1:])
            b = _capture(kernels.find_refuting_valuation_prop, *_one_table(args))
            assert a == b, (n, args, a, b)
            checked += 1
        total = [rng.randrange(1 << n) for _ in range(1 << n)]
        holed = [-1 if rng.random() < 0.2 else v for v in total]
        lifted = kernels.lift_table(n, p.up, ups, random_ntable(rng, p))
        for table in (total, lifted):
            args = (mcode[0], mvars, n, p.up, table)
            a = _capture(ref.find_refuting_valuation_modal, mcode[1], *args[1:])
            b = _capture(kernels.find_refuting_valuation_modal, *args)
            assert a == b, (n, args, a, b)
            checked += 1
        if -1 in holed:
            # modal tables are total; a hole is refused before any search
            with pytest.raises(ValueError, match="must cover every subset"):
                kernels.find_refuting_valuation_modal(mcode[0], mvars, n, p.up, holed)
    assert checked >= 1000


def test_layout_memo_keeps_the_results_of_the_plain_loops(monkeypatch):
    # every case runs on a cleared memo at the three block widths, twice
    # over, so each width meets layouts the others left; with the values
    # as a tuple, a list and, on discrete posets, whose upsets are all
    # subsets, a range
    blocks = (kernels._BLOCK, 16, 4) * 2
    rng = random.Random(4545)
    names = ("p", "q", "r")
    outcomes = set()
    for _ in range(300):
        n = rng.randint(0, 4)
        if rng.random() < 0.3:
            p = Poset(n, tuple(1 << w for w in range(n)))
        else:
            p = random_poset(rng, n)
        ups = enumerate_upsets(p)
        forms = [tuple(ups), list(ups)]
        if ups == list(range(1 << n)):
            forms.append(range(1 << n))
        nvars = _nvars_within(rng, len(ups), 300)
        mvars = _nvars_within(rng, 1 << n, 300)
        vs, mvs = names[: max(nvars, 1)], names[: max(mvars, 1)]
        code, postfix = _both(random_formula(rng, vs, rng.randint(0, 4)), vs)
        mcode = _both(random_formula(rng, mvs, rng.randint(0, 4), "modal"), mvs, "modal")
        if rng.random() < 0.1:
            mcode = _join(mcode, _both(parse("~p"), ["p"]), OP_OR)
        mcode, mpostfix = mcode
        pool = _tables(rng, p, ups) + [random_ntable(rng, p) for _ in range(6)]
        tables = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
        want = _table_by_table(postfix, nvars, n, p.up, tables, ups)
        mtable = kernels.lift_table(n, p.up, ups, random_ntable(rng, p))
        mwant = _capture(ref.find_refuting_valuation_modal, mpostfix, mvars, n, p.up, mtable)
        kernels._layout.cache_clear()
        for block in blocks:
            monkeypatch.setattr(kernels, "_BLOCK", block)
            for values in forms:
                got = _capture(kernels.find_refuting_valuation_prop, code, nvars, n, p.up, tables, values)
                assert got == want, (block, n, nvars, values, tables)
            got = _capture(kernels.find_refuting_valuation_modal, mcode, mvars, n, p.up, mtable)
            assert got == mwant, (block, n, mvars, mtable)
        outcomes |= {want[0], mwant[0], want[0] == "ok" and want[1] >= len(ups) ** nvars}
    # errors, and refutations past the first table, occur
    assert outcomes == {"ok", "err", True, False}


@pytest.mark.parametrize("block", [kernels._BLOCK, 16, 4], ids=["wide", "mid", "narrow"])
def test_shared_subformulas_give_the_results_of_the_postfix_machine(monkeypatch, block):
    # one random compound substituted for two of the variables, often
    # in both sides of a <->, so the value-numbered code runs it once
    # where the postfix code runs it per occurrence: the first position
    # or error of both searches and the values of both eval kernels are
    # the postfix machine's, on lawful and holed prop tables, lawful NS4
    # tables and any total ones
    monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = random.Random(4747 + block)
    names = ("p", "q", "r")
    shared = 0
    outcomes = set()
    for _ in range(400):
        language = rng.choice(("prop", "modal"))
        g = Top()
        while isinstance(g, (Var, Top, Bot)):
            g = random_formula(rng, names, 2, language)
        f = random_formula(rng, names, 3, language)
        if rng.random() < 0.5:
            # a desugared <->, whose two arrows swap the same operands
            h = random_formula(rng, names, 2, language)
            f = And(Imp(f, h), Imp(h, f))
        f = substitute(f, dict.fromkeys(rng.sample(names, 2), g))
        vs = variables(f)
        code, postfix = _both(f, vs, language)
        shared += len(code) // 3 < len(postfix) // 2
        n = rng.randint(1, 3)
        val = [rng.randrange(1 << n) for _ in vs]
        if language == "prop":
            p = random_poset(rng, n)
            ups = enumerate_upsets(p)
            lawful, holed, _ = _tables(rng, p, ups)
            tables = tuple(rng.choice((lawful, holed)) for _ in range(rng.randint(1, 6)))
            want = _table_by_table(postfix, len(vs), n, p.up, tables, ups)
            got = _capture(kernels.find_refuting_valuation_prop, code, len(vs), n, p.up, tables, ups)
            for table in (lawful, holed):
                assert kernels.eval_prop(code, n, p.up, table, val) == ref.eval_prop(
                    postfix, n, p.up, table, val
                ), (f, table, val)
        else:
            if rng.random() < 0.5:
                fr = random_ns4_frame(rng, n)
                up, table = fr.rel, fr.ntable
            else:
                up = random_preorder(rng, n)
                table = [rng.randrange(1 << n) for _ in range(1 << n)]
            want = _capture(ref.find_refuting_valuation_modal, postfix, len(vs), n, up, table)
            got = _capture(kernels.find_refuting_valuation_modal, code, len(vs), n, up, table)
            assert kernels.eval_modal(code, n, up, table, val) == ref.eval_modal(
                postfix, n, up, table, val
            ), (f, up, table, val)
        assert got == want, (f, n, want)
        outcomes.add((language, want[0], want[0] == "ok" and want[1] >= 0))
    # the substituted variables occur in most formulas
    assert shared >= 250, shared
    # refutations and valid formulas in both languages, and prop errors
    assert outcomes >= {
        ("prop", "ok", True), ("prop", "ok", False), ("prop", "err", False),
        ("modal", "ok", True), ("modal", "ok", False),
    }, outcomes


def test_layout_memo_stays_within_its_bound():
    kernels._layout.cache_clear()
    code = compile_prop(parse("p"), ["p"])
    bound = kernels._layout.cache_info().maxsize

    def search(k):
        # k values make k distinct layouts
        assert kernels.find_refuting_valuation_prop(code, 1, 1, (1,), ((1, 1),), (1,) * k) == -1

    for k in range(1, 2 * bound + 1):
        search(k)
        assert kernels._layout.cache_info().currsize == min(k, bound)
    # the last bound layouts are kept, the ones before are gone
    hits = kernels._layout.cache_info().hits
    for k in range(bound + 1, 2 * bound + 1):
        search(k)
    assert kernels._layout.cache_info().hits == hits + bound
    search(bound)
    assert kernels._layout.cache_info().hits == hits + bound
    assert kernels._layout.cache_info().currsize == bound
    # more values than a block holds leave nothing to keep
    kernels._layout.cache_clear()
    search(kernels._BLOCK + 1)
    assert kernels._layout.cache_info().currsize == 0


def test_companion_kernels_match_the_plain_loops():
    rng = random.Random(4243)
    checked = {"lift": 0, "gap": 0, "en": 0, "rn": 0, "morphism": 0}
    gaps = dict.fromkeys(("none", "witness", "hole", "escape"), 0)
    for _ in range(1000):
        n = rng.randint(0, 6)
        p = random_poset(rng, n)
        ups = enumerate_upsets(p)
        for table in _tables(rng, p, ups):
            args = (n, p.up, ups, table)
            a = _capture(ref.lift_table, *args)
            assert a == _capture(kernels.lift_table, *args), (args, a)
            checked["lift"] += 1
        # a lawful table, holes, values off the upsets, upset values
        # that are rarely local, and the lift of the odd table kept on
        # the upsets, which is local and its own lift there, so values
        # off the upsets show only at depth >= 2
        lawful, holed, odd = _tables(rng, p, ups)
        nonlocal_, kept = list(lawful), list(lawful)
        odd_lift = ref.lift_table(n, p.up, ups, odd)
        for u in ups:
            nonlocal_[u] = rng.choice(ups)
            kept[u] = odd_lift[u]
        table = rng.choice((lawful, holed, odd, nonlocal_, kept))
        nstar = ref.lift_table(n, p.up, ups, table)
        got = []
        for depth in range(4):
            # the exact first gap witness, not only whether one exists
            a = _capture(ref.translation_gap, n, p.up, table, nstar, ups, depth)
            assert a == _capture(kernels.translation_gap, n, p.up, table, ups, depth), (table, depth, a)
            got.append(a)
        gaps[_gap_outcome(got)] += 1
        checked["gap"] += 1

        m = rng.randint(0, 3)
        size = 1 << m
        k = rng.randint(0, 3)
        total = [rng.randrange(size) for _ in range(size)]
        if rng.random() < 0.2:
            total[rng.randrange(size)] = -1
        if rng.random() < 0.4:
            q = random_poset(rng, m)
            total = kernels.lift_table(m, q.up, enumerate_upsets(q), random_ntable(rng, q))
        for law in ("en", "rn"):
            a = _capture(getattr(ref, law + "_holds"), m, total, k)
            assert a == _capture(getattr(kernels, law + "_holds"), m, total, k), (law, m, total, k, a)
            checked[law] += 1

        t = random_poset(rng, rng.randint(0, 5))
        if rng.random() < 0.4:
            # on at most two more worlds, so that same-size domains,
            # where an onto map is a bijection, often carry a morphism
            pairs = _thinned_relabeling(rng, t)
            s = Poset.from_pairs(t.n + rng.randint(0, 2), pairs)
        else:
            s = random_poset(rng, rng.randint(0, 6))
        args = (t.n, t.up, t.down, s.n, s.up, s.down)
        a = _capture(ref.search_positive_morphism, *args)
        assert a == _capture(kernels.search_positive_morphism, t.n, t.up, s.n, s.up), (args, a)
        checked["morphism"] += 1
    assert min(checked.values()) >= 1000, checked
    assert min(gaps.values()) >= 20, gaps


def test_translation_gap_matches_the_pass_over_the_whole_lift():
    # the gap lifts the table at the upsets alone; the pass that lifted
    # it at every subset must give the same witness or error at every
    # depth, on the frame stream and on unlawful and holed tables
    cases = [(fr.poset, fr.ntable) for fr in frames._frame_stream(3)]
    rng = random.Random(2611)
    for _ in range(600):
        p = random_poset(rng, rng.randint(0, 4))
        lawful, holed, odd = _tables(rng, p, list(p.upsets()))
        nonlocal_ = list(lawful)
        for u in p.upsets():
            nonlocal_[u] = rng.choice(p.upsets())
        cases += [(p, holed), (p, odd), (p, tuple(nonlocal_))]
    gaps = collections.Counter()
    for p, table in cases:
        got = []
        for depth in range(4):
            args = (p.n, p.up, table, p.upsets(), depth)
            a = _capture(ref.translation_gap_lifted, *args)
            assert a == _capture(kernels.translation_gap, *args), (p, table, depth, a)
            got.append(a)
        gaps[_gap_outcome(got)] += 1
    assert min(gaps[k] for k in ("none", "witness", "hole", "escape")) >= 20, gaps


def _gap_outcome(got):
    """The kind of a gap search's answers at depths 0-3: none, a
    witness, a hole at the first round, or a value off the upsets,
    which only depth >= 2 sees (proof step 3 of translation_gap)."""
    if got[1] == ("ok", -1):
        return "escape" if got[2][0] == "err" else "none"
    return "witness" if got[1][0] == "ok" else "hole"


def test_kernel_micro_cases_keep_their_frozen_results():
    # six deterministic kernel cases with results frozen when the
    # kernels were first timed on them
    chain = Poset.from_pairs(6, [(i, i + 1) for i in range(5)])
    ups, up = list(chain.upsets()), list(chain.up)
    table = [-1] * 64
    for u in ups:
        table[u] = 63 if u == 63 else 32
    code = compile_prop(AXIOM_COPC, ("p", "q"))
    assert kernels.find_refuting_valuation_prop(code, 2, 6, up, (table,), ups) == 6

    total = list(kernels.lift_table(6, up, ups, table))
    mcode = compile_modal(godel_translate(AXIOM_COPC), ("p", "q"))
    assert kernels.find_refuting_valuation_modal(mcode, 2, 6, up, total) == 48

    anti = Poset.from_pairs(6, [])
    aups = enumerate_upsets(anti)
    assert kernels.translation_gap(6, list(anti.up), [63] * 64, list(aups), 2) == -1

    d2, d3 = build_delta(2).poset, build_delta(3).poset
    assert kernels.search_order_onto(d2.n, d2.up, d2.down, d3.n, d3.up, d3.down) is None

    d1 = build_delta(1).poset
    hit = kernels.search_positive_morphism(d1.n, d1.up, d1.n, d1.up)
    assert (hit[0], list(hit[1])) == (511, list(range(9)))

    diamond = Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    dups = list(enumerate_upsets(diamond))
    dtable = [-1] * 16
    for u in dups:
        dtable[u] = 15 if u == 15 else 8
    assert {kernels.locality_violation(dups, dtable) for _ in range(2000)} == {32}


def test_positive_morphism_wrapper_round_trip():
    rng = random.Random(26)
    for _ in range(40):
        t = random_poset(rng, rng.randint(1, 3))
        s = random_poset(rng, rng.randint(1, 3))
        m = positive_morphism(t, s)
        if m is not None:
            assert verify_positive_morphism(t, s, m)
