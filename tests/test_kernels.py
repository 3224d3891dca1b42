"""Kernel semantics plus pure/compiled backend parity.

The parity fuzz calls every kernel on both backends with identical
random structures and demands identical results, including raised
exceptions. translation_gap is the one sanctioned exception: the
backends must agree on whether a gap exists, not on which witness
is packed first.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from subminimal import kernels
from subminimal.antichain import (
    positive_morphism,
    verify_order_onto,
    verify_positive_morphism,
)
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    enumerate_upsets,
    eval_formula,
    random_nframe,
    random_ntable,
    random_poset,
    refuting_valuation,
)
from subminimal.kernels import pure
from subminimal.modal import NS4Model, lift_nstar, ns4_eval, random_ns4_frame
from subminimal.syntax import compile_modal, compile_prop, parse, random_formula

try:
    from subminimal.kernels import _core
except ImportError:
    _core = None

BACKENDS = [pure] if _core is None else [pure, _core]
CHAIN2 = Poset(2, (3, 2))
CHAIN2_UPSETS = (0, 2, 3)
LAWFUL2 = (2, -1, 3, 2)


def backend_params():
    return pytest.mark.parametrize(
        "impl", BACKENDS, ids=[m.__name__.rsplit(".", 1)[-1] for m in BACKENDS]
    )


def test_dispatch_names_a_backend():
    assert kernels.BACKEND in ("pure", "compiled")
    if os.environ.get("SUBMINIMAL_PURE") == "1":
        assert kernels.BACKEND == "pure"
    elif _core is not None:
        assert kernels.BACKEND == "compiled"


@backend_params()
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


@backend_params()
def test_eval_prop_sentinels(impl):
    neg_code = compile_prop(parse("~p"), ["p"])
    # the hole at the non-upset index {0} is reachable only by feeding
    # a non-upset valuation directly to the kernel
    assert impl.eval_prop(neg_code, 2, CHAIN2.up, LAWFUL2, [1]) == -1
    modal_code = compile_modal(parse("[n]p", "modal"), ["p"])
    assert impl.eval_prop(modal_code, 2, CHAIN2.up, LAWFUL2, [2]) == -2


@backend_params()
def test_eval_modal_matches_ns4_eval(impl):
    rng = random.Random(21)
    names = ("p", "q")
    for _ in range(150):
        fr = random_ns4_frame(rng, rng.randint(1, 3))
        val = {x: rng.randrange(1 << fr.n) for x in names}
        f = random_formula(rng, names, 3, "modal")
        got = impl.eval_modal(
            compile_modal(f, names), fr.n, fr.rel, fr.ntable, [val[x] for x in names]
        )
        assert got == ns4_eval(NS4Model(fr, val), f)


@backend_params()
def test_eval_modal_rejects_prop_negation(impl):
    code = compile_prop(parse("~p"), ["p"])
    assert impl.eval_modal(code, 2, CHAIN2.up, LAWFUL2, [2]) == -2


@backend_params()
def test_refuting_valuation_prop_agrees_with_search(impl):
    rng = random.Random(22)
    names = ("p", "q")
    for _ in range(120):
        fr = random_nframe(rng, rng.randint(1, 3))
        ups = enumerate_upsets(fr.poset)
        f = random_formula(rng, names, 3)
        idx = impl.find_refuting_valuation_prop(
            compile_prop(f, names), 2, fr.poset.n, fr.poset.up, fr.ntable, ups
        )
        hit = refuting_valuation(fr, f)
        assert (idx == -1) == (hit is None)
        if idx != -1:
            nu = len(ups)
            val = {names[1]: ups[idx % nu], names[0]: ups[(idx // nu) % nu]}
            full = (1 << fr.poset.n) - 1
            assert eval_formula(NModel(fr, val), f) != full


@backend_params()
def test_refuting_valuation_prop_domain_error(impl):
    code = compile_prop(parse("~p"), ["p"])
    with pytest.raises(ValueError, match="evaluation left the negation table domain"):
        impl.find_refuting_valuation_prop(
            code, 1, 2, CHAIN2.up, (-1, -1, -1, -1), CHAIN2_UPSETS
        )


@backend_params()
def test_refuting_valuation_modal_opcode_error(impl):
    code = compile_prop(parse("~p"), ["p"])
    with pytest.raises(ValueError, match="modal opcode mismatch"):
        impl.find_refuting_valuation_modal(code, 1, 2, CHAIN2.up, (0, 0, 0, 0))


@backend_params()
def test_locality_violation_packed_witness(impl):
    # lawful table on the 2-chain
    assert impl.locality_violation(2, CHAIN2_UPSETS, LAWFUL2) == -1
    # N(W)&{1} = 2 but N(W & {1})&{1} = N({1})&{1} = 0: fails at
    # upset index 2 (the full set) against index 1 (the top cone)
    bad = (0, -1, 0, 3)
    assert impl.locality_violation(2, CHAIN2_UPSETS, bad) == 2 * 3 + 1


@backend_params()
def test_ns4_table_violation_codes(impl):
    # value {0} is not an upset of the 2-chain: code 2*X at X=0
    assert impl.ns4_table_violation(2, CHAIN2.up, (1, 0, 0, 0)) == 0
    # discrete order, N({1}) = W but N({1} & up(0)) = N(0) = 0: locality
    # breaks at X=2, code 2*X+1
    assert impl.ns4_table_violation(2, (1, 2), (0, 0, 3, 0)) == 5
    assert impl.ns4_table_violation(2, (1, 2), (0, 0, 0, 0)) == -1


@backend_params()
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


@backend_params()
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


@backend_params()
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


@backend_params()
def test_search_positive_morphism_existence(impl):
    rng = random.Random(25)
    for _ in range(80):
        t = random_poset(rng, rng.randint(1, 3))
        s = random_poset(rng, rng.randint(1, 3))
        got = impl.search_positive_morphism(t.n, t.up, t.down, s.n, s.up, s.down)
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


def _capture(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - parity wants the exact failure
        return ("err", type(exc).__name__, str(exc))


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_backend_parity_fuzz():
    rng = random.Random(4242)
    names = ("p", "q", "r")
    for round_ in range(150):
        n = rng.randint(1, 4)
        p = random_poset(rng, n)
        ups = enumerate_upsets(p)
        lawful = random_ntable(rng, p)
        broken = list(lawful)
        broken[rng.choice(ups)] = rng.choice(ups)
        total = tuple(rng.randrange(1 << n) for _ in range(1 << n))
        f = random_formula(rng, names, 3)
        g = random_formula(rng, names, 3, "modal")
        code = compile_prop(f, names)
        mcode = compile_modal(g, names)
        val = [rng.choice(ups) for _ in names]
        mval = [rng.randrange(1 << n) for _ in names]
        q = random_poset(rng, rng.randint(1, 3))
        nstar = pure.lift_table(n, p.up, ups, lawful)
        jobs = [
            (pure.eval_prop, (code, n, p.up, lawful, val)),
            (pure.eval_modal, (mcode, n, p.up, total, mval)),
            (
                pure.find_refuting_valuation_prop,
                (code, len(names), n, p.up, lawful, ups),
            ),
            (
                pure.find_refuting_valuation_modal,
                (mcode, len(names), n, p.up, total),
            ),
            (pure.locality_violation, (n, ups, tuple(broken))),
            (pure.locality_violation, (n, ups, lawful)),
            (pure.ns4_table_violation, (n, p.up, total)),
            (pure.lift_table, (n, p.up, ups, lawful)),
            (pure.search_order_onto, (p.n, p.up, p.down, q.n, q.up, q.down)),
            (
                pure.search_positive_morphism,
                (p.n, p.up, p.down, q.n, q.up, q.down),
            ),
        ]
        if n <= 3:
            k = rng.randint(0, 2)
            jobs.append((pure.en_holds, (n, total, k)))
            jobs.append((pure.rn_holds, (n, total, k)))
        for ref_fn, args in jobs:
            fast_fn = getattr(_core, ref_fn.__name__)
            a = _capture(ref_fn, *args)
            b = _capture(fast_fn, *args)
            assert a == b, (round_, ref_fn.__name__, a, b)
        gap_a = _capture(pure.translation_gap, n, p.up, lawful, nstar, ups, 2)
        gap_b = _capture(_core.translation_gap, n, p.up, lawful, nstar, ups, 2)
        if gap_a[0] == "ok":
            assert gap_b[0] == "ok"
            assert (gap_a[1] == -1) == (gap_b[1] == -1), (round_, gap_a, gap_b)
        else:
            assert gap_a == gap_b


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_compiled_guard_on_oversized_spaces():
    # 63 variables over 2 upsets stays within the pure semantics but
    # overflows a signed 64-bit counter; the extension refuses it
    code = compile_prop(parse("p"), ["p"])
    with pytest.raises(ValueError, match="valuation space exceeds the compiled range"):
        _core.find_refuting_valuation_prop(code, 70, 1, (1,), (1, 1), (0, 1))
    with pytest.raises(ValueError, match="guard space exceeds the compiled range"):
        _core.en_holds(2, (0, 0, 0, 0), 40)


def test_positive_morphism_wrapper_round_trip():
    rng = random.Random(26)
    for _ in range(40):
        t = random_poset(rng, rng.randint(1, 3))
        s = random_poset(rng, rng.randint(1, 3))
        m = positive_morphism(t, s)
        if m is not None:
            assert verify_positive_morphism(t, s, m)


def test_kernel_micro_cases_keep_their_frozen_results():
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "kernel_cases.py")],
        capture_output=True,
        text=True,
        cwd=root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
