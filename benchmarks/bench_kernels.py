"""Time the kernels on a few representative micro-cases.

Run as a script. Each row times one deterministic workload (best of a
few repeats); the point is a quick regression signal, not statistics.
``perfbench/kernel_cases.py`` runs the same cases through ``_workloads``
and checks their results against frozen values.
"""

from __future__ import annotations

import time

from subminimal import kernels
from subminimal.antichain import build_delta
from subminimal.frames import NFrame, Poset, enumerate_upsets, ntable_from_upset_map
from subminimal.syntax import AXIOM_COPC, compile_prop, godel_translate, compile_modal

# perfbench/kernel_cases.py runs the cases on ``pure``, and on
# ``compiled`` only when it is set; the package has one kernel module
pure = kernels
compiled = None


def _chain_frame(n: int) -> NFrame:
    p = Poset.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    full = (1 << n) - 1
    top = 1 << (n - 1)
    return NFrame(
        p, ntable_from_upset_map(p, {u: top if u != full else full for u in p.upsets()})
    )


def _workloads():
    fr = _chain_frame(6)
    ups = list(fr.poset.upsets())
    up = list(fr.poset.up)
    nt = list(fr.ntable)
    code = list(compile_prop(AXIOM_COPC, ("p", "q")))
    yield (
        "refute copc axiom, 6-chain",
        lambda k: k.find_refuting_valuation_prop(code, 2, fr.n, up, (nt,), ups),
        20,
    )

    mcode = list(compile_modal(godel_translate(AXIOM_COPC), ("p", "q")))
    total = list(kernels.lift_table(fr.n, up, ups, nt))
    yield (
        "refute translated axiom, 6-chain",
        lambda k: k.find_refuting_valuation_modal(mcode, 2, fr.n, up, total),
        3,
    )

    anti = Poset.from_pairs(6, [])
    aups = enumerate_upsets(anti)
    atab = [63] * 64
    yield (
        "translation gap, 6-antichain depth 2",
        lambda k: k.translation_gap(6, list(anti.up), atab, list(aups), 2),
        3,
    )

    d3 = build_delta(3).poset
    d2 = build_delta(2).poset
    args = (d2.n, list(d2.up), list(d2.down), d3.n, list(d3.up), list(d3.down))
    yield ("order onto, delta2 <- delta3", lambda k: k.search_order_onto(*args), 3)

    d1 = build_delta(1).poset
    pargs = (d1.n, list(d1.up), d1.n, list(d1.up))
    yield (
        "positive morphism, delta1 <- delta1",
        lambda k: k.search_positive_morphism(*pargs),
        3,
    )

    four = Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    fups = enumerate_upsets(four)
    ftab = [-1] * 16
    for u in fups:
        ftab[u] = 8 if u != 15 else 15
    yield (
        "locality sweep, diamond x 2000",
        lambda k: [k.locality_violation(list(fups), ftab) for _ in range(2000)],
        3,
    )


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    header = f"{'workload':40s} {'time':>10s}"
    print(header)
    print("-" * len(header))
    for name, fn, repeat in _workloads():
        print(f"{name:40s} {_time(lambda: fn(kernels), repeat) * 1000:9.2f}ms")


if __name__ == "__main__":
    main()
