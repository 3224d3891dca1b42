"""The NS4 frame generators the package replaced with trace tables, as
they were.

test_modal.py runs ``random_ns4_frame`` of modal_helpers.py and
``enumerate_ns4_frames`` of ``subminimal.modal`` against these and
demands the same frames in the same order and, for the random draws,
the same generator state after them. These are the direct loops: one
cluster trace at a time, and every total table filtered through the
NS4 frame conditions.
"""

import itertools

from modal_helpers import random_preorder
from subminimal import kernels
from subminimal.modal import NS4Frame, enumerate_preorders


def enumerate_ns4_frames(n: int) -> list[NS4Frame]:
    """Every lawful frame on n worlds; table count is (2^n)^(2^n) per
    preorder, so this is only sane for n <= 2."""
    if n > 2:
        raise ValueError("exhaustive table enumeration is infeasible past 2 worlds")
    out = []
    for rel in enumerate_preorders(n):
        for values in itertools.product(range(1 << n), repeat=1 << n):
            if kernels.ns4_table_violation(n, rel, values) < 0:
                out.append(NS4Frame(n, rel, tuple(values)))
    return out


def random_ns4_frame(rng, n: int) -> NS4Frame:
    """Random lawful frame built from per-cluster traces.

    Worlds sharing a cone mutually must admit the same trace, and a
    trace member cut down to a higher world's cone must be in that
    world's trace; choosing traces from small cones outward keeps both
    constraints satisfiable at every step.
    """
    rel = random_preorder(rng, n)
    cluster_of = {}
    reps: list[int] = []
    for w in range(n):
        for r in reps:
            if (rel[r] >> w) & 1 and (rel[w] >> r) & 1:
                cluster_of[w] = r
                break
        else:
            reps.append(w)
            cluster_of[w] = w
    cluster_mask = {r: 0 for r in reps}
    for w in range(n):
        cluster_mask[cluster_of[w]] |= 1 << w
    traces: dict[int, set[int]] = {}
    for r in sorted(reps, key=lambda r: rel[r].bit_count()):
        cone = rel[r]
        trace: set[int] = set()
        sub = cone
        while True:
            z = sub
            ok = True
            m = cone & ~cluster_mask[r]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if (z & rel[v]) not in traces[cluster_of[v]]:
                    ok = False
                    break
            if ok and rng.random() < 0.5:
                trace.add(z)
            if sub == 0:
                break
            sub = (sub - 1) & cone
        traces[r] = trace
    table = []
    for x in range(1 << n):
        mask = 0
        for w in range(n):
            if (x & rel[w]) in traces[cluster_of[w]]:
                mask |= 1 << w
        table.append(mask)
    return NS4Frame(n, rel, tuple(table))
