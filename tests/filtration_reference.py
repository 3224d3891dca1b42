"""The filtration layer as it was before Sigma was evaluated in one pass.

The differential tests in test_filtration.py run the package's
filtration functions against these and demand the same filtrations,
the same witnesses and the same errors. Here every formula of Sigma is
compiled and evaluated on its own through the kernel, worlds are
grouped by a tuple signature in show order, and the order is tested
formula by formula. greatest_among is the brute-force domination check
that rebuilds the greatest filtration and compares orders and tables.
"""

import itertools
from typing import Iterable

from subminimal import kernels
from subminimal.filtration import FiltrationResult, _preimage, _submasks
from subminimal.frames import (
    NFrame,
    NModel,
    Poset,
    _push_mask,
    _transitive,
    ntable_from_upset_map,
)
from subminimal.syntax import (
    Formula,
    Neg,
    compile_prop,
    show,
    subformula_closure,
    variables,
)


def eval_formula(m: NModel, f: Formula) -> int:
    """Truth set of a propositional formula in the model, as a mask."""
    names = variables(f)
    missing = [x for x in names if x not in m.valuation]
    if missing:
        raise ValueError(f"model does not value variable {missing[0]}")
    code = compile_prop(f, names)
    val = [m.valuation[x] for x in names]
    out = kernels.eval_prop(code, m.frame.n, list(m.frame.poset.up), list(m.frame.ntable), val)
    if out == -1:
        raise ValueError("evaluation hit an undefined negation entry")
    if out == -2:
        raise ValueError(f"not a propositional formula: {show(f)}")
    return out


def _members(pi, k: int) -> list[int]:
    """World masks of the k classes of the projection pi."""
    out = [0] * k
    for w, c in enumerate(pi):
        out[c] |= 1 << w
    return out


def _require_closed(sigma: frozenset[Formula]) -> None:
    for f in sigma:
        for sub in subformula_closure(f):
            if sub not in sigma:
                raise ValueError(
                    f"sigma is not subformula-closed: {show(f)} needs {show(sub)}"
                )


def _partition(m: NModel, sigma: frozenset[Formula]) -> tuple[tuple[int, ...], list[int], dict[Formula, int]]:
    """Project worlds to class indices by Sigma-agreement.

    Returns (pi, class masks, source truth sets). Classes are numbered
    by their least member so the construction is reproducible.
    """
    truth = {f: eval_formula(m, f) for f in sigma}
    n = m.frame.n
    sigs: dict[tuple[int, ...], int] = {}
    order = sorted(sigma, key=show)
    members: list[int] = []
    pi = [0] * n
    for w in range(n):
        sig = tuple((truth[f] >> w) & 1 for f in order)
        if sig not in sigs:
            sigs[sig] = len(members)
            members.append(0)
        pi[w] = sigs[sig]
        members[pi[w]] |= 1 << w
    ranked = sorted(range(len(members)), key=lambda c: members[c] & -members[c])
    rank = {c: i for i, c in enumerate(ranked)}
    pi = [rank[c] for c in pi]
    members = [members[c] for c in ranked]
    return tuple(pi), members, truth


def greatest_filtration(m: NModel, sigma: Iterable[Formula]) -> FiltrationResult:
    """The greatest filtration of the model through Sigma.

    Classes are ordered by one-directional Sigma-truth inclusion and
    the negation of a quotient upset is the projection of the source
    negation of its preimage. The valuation keeps exactly the
    variables occurring in Sigma.
    """
    sigma = frozenset(sigma)
    _require_closed(sigma)
    pi, members, truth = _partition(m, sigma)
    k = len(members)
    reps = [(cm & -cm).bit_length() - 1 for cm in members]
    up = [1 << c for c in range(k)]
    for c in range(k):
        for d in range(k):
            if c == d:
                continue
            w, v = reps[c], reps[d]
            if all((truth[f] >> w) & 1 <= (truth[f] >> v) & 1 for f in sigma):
                up[c] |= 1 << d
    qposet = Poset(k, up)
    table: dict[int, int] = {}
    for x in qposet.upsets():
        pre = _preimage(x, members)
        table[x] = _push_mask(m.frame.neg(pre), pi)
    qframe = NFrame(qposet, ntable_from_upset_map(qposet, table))
    names = {v for f in sigma for v in variables(f)}
    qval = {name: _push_mask(m.valuation[name], pi) for name in sorted(names)}
    return FiltrationResult(NModel(qframe, qval), pi, sigma)


def check_conditions(m: NModel, r: FiltrationResult) -> tuple[str, tuple] | None:
    """Verify the four filtration conditions exhaustively.

    Returns None when all hold, otherwise the first violated condition
    with a witness: ("a", (w, v)), ("b", (w, v, f)), ("c", (X, class)),
    ("d", (w, f)) or ("v", (name,)). The negation condition (c) is read
    class-wise: the quotient table at X stays inside the projection of
    the source negation of the preimage of X. Last, the quotient must
    value each variable of Sigma by the projection of its source value;
    the least such variable, by name, it leaves out or values otherwise
    is refused.
    """
    sigma = r.sigma
    pi = r.pi
    n = m.frame.n
    members = _members(pi, r.classes())
    truth = {f: eval_formula(m, f) for f in sigma}
    qposet = r.quotient.frame.poset
    for w in range(n):
        rest = m.frame.poset.up[w]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not qposet.le(pi[w], pi[v]):
                return ("a", (w, v))
    for w in range(n):
        for v in range(n):
            if not qposet.le(pi[w], pi[v]):
                continue
            for f in sigma:
                if (truth[f] >> w) & 1 and not (truth[f] >> v) & 1:
                    return ("b", (w, v, f))
    for x in qposet.upsets():
        bound = _push_mask(m.frame.neg(_preimage(x, members)), pi)
        extra = r.quotient.frame.ntable[x] & ~bound
        if extra:
            return ("c", (x, (extra & -extra).bit_length() - 1))
    for f in sorted(sigma, key=show):
        if not isinstance(f, Neg):
            continue
        value = truth[f.sub]
        target = r.quotient.frame.ntable[_push_mask(value, pi)]
        source = m.frame.neg(value)
        rest = source
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not (target >> pi[w]) & 1:
                return ("d", (w, f))
    for name in sorted({v for f in sigma for v in variables(f)}):
        if r.quotient.valuation.get(name) != _push_mask(m.valuation[name], pi):
            return ("v", (name,))
    return None


def filtration_theorem_check(m: NModel, r: FiltrationResult) -> tuple[Formula, int] | None:
    """Pointwise truth agreement between model and quotient over Sigma.

    Expects r to satisfy check_conditions; returns None on agreement,
    else the first (formula, world) where membership differs.
    """
    for f in sorted(r.sigma, key=show):
        source = eval_formula(m, f)
        target = eval_formula(r.quotient, f)
        for w in range(m.frame.n):
            if (source >> w) & 1 != (target >> r.pi[w]) & 1:
                return (f, w)
    return None


def greatest_among(m: NModel, sigma: Iterable[Formula], other: FiltrationResult) -> bool:
    """Whether the greatest filtration dominates the given one.

    Domination means the other order is contained in the greatest
    order and, on every upset of the greatest order, the other negation
    is contained in the greatest negation. A candidate that is not a
    filtration at all is a contract violation and raises ValueError.
    """
    bad = check_conditions(m, other)
    if bad is not None:
        raise ValueError(f"not a filtration: condition ({bad[0]}) fails at {bad[1]}")
    g = greatest_filtration(m, sigma)
    if g.pi != other.pi:
        raise ValueError("projection mismatch: same model and sigma expected")
    gposet = g.quotient.frame.poset
    oposet = other.quotient.frame.poset
    for c in range(gposet.n):
        if oposet.up[c] & ~gposet.up[c]:
            return False
    for x in gposet.upsets():
        if other.quotient.frame.ntable[x] & ~g.quotient.frame.ntable[x]:
            return False
    return True


def enumerate_filtrations(m: NModel, sigma: Iterable[Formula]) -> list[FiltrationResult]:
    """Every filtration of the model through Sigma, small scale.

    The order ranges over partial orders squeezed between the projected
    source order and the greatest order; the negation table is forced
    at Sigma-definable upsets and ranges over subsets of its class-wise
    bound elsewhere. Exponential by nature: meant for models of a
    handful of worlds.
    """
    sigma = frozenset(sigma)
    _require_closed(sigma)
    g = greatest_filtration(m, sigma)
    pi = g.pi
    k = g.classes()
    members = _members(pi, k)
    floor = [1 << c for c in range(k)]
    for w in range(m.frame.n):
        floor[pi[w]] |= _push_mask(m.frame.poset.up[w], pi)
    ceil = g.quotient.frame.poset.up
    gap = [(c, d) for c in range(k) for d in range(k) if not (floor[c] >> d) & 1 and (ceil[c] >> d) & 1]
    forced = {
        _push_mask(eval_formula(m, f.sub), pi) for f in sigma if isinstance(f, Neg)
    }
    out: list[FiltrationResult] = []
    for pick in range(1 << len(gap)):
        up = list(floor)
        for i, (c, d) in enumerate(gap):
            if (pick >> i) & 1:
                up[c] |= 1 << d
        if not _transitive(up):
            continue
        qposet = Poset(k, up)
        upsets = qposet.upsets()
        # at the projection of a negated Sigma formula's argument the
        # value is pinned from both sides; everywhere else any subset
        # of the class-wise bound is admissible
        choices = []
        for x in upsets:
            bound = _push_mask(m.frame.neg(_preimage(x, members)), pi)
            choices.append((bound,) if x in forced else _submasks(bound))
        for values in itertools.product(*choices):
            qframe = NFrame(qposet, ntable_from_upset_map(qposet, dict(zip(upsets, values))))
            quotient = NModel(qframe, g.quotient.valuation)
            out.append(FiltrationResult(quotient, pi, sigma))
    return out
