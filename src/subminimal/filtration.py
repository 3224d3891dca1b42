"""Filtrations of N-models through subformula-closed sets.

A filtration of a model through Sigma is a quotient by Sigma-agreement
together with an order and a negation table on the classes subject to
four conditions: the order extends the projected order (a), respects
Sigma-truth (b), its negation never exceeds the projected negation (c),
and reaches every projected negation of a Sigma-set (d). The greatest
filtration is computed directly and dominates every filtration through
the same Sigma (greatest_among proves it). The class-wise bound of a
quotient set, _class_bound, is the greatest table, the ceiling of (c)
and the range of enumerated tables, which go flat to NFrame.

Each construction and check evaluates Sigma once per model, each
shared subformula once: through frames.truth_sets, or, in the theorem
check, which goes formula by formula, through one
frames.formula_evaluator per model. A world's signature is an int
whose bit i says whether the i-th member of Sigma holds there: worlds
agree on Sigma exactly when their signatures are equal, and in the
greatest order class c lies below class d exactly when the signature
of c is a subset of that of d.

Quotient tables can carry values that are not upsets of the quotient
order; this happens in small corners and is harmless because every
Sigma-definable set is a quotient upset and evaluation of Sigma
formulas never leaves those.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from subminimal.frames import (
    DEFAULT_MAX_WORLDS,
    NFrame,
    NModel,
    Poset,
    SearchTimeout,
    _push_mask,
    _transitive,
    countermodel_search,
    formula_evaluator,
    frame_class,
    truth_sets,
)
from subminimal.syntax import (
    Formula,
    Logic,
    Neg,
    Top,
    Var,
    _children,
    chain_axioms,
    is_instance_of,
    show,
    subformula_closure,
)


class ResourceLimitError(RuntimeError):
    """A completeness claim would need a search beyond the allowed bound."""


def close_sigma(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Subformula closure of a set of formulas."""
    out: set[Formula] = set()
    for f in formulas:
        out |= subformula_closure(f)
    return frozenset(out)


def _require_closed(sigma: frozenset[Formula]) -> None:
    # a set holding the direct subformulas of each member holds all
    for f in sigma:
        for sub in _children(f):
            if sub not in sigma:
                raise ValueError(
                    f"sigma is not subformula-closed: {show(f)} needs {show(sub)}"
                )


@dataclass(frozen=True)
class FiltrationResult:
    """A quotient model with its projection and the set it was built from."""

    quotient: NModel
    pi: tuple[int, ...]
    sigma: frozenset[Formula]

    def classes(self) -> int:
        return self.quotient.frame.n


def _signatures(truth: Mapping[Formula, int], order: Sequence[Formula], n: int) -> list[int]:
    """Per world, the int whose bit i is set when order[i] holds there."""
    sig = [0] * n
    for i, f in enumerate(order):
        t = truth[f]
        while t:
            w = (t & -t).bit_length() - 1
            t &= t - 1
            sig[w] |= 1 << i
    return sig


def _partition(
    m: NModel, sigma: frozenset[Formula]
) -> tuple[tuple[int, ...], list[int], list[int], dict[Formula, int]]:
    """Project worlds to class indices by Sigma-agreement.

    Returns (pi, class masks, class signatures, source truth sets).
    Classes are numbered by their least member so the construction is
    reproducible.
    """
    truth = truth_sets(m, sigma)
    sig = _signatures(truth, tuple(sigma), m.frame.n)
    # worlds run upwards, so classes enter in the order of their least member
    classes: dict[int, int] = {}
    for w, s in enumerate(sig):
        classes[s] = classes.get(s, 0) | 1 << w
    index = {s: c for c, s in enumerate(classes)}
    return tuple(index[s] for s in sig), list(classes.values()), list(classes), truth


def _members(pi: Sequence[int], k: int) -> list[int]:
    """World masks of the k classes of the projection pi."""
    out = [0] * k
    for w, c in enumerate(pi):
        out[c] |= 1 << w
    return out


def _preimage(mask: int, members: list[int]) -> int:
    out = 0
    for c, cm in enumerate(members):
        if (mask >> c) & 1:
            out |= cm
    return out


def _class_bound(m: NModel, x: int, members: list[int], pi: Sequence[int]) -> int:
    """Projection of the source negation of the preimage of class set x."""
    return _push_mask(m.frame.neg(_preimage(x, members)), pi)


def greatest_filtration(m: NModel, sigma: Iterable[Formula]) -> FiltrationResult:
    """The greatest filtration of the model through Sigma.

    Classes are ordered by one-directional Sigma-truth inclusion and
    the negation of a quotient upset is the projection of the source
    negation of its preimage. The valuation keeps exactly the
    variables occurring in Sigma.
    """
    return _greatest(m, frozenset(sigma))[0]


def _greatest(m: NModel, sigma: frozenset[Formula]) -> tuple[FiltrationResult, dict[Formula, int]]:
    """The greatest filtration and the source truth sets of Sigma."""
    _require_closed(sigma)
    pi, members, sigs, truth = _partition(m, sigma)
    k = len(members)
    up = [sum(1 << d for d in range(k) if sigs[c] & ~sigs[d] == 0) for c in range(k)]
    qposet = Poset(k, up)
    table = [-1] * (1 << k)
    for x in qposet.upsets():
        table[x] = _class_bound(m, x, members, pi)
    names = sorted(f.name for f in sigma if isinstance(f, Var))
    qval = {name: _push_mask(m.valuation[name], pi) for name in names}
    return FiltrationResult(NModel(NFrame(qposet, tuple(table)), qval), pi, sigma), truth


def check_conditions(m: NModel, r: FiltrationResult) -> tuple[str, tuple] | None:
    """Verify the four filtration conditions exhaustively.

    Returns None when all hold, otherwise the first violated condition
    with a witness: ("onto", (class,)), ("a", (w, v)), ("b", (w, v, f)),
    ("c", (X, class)), or ("d", (w, f)). A filtration's projection is
    onto, so the least class no world projects to is refused first;
    the conditions below read such a class as unconstrained. The
    negation condition (c) is read class-wise: the quotient table at X
    stays inside the projection of the source negation of the preimage
    of X.
    """
    sigma = r.sigma
    pi = r.pi
    n = m.frame.n
    members = _members(pi, r.classes())
    if 0 in members:
        return ("onto", (members.index(0),))
    truth = truth_sets(m, sigma)
    # the (b) witness is the first formula in Sigma's iteration order
    order = tuple(sigma)
    sig = _signatures(truth, order, n)
    qposet = r.quotient.frame.poset
    for w in range(n):
        lost = m.frame.poset.up[w] & ~_preimage(qposet.up[pi[w]], members)
        if lost:
            return ("a", (w, (lost & -lost).bit_length() - 1))
    for w in range(n):
        for v in range(n):
            if not qposet.le(pi[w], pi[v]):
                continue
            lost = sig[w] & ~sig[v]
            if lost:
                return ("b", (w, v, order[(lost & -lost).bit_length() - 1]))
    for x in qposet.upsets():
        extra = r.quotient.frame.ntable[x] & ~_class_bound(m, x, members, pi)
        if extra:
            return ("c", (x, (extra & -extra).bit_length() - 1))
    for f in sorted((f for f in sigma if isinstance(f, Neg)), key=show):
        value = truth[f.sub]
        target = _preimage(r.quotient.frame.ntable[_push_mask(value, pi)], members)
        missed = m.frame.neg(value) & ~target
        if missed:
            return ("d", ((missed & -missed).bit_length() - 1, f))
    return None


def filtration_theorem_check(m: NModel, r: FiltrationResult) -> tuple[Formula, int] | None:
    """Pointwise truth agreement between model and quotient over Sigma.

    Expects r to satisfy check_conditions; returns None on agreement,
    else the first (formula, world) where membership differs, formulas
    in show order. A formula the model or the quotient cannot evaluate
    raises eval_formula's error when its turn comes in that order.
    """
    members = _members(r.pi, r.classes())
    source, target = formula_evaluator(m), formula_evaluator(r.quotient)
    # collecting every failure first spares the show order when none occurs
    failures: dict[Formula, tuple[Formula, int] | ValueError] = {}
    for f in r.sigma:
        try:
            diff = source(f) ^ _preimage(target(f), members)
        except ValueError as exc:
            failures[f] = exc
            continue
        if diff:
            failures[f] = (f, (diff & -diff).bit_length() - 1)
    if not failures:
        return None
    first = failures[min(failures, key=show)]
    if isinstance(first, ValueError):
        raise first
    return first


def greatest_among(m: NModel, sigma: Iterable[Formula], other: FiltrationResult) -> bool:
    """Whether the greatest filtration dominates the given one: always.

    Domination: the other order lies inside the greatest one and, on
    every greatest upset, the other negation inside the greatest one.
    Proof: the other pi is the Sigma-agreement projection, and onto by
    check_conditions, so it has the greatest one's classes; c <= d in
    the other order means c = pi(w) and d = pi(v) with, by (b), the
    signature of w inside that of v; so c <= d in the greatest order.
    Each greatest upset X is then an upset of the other order, and
    there (c) bounds the other N(X) by _class_bound, the greatest
    table. A non-filtration, or a candidate
    through another Sigma or projection, raises ValueError.
    """
    bad = check_conditions(m, other)
    if bad is not None:
        raise ValueError(f"not a filtration: condition ({bad[0]}) fails at {bad[1]}")
    sigma = frozenset(sigma)
    _require_closed(sigma)
    if sigma == other.sigma and other.pi == _partition(m, sigma)[0]:
        return True
    raise ValueError("projection mismatch: same model and sigma expected")


def _submasks(mask: int) -> list[int]:
    """Every submask of the mask, descending from the mask to 0."""
    out = [mask]
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        out.append(sub)
    return out


def enumerate_filtrations(m: NModel, sigma: Iterable[Formula]) -> list[FiltrationResult]:
    """Every filtration of the model through Sigma, small scale.

    The order ranges over partial orders squeezed between the projected
    source order and the greatest order; the negation table is forced
    at Sigma-definable upsets and ranges over subsets of its class-wise
    bound elsewhere. Exponential by nature: meant for models of a
    handful of worlds.
    """
    sigma = frozenset(sigma)
    g, truth = _greatest(m, sigma)
    pi = g.pi
    k = g.classes()
    members = _members(pi, k)
    floor = [1 << c for c in range(k)]
    for w in range(m.frame.n):
        floor[pi[w]] |= _push_mask(m.frame.poset.up[w], pi)
    ceil = g.quotient.frame.poset.up
    gap = [(c, d) for c in range(k) for d in range(k) if not (floor[c] >> d) & 1 and (ceil[c] >> d) & 1]
    forced = {_push_mask(truth[f.sub], pi) for f in sigma if isinstance(f, Neg)}
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
        bounds = [_class_bound(m, x, members, pi) for x in upsets]
        choices = [(b,) if x in forced else _submasks(b) for x, b in zip(upsets, bounds)]
        table = [-1] * (1 << k)
        for values in itertools.product(*choices):
            for x, value in zip(upsets, values):
                table[x] = value
            quotient = NModel(NFrame(qposet, tuple(table)), g.quotient.valuation)
            out.append(FiltrationResult(quotient, pi, sigma))
    return out


# --------------------------------------------------------------------------
# decision wrapper


@dataclass(frozen=True)
class Verdict:
    """Outcome of decide: status plus the witness when refuted."""

    status: str
    logic: str
    formula: Formula
    bound: int | None = None
    model: NModel | None = None
    world: int | None = None


def decide(
    logic: Logic,
    f: Formula,
    max_worlds: int = DEFAULT_MAX_WORLDS,
    timeout_ms: int | None = None,
) -> Verdict:
    """Decide a formula against a logic, honestly bounded.

    Substitution instances of the logic's axioms (or of a weaker
    logic's in the chain) are theorems without search. Otherwise a
    countermodel search runs over frames of the class. Exhaustion
    certifies theoremhood only where a finite-model bound exists (the
    base logic and MPC, bound 2^|closure|); when that bound exceeds
    max_worlds and no countermodel surfaced, ResourceLimitError is
    raised rather than guessing. For NeF and CoPC no bound is claimed
    and the non-refuted status says only how far the search went.
    """
    for axiom in chain_axioms(logic):
        if is_instance_of(f, axiom):
            return Verdict("theorem", logic.name, f)
    deadline = time.time() + timeout_ms / 1000 if timeout_ms is not None else None
    fmp = logic.name in ("n", "mpc")
    target = 1 << len(subformula_closure(f)) if fmp else max_worlds
    reach = min(target, max_worlds)
    hit = countermodel_search(logic, f, reach, deadline=deadline)
    if hit is not None:
        model, world = hit
        return Verdict("refuted", logic.name, f, bound=reach, model=model, world=world)
    if fmp:
        if target <= max_worlds:
            return Verdict("theorem", logic.name, f, bound=target)
        raise ResourceLimitError(
            f"certifying theoremhood for {logic.name} needs frames up to "
            f"{target} worlds, above the limit of {max_worlds}"
        )
    return Verdict("no-countermodel-up-to-bound", logic.name, f, bound=reach)
