"""Filtrations of N-models through subformula-closed sets.

A filtration of a model through Sigma is a quotient by Sigma-agreement
together with an order and a negation table on the classes subject to
four conditions: the order extends the projected order (a), respects
Sigma-truth (b), its negation never exceeds the projected negation (c),
and reaches every projected negation of a Sigma-set (d). Its valuation
is the projection of the source one on the variables of Sigma. The
greatest filtration is computed directly and dominates every filtration
through the same Sigma (greatest_among proves it). The class-wise bound
of a quotient set, _class_bound, is the greatest table, the ceiling of
(c) and the range of enumerated tables, which go flat to NFrame.

Sigma is read on a model once for all the functions here: _partition
evaluates it through frames.truth_sets, each shared subformula once,
derives the signatures, the projection and the classes, and keeps that
read in the model's _reads under the Sigma object. The next call on the
same model with the same Sigma object takes the read from there, and so
do the class-wise bounds, each computed once. A read is keyed by the
object, not by its value, because the (b) witness follows that object's
iteration order; it is taken only while the model's valuation equals
the one it was read under, and read again otherwise. A read that fails
is not kept: the theorem check then goes formula by formula through
frames.formula_evaluator, so its errors come in show order. A world's
signature is an int whose bit i says whether the i-th member of Sigma
holds there: worlds agree on Sigma exactly when their signatures are
equal, and in the greatest order class c lies below class d exactly
when the signature of c is a subset of that of d. The signatures are
the transpose of the truth sets, and the class members that of the
projection (kernels.pure._transpose); the greatest order is
kernels.pure._inclusion_cones of the class signatures; and
enumerate_filtrations takes its orders, from the projected order up
to the greatest, from frames._orders_between.

Quotient tables can carry values that are not upsets of the quotient
order; this happens in small corners and is harmless because every
Sigma-definable set is a quotient upset and evaluation of Sigma
formulas never leaves those.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Sequence

from subminimal.frames import (
    DEFAULT_MAX_WORLDS,
    NFrame,
    NModel,
    Poset,
    SearchTimeout,
    _orders_between,
    _push_mask,
    countermodel_search,
    formula_evaluator,
    truth_sets,
)
from subminimal.kernels.pure import _inclusion_cones, _transpose
from subminimal.syntax import (
    Formula,
    Logic,
    Neg,
    Var,
    _require_closed,
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


@dataclass(frozen=True)
class FiltrationResult:
    """A quotient model with its projection and the set it was built from."""

    quotient: NModel
    pi: tuple[int, ...]
    sigma: frozenset[Formula]

    def classes(self) -> int:
        return self.quotient.frame.n


_READS_KEPT = 8


@dataclass(eq=False)
class _Read:
    """Sigma read on one model, as _partition keeps it in NModel._reads.

    sig[w] has bit i set when order[i], the i-th member of tuple(sigma),
    holds at w; sigs[c] is the signature of class c. qval values each
    variable occurring in Sigma, by name order, with the projection of
    its source value under pi. bounds keeps each _class_bound under pi
    as it is asked for.
    """

    sigma: Collection[Formula]
    valuation: dict[str, int]
    truth: dict[Formula, int]
    order: tuple[Formula, ...]
    sig: list[int]
    pi: tuple[int, ...]
    members: list[int]
    sigs: list[int]
    qval: dict[str, int]
    closed: bool = False
    bounds: dict[int, int] = field(default_factory=dict)

    def bound(self, m: NModel, x: int) -> int:
        """_class_bound of the class set x under pi."""
        b = self.bounds.get(x)
        if b is None:
            b = self.bounds[x] = _class_bound(m, x, self.members, self.pi)
        return b

    @cached_property
    def negs(self) -> list[Formula]:
        """The negations in Sigma in show order, the order (d) tries."""
        return sorted((f for f in self.sigma if isinstance(f, Neg)), key=show)


def _partition(m: NModel, sigma: Collection[Formula], require_closed: bool = False) -> _Read:
    """Sigma read on the model: its truth sets, the signatures and the
    projection of worlds to classes by Sigma-agreement.

    Classes are numbered by their least member so the construction is
    reproducible. The read is kept in m._reads under the Sigma object
    and given again while that object is the one read and the valuation
    equals the one it was read under. With require_closed, Sigma must be
    subformula-closed, which is checked before Sigma is read and once
    per read.
    """
    reads = m._reads
    read = reads.get(id(sigma))
    fresh = read is None or read.sigma is not sigma or read.valuation != m.valuation
    if require_closed and (fresh or not read.closed):
        _require_closed(sigma)
    if fresh:
        truth = truth_sets(m, sigma)
        order = tuple(sigma)
        sig = _transpose([truth[f] for f in order], m.frame.n)
        # worlds run upwards, so classes enter in the order of their least member
        classes: dict[int, int] = {}
        for w, s in enumerate(sig):
            classes[s] = classes.get(s, 0) | 1 << w
        index = {s: c for c, s in enumerate(classes)}
        pi = tuple(index[s] for s in sig)
        names = sorted(f.name for f in truth if isinstance(f, Var))
        qval = {name: _push_mask(m.valuation[name], pi) for name in names}
        read = _Read(sigma, dict(m.valuation), truth, order, sig, pi, list(classes.values()), list(classes), qval)
        # the read holds its Sigma, so the id key stays that object's; a
        # caller passing a new Sigma object per call fills at most
        # _READS_KEPT reads
        reads.pop(id(sigma), None)
        if len(reads) >= _READS_KEPT:
            del reads[next(iter(reads))]
        reads[id(sigma)] = read
    read.closed |= require_closed
    return read


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


def _greatest(m: NModel, sigma: frozenset[Formula]) -> tuple[FiltrationResult, _Read]:
    """The greatest filtration and the read of Sigma on the model."""
    read = _partition(m, sigma, require_closed=True)
    pi, sigs = read.pi, read.sigs
    k = len(sigs)
    qposet = Poset(k, _inclusion_cones(sigs))
    table = [-1] * (1 << k)
    for x in qposet.upsets():
        table[x] = read.bound(m, x)
    # a copy: a caller may change the quotient's valuation in place
    qval = dict(read.qval)
    return FiltrationResult(NModel(NFrame(qposet, tuple(table)), qval), pi, sigma), read


def check_conditions(m: NModel, r: FiltrationResult) -> tuple[str, tuple] | None:
    """Verify the four filtration conditions exhaustively.

    Returns None when all hold, otherwise the first violated condition
    with a witness: ("onto", (class,)), ("a", (w, v)), ("b", (w, v, f)),
    ("c", (X, class)), ("d", (w, f)) or ("v", (name,)). A filtration's
    projection is onto, so the least class no world projects to is
    refused first; the conditions below read such a class as
    unconstrained. The negation condition (c) is read class-wise: the
    quotient table at X stays inside the projection of the source
    negation of the preimage of X. Last, the quotient must value each
    variable occurring in Sigma by the projection of its source value;
    the least variable, by name, it leaves out or values otherwise is
    refused.
    """
    sigma = r.sigma
    pi = r.pi
    n = m.frame.n
    members = _transpose([1 << c for c in pi], r.classes())
    if 0 in members:
        return ("onto", (members.index(0),))
    read = _partition(m, sigma)
    # the (b) witness is the first formula in Sigma's iteration order
    truth, order, sig = read.truth, read.order, read.sig
    qposet = r.quotient.frame.poset
    # the worlds whose class lies above each class in the quotient order
    above = [_preimage(u, members) for u in qposet.up]
    for w in range(n):
        lost = m.frame.poset.up[w] & ~above[pi[w]]
        if lost:
            return ("a", (w, (lost & -lost).bit_length() - 1))
    for w in range(n):
        rest = above[pi[w]]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            lost = sig[w] & ~sig[v]
            if lost:
                return ("b", (w, v, order[(lost & -lost).bit_length() - 1]))
    shared = pi == read.pi
    for x in qposet.upsets():
        bound = read.bound(m, x) if shared else _class_bound(m, x, members, pi)
        extra = r.quotient.frame.ntable[x] & ~bound
        if extra:
            return ("c", (x, (extra & -extra).bit_length() - 1))
    for f in read.negs:
        value = truth[f.sub]
        target = _preimage(r.quotient.frame.ntable[_push_mask(value, pi)], members)
        missed = m.frame.neg(value) & ~target
        if missed:
            return ("d", ((missed & -missed).bit_length() - 1, f))
    qval = read.qval if shared else {name: _push_mask(m.valuation[name], pi) for name in read.qval}
    valuation = r.quotient.valuation
    if valuation != qval:
        # the quotient may value variables outside Sigma as it likes
        for name, value in qval.items():
            if valuation.get(name) != value:
                return ("v", (name,))
    return None


def filtration_theorem_check(m: NModel, r: FiltrationResult) -> tuple[Formula, int] | None:
    """Pointwise truth agreement between model and quotient over Sigma.

    Expects r to satisfy check_conditions; returns None on agreement,
    else the first (formula, world) where membership differs, formulas
    in show order. A formula the model or the quotient cannot evaluate
    raises eval_formula's error when its turn comes in that order.
    """
    members = _transpose([1 << c for c in r.pi], r.classes())
    try:
        source = _partition(m, r.sigma).truth.__getitem__
    except (TypeError, ValueError):
        # evaluated formula by formula, the errors come in show order
        source = formula_evaluator(m)
    target = formula_evaluator(r.quotient)
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
    # each kept error's traceback holds this frame, so neither the dict
    # nor the error raised may stay in it: that would be a cycle
    first = failures[min(failures, key=show)]
    failures.clear()
    if not isinstance(first, ValueError):
        return first
    try:
        raise first
    finally:
        del first


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
    # check_conditions has read other.sigma; an equal Sigma has its classes
    read = _partition(m, other.sigma, require_closed=sigma is other.sigma)
    if sigma is not other.sigma:
        _require_closed(sigma)
    if sigma == other.sigma and other.pi == read.pi:
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
    g, read = _greatest(m, sigma)
    pi = g.pi
    k = g.classes()
    floor = [1 << c for c in range(k)]
    for w in range(m.frame.n):
        floor[pi[w]] |= _push_mask(m.frame.poset.up[w], pi)
    forced = {_push_mask(read.truth[f.sub], pi) for f in sigma if isinstance(f, Neg)}
    out: list[FiltrationResult] = []
    for up in _orders_between(floor, g.quotient.frame.poset.up):
        qposet = Poset(k, up)
        upsets = qposet.upsets()
        # at the projection of a negated Sigma formula's argument the
        # value is pinned from both sides; everywhere else any subset
        # of the class-wise bound is admissible
        bounds = [read.bound(m, x) for x in upsets]
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
