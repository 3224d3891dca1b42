"""Filtrations of N-models through subformula-closed sets.

A filtration of a model through Sigma is a quotient by Sigma-agreement
together with an order and a negation table on the classes subject to
four conditions: the order extends the projected order (a), respects
Sigma-truth (b), its negation never exceeds the projected negation (c),
and reaches every projected negation of a Sigma-set (d). Its valuation
is the projection of the source one on the variables of Sigma. The
greatest filtration is computed directly and dominates every filtration
through the same Sigma (greatest_among proves it). The class-wise bound
of a quotient set, _Read.bound, is the greatest table, the ceiling of
(c) and the range of enumerated tables, which go flat to NFrame.

Sigma is a tuple in one order: every function here taking a Sigma
puts it in that order once, at entry (syntax._ordered), and so does
FiltrationResult, so every witness and error follows it. A closure
from close_sigma is that order already and its own walk.

Sigma is read on a model once for all the functions here: _partition
evaluates it as frames.truth_sets does, each shared subformula once,
over Sigma's walk (syntax._walk: Sigma itself when it comes from
close_sigma, else syntax._postorder's), keying the truth sets by node
in the order of that walk, derives the signatures, the projection and
the classes, and keeps that read on the model, one read per model: the
last. The next call on the same model with an equal Sigma takes the
read from there, and so do the class-wise bounds, each computed once,
the greatest quotient frame, built once per read, and the verdict of
conditions (a) and (b) per quotient order, which is all they depend
on (_Read states the bounds). check_conditions reads every filtration
through a read of its own projection: the kept read when the
filtration projects by its pi onto its classes; otherwise its class
members are the transpose of its projection, "onto" is refused before
Sigma is read, and the read is _Read.projected from the kept one,
which serves that one call and is never kept. A kept read serves any equal Sigma, which is in the same
order; it is taken only while the model's valuation equals the one it
was read under, and read again otherwise. One slot is enough: the
calls on a model come in runs on one Sigma. A read that fails is not
kept. The theorem check walks the quotient once over Sigma's walk; a
side that cannot be walked, a failed read among them, goes formula by
formula through frames.eval_formula, so its errors come in Sigma's
order.
A world's signature is an int whose bit i says whether the i-th
member of Sigma holds there: worlds agree on Sigma exactly when their
signatures are equal, and in the greatest order class c lies below
class d exactly when the signature of c is a subset of that of d. The signatures are the transpose of the truth
sets, and the class members that of the projection
(kernels._transpose); the greatest order is
kernels._inclusion_cones of the class signatures; and
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
from functools import cached_property, partial
from typing import Iterable, Sequence

from subminimal.frames import (
    DEFAULT_MAX_WORLDS,
    NFrame,
    NModel,
    Poset,
    SearchTimeout,
    _Unevaluable,
    _orders_between,
    _push_mask,
    _truth_walk,
    _truths,
    countermodel_search,
    eval_formula,
)
from subminimal.kernels import _inclusion_cones, _transpose
from subminimal.syntax import (
    Formula,
    Logic,
    Neg,
    Var,
    _Closed,
    _ordered,
    _require_closed,
    _walk,
    chain_axioms,
    compiled,
    is_instance_of,
    subformulas,
)


class ResourceLimitError(RuntimeError):
    """A completeness claim would need a search beyond the allowed bound."""


def close_sigma(formulas: Iterable[Formula]) -> tuple[Formula, ...]:
    """Subformula closure of the formulas, a syntax._Closed: the kept
    subformulas order of each in turn, each subformula once, so its own
    walk."""
    return _Closed(dict.fromkeys(g for f in formulas for g in subformulas(f)))


@dataclass(frozen=True)
class FiltrationResult:
    """A quotient model with its projection and the Sigma it was built
    from, in its one order (syntax._ordered), even when built by hand."""

    quotient: NModel
    pi: tuple[int, ...]
    sigma: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _ordered(self.sigma))

    def classes(self) -> int:
        return self.quotient.frame.n


@dataclass(eq=False)
class _Read:
    """Sigma read on one model under a projection, as _partition keeps
    it in the model's one slot or _Read.projected makes it for one call.

    truth holds the truth set of each node of Sigma's walk
    (syntax._walk: Sigma itself when it comes from close_sigma, else the
    walk syntax._postorder builds), keyed by node in the order of that
    walk, so its keys are the walk; Sigma's members are among them.
    sig[w] has bit i set when sigma[i] holds at w; pi sends each world
    to its class and members[c] holds the worlds of class c.
    qval values each variable occurring in Sigma, by name order, with
    the projection of its source value under pi.
    The read keeps, as they are first asked for and for as long as it
    is kept itself:

    - bounds, the class-wise bound of each quotient set (bound);
    - frame, the greatest quotient frame (_greatest_read), an immutable
      NFrame that every greatest filtration of this read shares;
    - orders, for each quotient order, keyed by its cones: the verdict
      of conditions (a) and (b) under pi and the bounds (c) reads on
      its upsets (order_checks). They depend on the order alone, so the
      filtrations on one order share them. One entry is kept per order
      checked, far fewer than the filtrations enumerate_filtrations
      holds on those orders.

    neg_args, what (d) reads, is kept likewise. filtration_theorem_check
    walks the quotient over the keys of truth.
    """

    sigma: tuple[Formula, ...]
    valuation: dict[str, int]
    truth: dict[Formula, int]
    sig: list[int]
    pi: tuple[int, ...]
    members: list[int]
    qval: dict[str, int]
    bounds: dict[int, int] = field(default_factory=dict)
    frame: NFrame | None = None
    orders: dict[tuple[int, ...], tuple] = field(default_factory=dict)

    def projected(self, m: NModel, pi: tuple[int, ...], members: list[int]) -> "_Read":
        """This Sigma read under another projection pi onto classes with
        members members, for check_conditions on a filtration that does
        not project by this read's pi: it shares the truth sets, the
        signatures and Sigma, and computes its own valuation,
        bounds, order checks and neg_args. It is never kept."""
        qval = {name: _push_mask(m.valuation[name], pi) for name in self.qval}
        return _Read(self.sigma, self.valuation, self.truth, self.sig, pi, members, qval)

    def bound(self, m: NModel, x: int) -> int:
        """The projection under pi of the source negation of the
        preimage of the class set x."""
        b = self.bounds.get(x)
        if b is None:
            b = self.bounds[x] = _push_mask(m.frame.neg(_preimage(x, self.members)), self.pi)
        return b

    def order_checks(self, m: NModel, qposet: Poset) -> tuple[tuple[str, tuple] | None, tuple]:
        """_order_witness under pi for the quotient order qposet and,
        when it is None, the pairs (X, bound) for the upsets X of that
        order, ascending, that (c) reads; decided once per order. Once
        (a) holds, the preimage of a quotient upset is a source upset,
        so no bound raises."""
        up = qposet.up
        checks = self.orders.get(up)
        if checks is None:
            hit = _order_witness(m.frame.poset.up, self.pi, self.members, self.sig, self.sigma, up)
            bounds = () if hit else tuple((x, self.bound(m, x)) for x in qposet.upsets())
            checks = self.orders[up] = hit, bounds
        return checks

    @cached_property
    def neg_args(self) -> list[tuple[Formula, int, int]]:
        """What (d) reads of each negation ~g in Sigma, in Sigma's order:
        the projection under pi of the truth set of g and the truth set
        of ~g, which is the source negation of the truth set of g."""
        truth, pi = self.truth, self.pi
        return [(f, _push_mask(truth[f.sub], pi), truth[f]) for f in self.sigma if isinstance(f, Neg)]


def _fresh_read(m: NModel, sigma: tuple[Formula, ...]) -> _Read | None:
    """The read kept on the model when it is of an equal Sigma and the
    model's valuation is still the one it was read under."""
    read = vars(m).get("_read")
    if read is None or read.sigma != sigma or read.valuation != m.valuation:
        return None
    return read


def _shared_read(m: NModel, r: FiltrationResult) -> _Read | None:
    """The fresh read of r.sigma when r projects by the read's pi onto
    the read's classes, so that the read's members are r's class
    members and no class is empty; None otherwise."""
    read = _fresh_read(m, r.sigma)
    if read is None or r.pi != read.pi or r.classes() != len(read.members):
        return None
    return read


def _partition(m: NModel, sigma: tuple[Formula, ...], require_closed: bool = False) -> _Read:
    """Sigma read on the model: its truth sets, the signatures and the
    projection of worlds to classes by Sigma-agreement.

    Classes are numbered by their least member so the construction is
    reproducible. The read is kept on the model, in place of the one
    kept before, and given again while Sigma equals the one read and
    the valuation equals the one it was read under (_fresh_read). With
    require_closed, Sigma must be subformula-closed, which is checked
    before Sigma is read, over its walk, and on a kept read over the
    read's.
    """
    read = _fresh_read(m, sigma)
    walk = _walk(sigma) if read is None else read.truth
    if require_closed:
        _require_closed(sigma, walk)
    if read is None:
        truth = _truth_walk(m, sigma, walk)
        sig = _transpose([truth[f] for f in sigma], m.frame.n)
        # worlds run upwards, so classes enter in the order of their least member
        classes: dict[int, int] = {}
        for w, s in enumerate(sig):
            classes[s] = classes.get(s, 0) | 1 << w
        index = {s: c for c, s in enumerate(classes)}
        pi = tuple(index[s] for s in sig)
        names = sorted({f.name for f in truth if f.__class__ is Var})
        qval = {name: _push_mask(m.valuation[name], pi) for name in names}
        read = _Read(sigma, dict(m.valuation), truth, sig, pi, list(classes.values()), qval)
        vars(m)["_read"] = read
    return read


def _preimage(mask: int, members: list[int]) -> int:
    out = 0
    for c, cm in enumerate(members):
        if (mask >> c) & 1:
            out |= cm
    return out


def _order_witness(
    source_up: Sequence[int],
    pi: Sequence[int],
    members: list[int],
    sig: list[int],
    order: Sequence[Formula],
    up: Sequence[int],
) -> tuple[str, tuple] | None:
    """The first witness against conditions (a) and (b) for the
    quotient order with cones up, (a) first, as check_conditions
    returns them; None when both hold. Only the order, the source
    cones, the projection and the signatures are read; the (b) witness
    names the first formula of order, Sigma, that holds at w and fails
    at v."""
    # the worlds whose class lies above each class in the quotient order
    above = [_preimage(u, members) for u in up]
    for w, cone in enumerate(source_up):
        lost = cone & ~above[pi[w]]
        if lost:
            return ("a", (w, (lost & -lost).bit_length() - 1))
    for w in range(len(source_up)):
        rest = above[pi[w]]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            lost = sig[w] & ~sig[v]
            if lost:
                return ("b", (w, v, order[(lost & -lost).bit_length() - 1]))
    return None


def greatest_filtration(m: NModel, sigma: Iterable[Formula]) -> FiltrationResult:
    """The greatest filtration of the model through Sigma.

    Classes are ordered by one-directional Sigma-truth inclusion and
    the negation of a quotient upset is the projection of the source
    negation of its preimage. The valuation keeps exactly the
    variables occurring in Sigma. The quotient frame is built once per
    read and shared; each call returns a new model with its own copy
    of the valuation.
    """
    sigma = _ordered(sigma)
    read = _greatest_read(m, sigma)
    # a copy: a caller may change the quotient's valuation in place
    return FiltrationResult(NModel(read.frame, dict(read.qval)), read.pi, sigma)


def _greatest_read(m: NModel, sigma: tuple[Formula, ...]) -> _Read:
    """The read of Sigma on the model, Sigma checked closed, holding the
    greatest quotient frame."""
    read = _partition(m, sigma, require_closed=True)
    if read.frame is None:
        # a class's signature is that of any member, say its least
        sigs = [read.sig[(c & -c).bit_length() - 1] for c in read.members]
        k = len(sigs)
        qposet = Poset(k, _inclusion_cones(sigs))
        table = [-1] * (1 << k)
        for x in qposet.upsets():
            table[x] = read.bound(m, x)
        read.frame = NFrame(qposet, tuple(table))
    return read


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

    The projection is not checked to be Sigma-agreement: a projection
    finer than it, or one that numbers the classes another way, passes
    when its quotient meets the conditions under it, as in the
    formula-by-formula reference; greatest_among is what refuses such a
    projection.

    The (b) and (d) witnesses name the first formula in Sigma's order
    that fails. Every filtration is checked through a _Read of its own
    projection: (a), (b) and the bounds (c) reads come from its
    order_checks, (d) from its neg_args and the valuation from its
    qval. When r projects by the pi of a fresh read of its Sigma onto
    that read's classes (_shared_read), that is the kept read;
    otherwise the class members are the transpose of pi, "onto" is
    refused before Sigma is read, and the read is the kept one
    projected by pi (_Read.projected).
    """
    qframe = r.quotient.frame
    read = _shared_read(m, r)
    if read is None:
        pi = r.pi
        members = _transpose([1 << c for c in pi], r.classes())
        if 0 in members:
            return ("onto", (members.index(0),))
        read = _partition(m, r.sigma)
        if pi != read.pi:
            read = read.projected(m, pi, members)
    hit, bounds = read.order_checks(m, qframe.poset)
    if hit is not None:
        return hit
    ntable = qframe.ntable
    for x, bound in bounds:
        extra = ntable[x] & ~bound
        if extra:
            return ("c", (x, (extra & -extra).bit_length() - 1))
    members = read.members
    for f, x, source in read.neg_args:
        lost = source & ~_preimage(ntable[x], members)
        if lost:
            return ("d", ((lost & -lost).bit_length() - 1, f))
    qval = read.qval
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
    in Sigma's order. A formula the model or the quotient cannot
    evaluate raises eval_formula's error when its turn comes in that
    order.
    The class members are the shared read's (_shared_read) when there
    is one, and the source truth sets that read's or _partition's. The
    quotient is walked once (frames._truths) over Sigma's walk, the
    keys of those truth sets. Only a side that cannot be walked goes
    formula by formula through eval_formula, so its errors come in
    Sigma's order.
    """
    read = _shared_read(m, r)
    members = _transpose([1 << c for c in r.pi], r.classes()) if read is None else read.members
    try:
        walk = (read or _partition(m, r.sigma)).truth
        source = walk.__getitem__
    except (TypeError, ValueError):
        walk, source = _walk(r.sigma), partial(eval_formula, m)
    q = r.quotient
    try:
        target = _truths(q.frame.poset, q.frame.ntable, q.valuation, walk, {}).__getitem__
    except _Unevaluable:
        target = partial(eval_formula, q)
    for f in r.sigma:
        diff = source(f) ^ _preimage(target(f), members)
        if diff:
            return (f, (diff & -diff).bit_length() - 1)
    return None


def greatest_among(m: NModel, sigma: Iterable[Formula], other: FiltrationResult) -> bool:
    """Whether the greatest filtration dominates the given one: always.

    Domination: the other order lies inside the greatest one and, on
    every greatest upset, the other negation inside the greatest one.
    Proof: the other pi is the Sigma-agreement projection, and onto by
    check_conditions, so it has the greatest one's classes; c <= d in
    the other order means c = pi(w) and d = pi(v) with, by (b), the
    signature of w inside that of v; so c <= d in the greatest order.
    Each greatest upset X is then an upset of the other order, and
    there (c) bounds the other N(X) by _Read.bound, the greatest
    table. A non-filtration, or a candidate
    through another Sigma, as a set, or projection, raises ValueError.
    """
    bad = check_conditions(m, other)
    if bad is not None:
        raise ValueError(f"not a filtration: condition ({bad[0]}) fails at {bad[1]}")
    sigma = _ordered(sigma)
    # check_conditions has read other.sigma; the same set has its classes
    read = _partition(m, other.sigma, require_closed=sigma is other.sigma)
    if sigma is not other.sigma:
        _require_closed(sigma, _walk(sigma))
    if other.pi == read.pi and (sigma == other.sigma or set(sigma) == set(other.sigma)):
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
    sigma = _ordered(sigma)
    read = _greatest_read(m, sigma)
    pi = read.pi
    k = len(read.members)
    floor = [1 << c for c in range(k)]
    for w in range(m.frame.n):
        floor[pi[w]] |= _push_mask(m.frame.poset.up[w], pi)
    forced = {x for _, x, _ in read.neg_args}
    # one copy of the valuation, which the results share
    qval = dict(read.qval)
    out: list[FiltrationResult] = []
    for up in _orders_between(floor, read.frame.poset.up):
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
            quotient = NModel(NFrame(qposet, tuple(table)), qval)
            out.append(FiltrationResult(quotient, pi, sigma))
    return out


# --------------------------------------------------------------------------
# decision wrapper


def _deadline(timeout_ms: int | None) -> float | None:
    """The time.time() value timeout_ms milliseconds from now, or None for
    no timeout; ValueError when the timeout is too large for a float."""
    if timeout_ms is None:
        return None
    try:
        return time.time() + timeout_ms / 1000
    except OverflowError:
        raise ValueError("timeout too large for a float") from None


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
    and the non-refuted status says only how far the search went. A
    timeout too large for a float raises ValueError.
    """
    deadline = _deadline(timeout_ms)
    for axiom in chain_axioms(logic):
        if is_instance_of(f, axiom):
            return Verdict("theorem", logic.name, f)
    fmp = logic.name in ("n", "mpc")
    # value-numbered code holds one instruction of three fields per
    # distinct subformula, and the search compiles f anyway
    target = 1 << len(compiled(f)[1]) // 3 if fmp else max_worlds
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
