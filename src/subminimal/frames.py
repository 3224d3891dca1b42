"""Finite posets, N-frames, models, and countermodel search.

An N-frame is a finite poset together with a function N from upsets to
subsets satisfying the locality law N(X) & Y == N(X & Y) & Y; negation
is evaluated as membership in N of the truth set. Frames, models, and
searches all speak bitmasks: bit w stands for world w.

Enumeration orders are fixed once and for all so that search results
are reproducible: posets by world count then by the bitmask of their
strict pairs, N-tables by their value tuple over ascending upsets,
valuations lexicographically with the alphabetically first variable
most significant. The countermodel search walks one frame per
isomorphism class in that order: the least-mask labeling of each
poset, and on it the least table of each orbit under the poset's
automorphisms.

Posets have one generator. The isomorphism classes are grown once per
world count by attaching a maximal world to each class below and kept
by canonical key, the least pair mask over all relabelings. The labeled
posets are the relabelings of the classes, and the search decodes each
key into the least labeling of its class.

Posets have one search. A pruned search finds the key without trying
all n! relabelings, and the placements it ties at the key, with
swapped twins put back, are the least labelings: the isomorphisms onto
the key's poset (proofs in ``canonical_poset_key``). They give a
class's automorphisms, every isomorphism between two posets
(``poset_isomorphisms``), and frame and top-frame isomorphism
(``_isomorphic``); the algebra isomorphisms are read off the dual posets
(algebra.nalgebra_isomorphisms). The 938 keys the classes up to 6
worlds need take about 0.03 s on a 2-vCPU host, against about 1.8 s
for the min over every relabeling.

One builder, ``_class_tables``, gives one poset class's tables in a
logic's frame class: for N the lawful tables least in their
automorphism orbit, for the other logics N's tables in their class. Up
to DEFAULT_MAX_WORLDS worlds they are built once per process, in one
memo that the stream and every countermodel search read. The search
walks only the rooted classes, those with a least world: after it ran
in all four logics the memo holds N's 1,702 tables of those classes,
with the other logics' members, in about 0.35 MiB, and the stream adds
N's other 2,799 (about 0.8 MiB in all). The search hands each class's
member tables to the kernel in one call, at every size, and builds a
frame only for the witness. The column masks that call builds are kept
beside a memoized class's tables (about 0.5 MiB more for a formula
with negation). Larger classes are built again on every call, because
the rooted 5-world ones alone hold 62,058 tables (about 18 MiB), and
their column masks live one block at a time; the search builds no
class past SEARCH_MAX_WORLDS worlds.

Posets of at most DEFAULT_MAX_WORLDS worlds are kept as well, one
object per (n, cones), for the life of the process: all 243 labeled
posets up to 4 worlds fit in that memo (1 + 1 + 3 + 19 + 219). A kept
poset holds its down sets (the transpose of its cones,
kernels.pure._transpose) and its upsets, so every frame, model and top
frame built again on it reads them instead of recomputing them, and
its cones hold the set-up the positive-morphism kernel derives from
them (``_Cones``).

One enumerator, _orders_between, lists the transitive cone lists
between a floor and a ceiling in a fixed binary count: the preorders
of modal.enumerate_preorders and the orders of
filtration.enumerate_filtrations.

No closure on a per-call path names itself. A closure that calls itself
is a reference cycle, which would leave the call's memo, its nodes and
the formula tree to the cyclic garbage collector; the truth walk is a
loop over syntax.subformulas (_truths), and the recursive searches are
module-level functions that take their state as arguments, so every
call is freed by reference counting.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from subminimal import kernels
from subminimal.kernels.pure import _kept, _trace_table, _transpose
from subminimal.syntax import (
    And,
    Formula,
    Imp,
    Logic,
    LOGICS,
    Neg,
    Or,
    Top,
    Var,
    _PROP,
    _first,
    _ordered,
    _postorder,
    _walk,
    compile_prop,
    compiled,
    subformulas,
)


class SearchTimeout(RuntimeError):
    """A bounded search ran out of its wall-clock budget."""


def _pair_bit(i: int, j: int, n: int) -> int:
    """Bit position of the strict pair (i, j) in a poset's pair mask."""
    return i * (n - 1) + (j if j < i else j - 1)


def _close(up: Sequence[int]) -> list[int]:
    """Transitive closure of cone masks: each cone absorbs the cones of
    its members until nothing changes."""
    up = list(up)
    changed = True
    while changed:
        changed = False
        for w in range(len(up)):
            m = acc = up[w]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= up[v]
            if acc != up[w]:
                up[w] = acc
                changed = True
    return up


def _cones_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Cone masks of the reflexive-transitive closure of the pairs
    i <= j on worlds 0..n-1; a pair outside them raises ValueError."""
    up = [1 << w for w in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i}, {j}) out of range")
        up[i] |= 1 << j
    return _close(up)


def _transitive(up: Sequence[int]) -> bool:
    """Whether every cone holds the cones of its members."""
    for cone in up:
        m = cone
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if up[v] & ~cone:
                return False
    return True


def _orders_between(floor: Sequence[int], ceil: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The one order enumerator: every transitive cone list that holds
    floor and lies inside ceil, cone by cone. It counts in binary over
    the pairs (c, d) that ceil adds to floor, c major and d minor, with
    the first pair least significant; modal.enumerate_preorders and
    filtration.enumerate_filtrations list their orders so."""
    gap = [(c, 1 << d) for c, cone in enumerate(ceil) for d in range(len(ceil)) if (cone & ~floor[c]) >> d & 1]
    for pick in range(1 << len(gap)):
        up = list(floor)
        for i, (c, bit) in enumerate(gap):
            if pick >> i & 1:
                up[c] |= bit
        if _transitive(up):
            yield tuple(up)


def _check_preorder(n: int, up: Sequence[int]) -> None:
    """Raise ValueError unless ``up`` is the cone list of a preorder on
    worlds 0..n-1: one cone per world, reflexive, in range, transitive."""
    if len(up) != n:
        raise ValueError("one cone per world required")
    full = (1 << n) - 1
    for w, cone in enumerate(up):
        if cone & ~full or not (cone >> w) & 1:
            raise ValueError(f"cone of world {w} is not reflexive in range")
    if not _transitive(up):
        raise ValueError("transitivity fails")


def _antisymmetric(up: Sequence[int]) -> bool:
    """Whether a preorder's cones are a partial order's: two worlds of a
    preorder see each other exactly when their cones are equal."""
    return len(set(up)) == len(up)


class _Cones(tuple):
    """A poset's cone masks, or an NS4 frame's. Its instance dict keeps
    what is derived from the cones alone, such as the formula kernels'
    cone lists, the set-up of kernels.search_positive_morphism and the
    upset algebras' reducts (algebra._set_algebra), for the life of the
    poset (see kernels.pure._kept)."""


# the posets of at most DEFAULT_MAX_WORLDS worlds, one per (n, cones)
_POSETS: dict[tuple[int, tuple[int, ...]], "Poset"] = {}


class Poset:
    """A finite partial order on worlds 0..n-1.

    ``up[w]`` and ``down[w]`` are the principal upset and downset of w
    as masks, reflexive by convention. Equality and hashing go through
    (n, up), so posets can key caches and sets.

    A poset of at most DEFAULT_MAX_WORLDS worlds is built once per
    (n, tuple(up)) and kept for the life of the process, with its down
    sets, its upsets and its kernels' set-up: there are 243 of them up
    to 4 worlds. An input that fails the checks is never kept, so it
    raises on every call. Pickling and copying go through (n, up), so a
    small poset comes back as the kept object.
    """

    __slots__ = ("n", "up", "down", "_upsets")

    def __new__(cls, n: int, up: Sequence[int]) -> "Poset":
        try:
            key = (n, tuple(up))
            kept = _POSETS.get(key)
        except TypeError:
            # unhashable cones: let the checks below name the fault
            key = kept = None
        if kept is not None:
            return kept
        if n < 0:
            raise ValueError("world count must be nonnegative")
        _check_preorder(n, up)
        if not _antisymmetric(up):
            raise ValueError("antisymmetry fails")
        self = super().__new__(cls)
        self.n = n
        self.up = _Cones(up)
        self.down = tuple(_transpose(up, n))
        self._upsets: tuple[int, ...] | None = None
        if key is not None and n <= DEFAULT_MAX_WORLDS:
            _POSETS[key] = self
        return self

    def __reduce__(self) -> tuple:
        return Poset, (self.n, tuple(self.up))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build a poset from generating pairs i <= j.

        The reflexive-transitive closure is taken automatically; a
        cycle through distinct worlds raises ValueError.
        """
        return cls(n, _cones_from_pairs(n, pairs))

    def le(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def upsets(self) -> tuple[int, ...]:
        """All upward-closed subsets as masks, ascending."""
        if self._upsets is None:
            self._upsets = tuple(enumerate_upsets(self))
        return self._upsets

    def pair_mask(self) -> int:
        """Strict pairs packed into the canonical ordering mask."""
        return sum(1 << _pair_bit(i, j, self.n) for i, j in self.strict_pairs())

    def top(self) -> int | None:
        """The greatest world, if the poset has one."""
        full = (1 << self.n) - 1
        for w in range(self.n):
            if self.down[w] == full:
                return w
        return None

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in itertools.permutations(range(self.n), 2) if self.le(i, j)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def __repr__(self) -> str:
        return f"Poset({self.n}, {list(self.up)})"


def enumerate_upsets(p: Poset) -> list[int]:
    """Every upward-closed subset of the poset, each once, ascending.

    The empty set and the full set are always included. One pass over
    the 2**n masks: the upward closure of x is that of x without its
    lowest world w, joined with w's cone, and x is an upset exactly when
    it is its own closure. Meant for desk scale: time and the closure
    list are linear in 2**n, as a frame's negation table is.
    """
    cones = {1 << w: cone for w, cone in enumerate(p.up)}
    closure = [0] * (1 << p.n)
    out = [0]
    for x in range(1, 1 << p.n):
        c = closure[x] = closure[x & (x - 1)] | cones[x & -x]
        if c == x:
            out.append(x)
    return out


def _check_table(n: int, domain: Collection[int], ntable: Sequence[int], kind: str) -> None:
    """Raise ValueError unless ``ntable`` is a negation table on n
    worlds over the domain: one entry per subset, a subset of the worlds
    at each domain set and -1 everywhere else. Every frame kind keeps
    its table this way; ``kind`` names the domain sets in the message,
    which names the offending set."""
    size = 1 << n
    if len(ntable) != size:
        raise ValueError(
            f"negation table must have one entry per subset, {size}, not {len(ntable)}"
        )
    for x in domain:
        value = ntable[x]
        if value == -1:
            raise ValueError(f"negation table misses {kind} {x}; it must cover every {kind}")
        if not 0 <= value < size:
            raise ValueError(f"negation value {value} at {kind} {x} out of range")
    # the domain entries are subsets now, so the rest are all -1 exactly
    # when -1 fills as many entries as there are sets off the domain
    if ntable.count(-1) != size - len(domain):
        inside = set(domain)
        x = next(x for x, v in enumerate(ntable) if v != -1 and x not in inside)
        raise ValueError(f"table entry at non-{kind} {x}")


@dataclass(frozen=True)
class NFrame:
    """A poset with a negation table over its upsets.

    ``ntable`` is a flat tuple of length 2**n holding -1 at non-upset
    indices (see _check_table). Values are usually upsets, but
    construction does not force that: quotients of filtrations may carry
    non-upset values, and check_nframe is the validator that rejects
    them.
    """

    poset: Poset
    ntable: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_table(self.poset.n, self.poset.upsets(), self.ntable, "upset")

    @property
    def n(self) -> int:
        return self.poset.n

    def neg(self, mask: int) -> int:
        value = self.ntable[mask]
        if value < 0:
            raise ValueError(f"negation undefined at {mask}")
        return value


def _spread(n: int, mapping: Mapping[int, int]) -> tuple[int, ...]:
    """A set-keyed dict of table values over all 2**n subsets, -1 at
    absent keys."""
    table = [-1] * (1 << n)
    for x, value in mapping.items():
        if not 0 <= x < len(table):
            raise ValueError(f"table key {x} out of range")
        if value < 0:
            raise ValueError(f"negation value {value} at {x} out of range")
        table[x] = value
    return tuple(table)


def ntable_from_upset_map(p: Poset, mapping: Mapping[int, int]) -> tuple[int, ...]:
    """Spread an upset-keyed dict into the flat table layout; its keys
    must be exactly the upsets."""
    table = _spread(p.n, mapping)
    _check_table(p.n, p.upsets(), table, "upset")
    return table


def _locality_witness(
    n: int, domain: Sequence[int], ntable: Sequence[int]
) -> tuple[int, int] | None:
    """First pair (X, Y) of domain sets, in domain order, with
    N(X) & Y != N(X & Y) & Y; the domain must be closed under meets."""
    packed = kernels.locality_violation(n, list(domain), list(ntable))
    if packed < 0:
        return None
    return domain[packed // len(domain)], domain[packed % len(domain)]


def check_nframe(p: Poset, ntable: Sequence[int]) -> tuple[int, int] | None:
    """Validate the locality law over all upset pairs.

    Returns None when the table is a lawful negation, else the first
    witnessing pair (X, Y) with N(X) & Y != N(X & Y) & Y. A table value
    that is not an upset raises ValueError; locality is only meaningful
    for persistent values.
    """
    upsets = p.upsets()
    upset_set = set(upsets)
    for u in upsets:
        value = ntable[u]
        if value < 0:
            raise ValueError(f"negation table misses upset {u}")
        if value not in upset_set:
            raise ValueError(f"negation value at {u} is not an upset")
    return _locality_witness(p.n, upsets, ntable)


@dataclass(frozen=True, eq=False)
class NModel:
    """An N-frame with a valuation of variables by upsets.

    ``_read``, set on first use, keeps what the filtration functions
    last read of a Sigma on this model (filtration._partition), so the
    calls on one model with one Sigma read it once; it is no field, so
    it stays out of ==, hash and repr, and out of pickles and copies,
    since it keys its truth sets by the nodes of this process.
    """

    frame: NFrame
    valuation: Mapping[str, int]

    def __post_init__(self) -> None:
        upsets = self.frame.poset.upsets()
        for name, mask in self.valuation.items():
            if mask not in upsets:
                raise ValueError(f"valuation of {name} is not an upset")

    def __reduce__(self) -> tuple:
        return NModel, (self.frame, self.valuation)


class _Unevaluable(Exception):
    """A node the truth walk cannot evaluate; _truth_error names why."""


def truth_sets(m: NModel, formulas: Collection[Formula]) -> dict[Formula, int]:
    """Truth sets, as masks, of the formulas and of all their
    subformulas, keyed by formula in the order of their walk
    (syntax._walk), children first, the formulas in their one order
    (syntax._ordered): a set's is fixed, whatever order it iterates in.

    One bottom-up walk evaluates each subformula once, with the frame's
    tables read directly, and its memo is the dict returned. When some
    formula cannot be evaluated, the error is decided over all the
    formulas, in this order: the least variable the model does not
    value; else the compile_prop error of the first formula, in their
    order, holding a modal node; else an undefined negation entry. For
    one formula these are the errors of compiling it and running the
    kernel.
    """
    formulas = _ordered(formulas)
    return _truth_walk(m, formulas, _walk(formulas))


def _truth_walk(m: NModel, formulas: Collection[Formula], order: Sequence[Formula]) -> dict[Formula, int]:
    """truth_sets of the formulas over order, their walk (syntax._walk),
    with truth_sets' errors."""
    try:
        return _truths(m.frame.poset, m.frame.ntable, m.valuation, order, {})
    except _Unevaluable:
        raise _truth_error(m, formulas, order) from None


def formula_evaluator(m: NModel) -> Callable[[Formula], int]:
    """eval_formula on one model, with a memory: every subformula it
    evaluates is kept, so a node shared by several formulas is
    evaluated once over all the calls."""
    truth: dict[Formula, int] = {}
    p, ntable, valuation = m.frame.poset, m.frame.ntable, m.valuation

    def evaluate(f: Formula) -> int:
        if f not in truth:
            order = _postorder((f,), truth) if truth else subformulas(f)
            try:
                _truths(p, ntable, valuation, order, truth)
            except _Unevaluable:
                raise _truth_error(m, (f,), subformulas(f)) from None
        return truth[f]

    return evaluate


def eval_formula(m: NModel, f: Formula) -> int:
    """Truth set of a propositional formula in the model, as a mask.

    The truth_sets walk read at the root, with its errors.
    """
    return formula_evaluator(m)(f)


def _truths(
    p: Poset, ntable: Sequence[int], valuation: Mapping[str, int], order: Iterable[Formula], truth: dict
) -> dict[Formula, int]:
    """truth, with the truth set on the poset of each node of order,
    children first (see syntax.subformulas), keyed by node: negation
    read off the table and variables off the valuation given (a
    model's own, or the lift's, see modal.translation_preservation).
    Raises _Unevaluable at the first node those cannot evaluate. A
    subformula is one node however often it occurs (syntax), so it is
    evaluated once."""
    n, up, full = p.n, p.up, (1 << p.n) - 1
    for f in order:
        kind = f.__class__
        if kind is Var:
            v = valuation.get(f.name)
        elif kind is Imp:
            # _imp_mask inlined: calling it made truth_sets about 1.15x slower
            gap = truth[f.left] & ~truth[f.right]
            v = full
            for w in range(n if gap else 0):
                if up[w] & gap:
                    v ^= 1 << w
        elif kind is Neg:
            v = ntable[truth[f.sub]]
            v = None if v < 0 else v
        elif kind is And:
            v = truth[f.left] & truth[f.right]
        elif kind is Or:
            v = truth[f.left] | truth[f.right]
        else:
            v = full if kind is Top else None
        if v is None:
            raise _Unevaluable
        truth[f] = v
    return truth


def _truth_error(m: NModel, formulas: Collection[Formula], order: Sequence[Formula]) -> Exception:
    """The error of a truth walk over order, the formulas' walk, that
    met an unevaluable node, read off that walk: only the first formula
    holding a modal node, if any, is compiled, over the valued names,
    which then hold all of its own."""
    missing = {f.name for f in order if f.__class__ is Var} - m.valuation.keys()
    if missing:
        return ValueError(f"model does not value variable {min(missing)}")
    first = _first(order, lambda g: g.__class__ not in _PROP)
    for f in formulas:
        if first[f]:
            try:
                compile_prop(f, tuple(m.valuation))
            except (TypeError, ValueError) as exc:
                return exc
    return ValueError("evaluation hit an undefined negation entry")


def _valuation_from_index(idx: int, names: Sequence[str], upsets: Sequence[int]) -> dict[str, int]:
    # digits run most-significant-first over the sorted variable names,
    # mirroring the kernel's enumeration
    out: dict[str, int] = {}
    base = len(upsets)
    for name in reversed(names):
        out[name] = upsets[idx % base]
        idx //= base
    return out


def _refutation_at(
    fr: NFrame, names: Sequence[str], f: Formula, idx: int
) -> tuple[dict[str, int], int]:
    """The valuation of index idx on the frame, which the kernel found
    refuting, and its least failing world, read off the truth walk."""
    valuation = _valuation_from_index(idx, names, fr.poset.upsets())
    # the search met no undefined entry up to idx, so neither does this
    truth = _truths(fr.poset, fr.ntable, valuation, subformulas(f), {})[f]
    fail = ((1 << fr.n) - 1) & ~truth
    return valuation, (fail & -fail).bit_length() - 1


def refuting_valuation(fr: NFrame, f: Formula) -> tuple[dict[str, int], int] | None:
    """Least valuation refuting f on the frame, with the least failing
    world, or None when the frame validates f."""
    names, code = compiled(f)
    idx = kernels.find_refuting_valuation_prop(
        code, len(names), fr.n, fr.poset.up, (fr.ntable,), fr.poset.upsets()
    )
    return None if idx < 0 else _refutation_at(fr, names, f, idx)


def _antitone(domain: Sequence[int], ntable: Sequence[int]) -> bool:
    """Whether the table reverses inclusion on the domain sets: N(y) is
    inside N(x) whenever x is inside y."""
    for y in domain:
        ny = ntable[y]
        for x in domain:
            if x & ~y == 0 and ny & ~ntable[x]:
                return False
    return True


def _imp_mask(up: Sequence[int], u: int, v: int) -> int:
    """The Heyting arrow u -> v on world masks, on the poset with cones
    up: the worlds whose cone meets u only inside v."""
    out = 0
    for w, cone in enumerate(up):
        if cone & u & ~v == 0:
            out |= 1 << w
    return out


def frame_class(fr: NFrame, logic: Logic) -> bool:
    """Membership of a lawful frame in a logic's frame class, read off
    its table by the class condition, with W the set of all worlds and
    X, Y ranging over the upsets:

    - N: every frame;
    - NeF: X & N(X) is inside N(Y) for all X and Y, that is, the union
      of the X & N(X) lies inside the meet of the N(Y);
    - CoPC: N is antitone, N(Y) inside N(X) whenever X is inside Y;
    - MPC: N(X) = X -> N(W) for every X.

    Each condition holds exactly when the frame validates the logic's
    axiom. A formula A -> B holds at every world iff the truth set of
    A lies inside that of B, since every cone holds its world. On a
    lawful frame the values of N are upsets, and locality at the cone
    R(v) of a world v reads: v is in N(X) iff v is in N(X & R(v)).

    - NeF, (p & ~p) -> ~q: valid iff X & N(X) lies inside N(Y) for
      every pair of valuations p = X, q = Y.
    - CoPC, (p -> q) -> (~q -> ~p). If X is inside Y, then X -> Y is W,
      and the axiom at p = X, q = Y puts N(Y) inside N(X). Conversely,
      let N be antitone, v in X -> Y and u in R(v) & N(Y). Then R(u)
      lies in R(v), so X & R(u) lies inside Y & R(u), and locality
      twice with antitony gives u in N(Y & R(u)), inside
      N(X & R(u)), so u is in N(X). So v is in N(Y) -> N(X).
    - MPC, (p -> ~p) -> ~p. First, N(X) lies inside X -> N(W) on every
      lawful frame: for v in X the cone R(v) lies in X, so
      X & R(v) = W & R(v) = R(v), and locality gives v in N(X) iff v
      in N(W); hence X & N(X) = X & N(W). If w is in N(X) and v in
      R(w) & X, then v is in N(X), an upset, so v is in N(W); hence w
      is in X -> N(W). Next,
      X -> A is X -> (X & A) for every A, so
      X -> N(X) = X -> (X & N(W)) = X -> N(W). The axiom at p = X says
      X -> N(X) lies inside N(X), that is, X -> N(W) lies inside N(X),
      which with the first inclusion gives N(X) = X -> N(W). Conversely,
      if N(X) = X -> N(W), then X -> N(X) = X -> (X -> N(W)) =
      X -> N(W) = N(X), so every valuation validates the axiom.

    On a frame that breaks the locality law or carries a value off the
    upsets the MPC condition may disagree with the axiom; check_nframe
    decides lawfulness.
    """
    return _table_in_class(fr.poset, fr.ntable, logic)


def _table_in_class(p: Poset, ntable: Sequence[int], logic: Logic) -> bool:
    """frame_class of the frame (p, ntable), with no frame built."""
    upsets = p.upsets()
    if logic.name == "n":
        return True
    if logic.name == "nef":
        cores, meet = 0, (1 << p.n) - 1
        for x in upsets:
            cores |= x & ntable[x]
            meet &= ntable[x]
        return cores & ~meet == 0
    if logic.name == "copc":
        return _antitone(upsets, ntable)
    if logic.name == "mpc":
        nw = ntable[(1 << p.n) - 1]
        return all(ntable[x] == _imp_mask(p.up, x, nw) for x in upsets)
    raise ValueError(f"unknown logic: {logic.name}")


# --------------------------------------------------------------------------
# enumeration


def enumerate_posets(n: int) -> Iterator[Poset]:
    """All labeled posets on n worlds, ascending by pair mask.

    They are the relabelings of the classes of
    ``enumerate_posets_unlabeled``, n! per class: 4,231 posets at n = 5
    and 130,023 at n = 6.
    """
    masks = {m for _, rep in _poset_classes(n) for m in _relabeled_masks(rep)}
    for mask in sorted(masks):
        yield _poset_from_mask(n, mask)


def _trace_tables(
    up: Sequence[int],
    domain: Sequence[int],
    choose: Callable[[list[int]], Iterable[frozenset[int]]],
) -> list[tuple[int, ...]]:
    """Negation tables on the domain sets of a preorder, given by its
    cones, built from per-world trace families.

    Worlds with equal cones see each other and form a cluster; on a
    poset every cluster is one world. Each world holds a family of
    domain sets inside its cone, and the sets allowed at w are those
    whose cut to the cone of every world strictly above w (in w's cone,
    outside its cluster) lies in that world's family. Worlds go in
    cone-size order, so the worlds strictly above have their families
    when w comes; the first world of a cluster passes its allowed sets
    to ``choose``, which yields the families to try, and the rest of
    the cluster takes the same family. N(X) is the set of worlds whose
    family holds X's cut to their cone: each finished choice is one
    kernels.pure._trace_table call, the loop the lift and the dual
    frame build their tables with too.

    With every subset as the domain, the tables are exactly the lawful
    NS4 tables of the preorder: every N(X) is cone-closed, and w is in
    N(X) iff w is in N(X & R(w)).

    - Trace tables are local, because X and X & R(w) have the same cut
      to R(w). They are cone-closed: let w be in N(X) and v in R(w). If
      v is in w's cluster, it has w's cone and family. Otherwise
      Z = X & R(w) was allowed at w, so Z & R(v) is in v's family; and
      Z & R(v) = X & R(v) since R(v) is inside R(w) by transitivity.
    - A lawful table N is a trace table. Let T(w) be the sets Z inside
      R(w) with w in N(Z); by locality these are the cone cuts of the
      inputs whose value holds w. Worlds of a cluster see each other,
      so cone-closure puts one of them in N(Z) iff it puts all of them:
      the cluster's families are equal. Each Z in T(w) is allowed at w:
      for v strictly above w, v is in N(Z) by cone-closure, so
      Z & R(v) is in T(v) by locality. Choosing T(w) at each world
      gives back N, since w is in N(X) iff X & R(w) is in T(w).

    T(w) is read back off the table, so distinct choices give distinct
    tables, and a ``choose`` that yields every subfamily once yields
    each lawful table once.
    """
    n = len(up)
    by_cone: dict[int, list[int]] = {}
    for w in sorted(range(n), key=lambda w: up[w].bit_count()):
        by_cone.setdefault(up[w], []).append(w)
    clusters = [(cone, cone & ~sum(1 << w for w in ws), ws) for cone, ws in by_cone.items()]
    traces: list[frozenset[int]] = [frozenset()] * n
    results: list[tuple[int, ...]] = []
    _choose_traces(0, clusters, traces, up, domain, choose, results)
    return results


def _choose_traces(
    k: int,
    clusters: list[tuple[int, int, list[int]]],
    traces: list[frozenset[int]],
    up: Sequence[int],
    domain: Sequence[int],
    choose: Callable[[list[int]], Iterable[frozenset[int]]],
    results: list[tuple[int, ...]],
) -> None:
    """_trace_tables from cluster k on, the families of the clusters
    before it fixed in traces: appends each finished table to results."""
    n = len(up)
    if k == len(clusters):
        cuts = [(up[w], 1 << w, traces[w]) for w in range(n)]
        results.append(tuple(_trace_table(n, cuts, domain)))
        return
    cone, above, cluster = clusters[k]
    allowed = []
    for z in domain:
        if z & ~cone:
            continue
        m = above
        good = True
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if (z & up[v]) not in traces[v]:
                good = False
                break
        if good:
            allowed.append(z)
    for family in choose(allowed):
        for w in cluster:
            traces[w] = family
        _choose_traces(k + 1, clusters, traces, up, domain, choose, results)


def _subfamilies(allowed: list[int]) -> Iterator[frozenset[int]]:
    for pick in range(1 << len(allowed)):
        yield frozenset(allowed[i] for i in range(len(allowed)) if (pick >> i) & 1)


def enumerate_ntables(p: Poset) -> list[tuple[int, ...]]:
    """All lawful negation tables on the poset, ascending by value tuple.

    Tables are generated through per-world trace families: world w may
    hold any family of upsets inside its cone that projects, along the
    order, into the families already fixed above it.
    """
    return sorted(_trace_tables(p.up, p.upsets(), _subfamilies))


def random_poset(rng, n: int) -> Poset:
    """A labeled poset drawn by thinning a random linear order."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                pairs.append((perm[a], perm[b]))
    return Poset.from_pairs(n, pairs)


def _coin_flips(rng) -> Callable[[list[int]], list[frozenset[int]]]:
    """A family chooser for _trace_tables that keeps each allowed set on
    a fair coin, flipped in the order the sets are allowed."""

    def choose(allowed: list[int]) -> list[frozenset[int]]:
        return [frozenset(z for z in allowed if rng.random() < 0.5)]

    return choose


def random_ntable(rng, p: Poset) -> tuple[int, ...]:
    """A lawful negation table drawn uniformly over trace families."""
    return _trace_tables(p.up, p.upsets(), _coin_flips(rng))[0]


def random_nframe(rng, n: int) -> NFrame:
    p = random_poset(rng, n)
    return NFrame(p, random_ntable(rng, p))


# --------------------------------------------------------------------------
# isomorphism


def _push_mask(mask: int, f: Sequence[int] | Mapping[int, int]) -> int:
    """Image of a world set under the world map f, a sequence or, for
    a partial map, a mapping defined on the set."""
    out = 0
    m = mask
    while m:
        w = (m & -m).bit_length() - 1
        m &= m - 1
        out |= 1 << f[w]
    return out


def _relabeled_masks(p: Poset) -> Iterator[int]:
    """The pair mask of every relabeling of p, one per permutation."""
    pairs = p.strict_pairs()
    for perm in itertools.permutations(range(p.n)):
        yield sum(1 << _pair_bit(perm[i], perm[j], p.n) for i, j in pairs)


def _poset_from_mask(n: int, mask: int) -> Poset:
    """The labeled poset whose strict pairs are the bits of a pair mask."""
    pairs = itertools.permutations(range(n), 2)
    return Poset.from_pairs(n, [(i, j) for i, j in pairs if (mask >> _pair_bit(i, j, n)) & 1])


def canonical_poset_key(p: Poset) -> int:
    """Least pair mask over all relabelings; equal keys mean isomorphic.
    The key is itself the pair mask of the class's least labeling.

    A labeling puts world w on label lab[w], a permutation of 0..n-1,
    and its mask holds bit _pair_bit(lab[u], lab[v], n) for each strict
    pair u < v. A branch-and-bound search finds the least mask without
    walking all n! labelings. It places worlds on labels n-1, n-2, ...,
    0, because label i owns the row of bits i*(n-1) .. i*(n-1)+n-2 of
    the mask, so higher labels own the more significant rows; in row i
    the columns of the labels below i are the i lowest bits. Candidates
    for each label go in ascending (up-set size, down-set size), so
    that a small mask, and with it a tight bound, comes early. Once
    labels n-1 .. L are placed, the bits between placed labels are
    fixed; b is their sum. Two prunes keep every least mask:

    - Row bound. Let w go on label L, and let k of the free worlds, the
      ones left for labels L-1 .. 0, lie strictly above w. Each of them
      goes on some label j < L and sets bit (L, j), so a completion
      sets k distinct bits among the L lowest of row L, whose sum is at
      least that of the k lowest, ((1 << k) - 1) << L*(n-1). Those bits
      are not in b, whose row-L bits sit in the columns above L, and
      every other bit a completion adds only raises its mask. So
      b | ((1 << k) - 1) << L*(n-1) is at most every completion's mask.
      A branch whose bound exceeds the least full mask found so far,
      best, holds no least mask and is cut; best is never below the
      least mask, since it is the mask of a labeling, or at first a
      value above every mask. A branch whose bound equals best is
      entered, so ties are reached.
    - Twins. Two worlds with equal strict up-sets and equal strict
      down-sets are twins. They are incomparable (were u < v, v would
      be in u's strict up-set and not in v's), and every other world
      relates to both alike, so swapping them is an automorphism and
      keeps every mask. At each label one world per group of twins is
      tried, the first free one in candidate order: the members of a
      group take descending labels in that order, and the placement is
      twin-ordered. Every labeling is a twin-ordered one with the labels
      of each group permuted among its members, with the same mask.

    So the result is ``min(_relabeled_masks(p))``. On an n-chain the row
    bound cuts every candidate but the highest free world, so the
    search makes n + 1 entries.

    The tied placements, with swapped twins put back, are exactly the
    least labelings (``_least_labelings``). The search keeps each leaf
    it reaches whose mask is at most best, and drops the kept ones when
    best falls.

    - Every twin-ordered least labeling is reached: the unpruned search
      reaches every twin-ordered labeling once, as one leaf, and the row
      bound cuts only branches whose bound exceeds best, which is at
      least the key.
    - Only least labelings are kept: once best is the key it never falls
      again, and each leaf kept before that had a larger mask, and was
      dropped when the first leaf of mask key was reached.
    - Every least labeling is a twin-ordered one with each twin group's
      labels permuted among its members, each in one way, and each such
      permutation keeps the mask.

    A labeling is an isomorphism of p onto the labeled poset its mask
    spells, so the least labelings are the isomorphisms of p onto its
    class's least labeling, _poset_from_mask(n, key); on that poset they
    are its automorphisms, the identity least among them.

    The 938 keys the classes up to 6 worlds need take about 0.03 s on a
    2-vCPU host. The search suits the posets of worlds the package
    builds. Where a poset has many automorphisms that no twin swap
    gives, every tie is followed to its leaf: the 16-element Boolean
    lattice, 24 automorphisms and no twins, takes about 0.45 s.
    """
    return _placements(p.up)[0]


def _placements(up: Sequence[int]) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """canonical_poset_key's search on a poset's cones: the key, the
    twin-ordered least labelings as label tuples in the order the
    search reached them, and for each world the first world of its
    twin group."""
    n = len(up)
    down = _transpose(up, n)
    above = [up[w] & ~(1 << w) for w in range(n)]
    below = [down[w] & ~(1 << w) for w in range(n)]
    first_twin: dict[tuple[int, int], int] = {}
    twin = [first_twin.setdefault((above[w], below[w]), w) for w in range(n)]
    order = sorted(range(n), key=lambda w: (up[w].bit_count(), down[w].bit_count()))
    ties: list[tuple[int, ...]] = []
    # best starts above every pair mask, and nothing is placed
    key = _least_placement(n - 1, 0, (1 << n) - 1, 1 << n * (n - 1), n, order, twin, above, below, [], ties)
    return key, ties, twin


def _least_placement(
    label: int,
    bound: int,
    free: int,
    best: int,
    n: int,
    order: list[int],
    twin: list[int],
    above: list[int],
    below: list[int],
    placed: list[tuple[int, int]],
    ties: list[tuple[int, ...]],
) -> int:
    """canonical_poset_key's search below one branch: the least full
    mask at most best among the placements of the free worlds on labels
    label .. 0, placed holding the (world, label) pairs so far and bound
    the bits they fix, else best. Each placement reaching a mask at most
    best joins ties, which is emptied first when the mask is below best."""
    if label < 0:
        if bound < best:
            ties.clear()
        ties.append(tuple(m for _, m in sorted(placed)))
        return bound
    row = label * (n - 1)
    tried = 0
    for w in order:
        if not (free >> w) & 1 or (tried >> twin[w]) & 1:
            continue
        tried |= 1 << twin[w]
        rest = free & ~(1 << w)
        b = bound
        for x, m in placed:
            if (above[w] >> x) & 1:
                b |= 1 << _pair_bit(label, m, n)
            elif (below[w] >> x) & 1:
                b |= 1 << _pair_bit(m, label, n)
        if b | ((1 << (above[w] & rest).bit_count()) - 1) << row <= best:
            placed.append((w, label))
            best = _least_placement(label - 1, b, rest, best, n, order, twin, above, below, placed, ties)
            placed.pop()
    return best


def _least_labelings(p: Poset) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The canonical key and every least labeling of p, ascending, kept
    with p's cones (kernels.pure._kept), so the isomorphism tests on a
    poset search it once."""
    return _kept(p.up, _labelings)


def _labelings(up: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """_least_labelings of the poset with cones up: the tied placements
    of the key's search with the labels of each twin group permuted
    among its members in every way (proof in ``canonical_poset_key``)."""
    key, ties, twin = _placements(up)
    groups: dict[int, list[int]] = {}
    for w, first in enumerate(twin):
        groups.setdefault(first, []).append(w)
    swaps = [g for g in groups.values() if len(g) > 1]
    out = []
    for lab in ties:
        for labels in itertools.product(*(itertools.permutations([lab[w] for w in g]) for g in swaps)):
            moved = list(lab)
            for g, ls in zip(swaps, labels):
                for w, label in zip(g, ls):
                    moved[w] = label
            out.append(tuple(moved))
    return key, tuple(sorted(out))


def poset_isomorphisms(p: Poset, q: Poset) -> Iterator[tuple[int, ...]]:
    """All order isomorphisms p -> q as world tuples, ascending.

    They are compositions of least labelings (``canonical_poset_key``),
    each an isomorphism onto P, the least labeling of the class. Fix one
    least labeling mu of q. As lam runs over the least labelings of p,
    f = mu^-1 . lam runs over the isomorphisms p -> q, each once: f is
    a composition of isomorphisms p -> P -> q; an isomorphism f makes
    mu . f an isomorphism p -> P, a least labeling lam with
    f = mu^-1 . lam; and distinct lam give distinct f. Posets of
    different keys have none.

    The cost is one key search per poset, kept with its cones. Like it
    this suits the posets of worlds the package builds: on the
    16-element Boolean lattice, which no package path builds as a
    poset, the search takes about 0.45 s per poset.
    """
    key, labelings = _least_labelings(p)
    q_key, q_labelings = _least_labelings(q)
    if (p.n, key) != (q.n, q_key):
        return
    back = sorted(range(q.n), key=q_labelings[0].__getitem__)  # mu^-1
    yield from sorted(tuple(back[label] for label in lab) for lab in labelings)


def _relabelings(
    domain: Sequence[int], masks: Iterable[int], labelings: Iterable[Sequence[int]]
) -> Iterator[tuple[list[int], dict[int, int]]]:
    """Each labeling in turn, built as read, as (sources, image): image
    maps each of the masks, which hold the domain sets, to its image
    under the labeling, and sources lists the domain sets by ascending
    image."""
    for lab in labelings:
        image = {x: _push_mask(x, lab) for x in masks}
        yield sorted(domain, key=image.__getitem__), image


def _carried(
    ntable: Sequence[int], relabelings: Iterable[tuple[list[int], dict[int, int]]]
) -> Iterator[tuple[int, ...]]:
    """For each labeling in turn (see _relabelings, whose masks must
    hold the table's values on the domain), the value tuple of the
    table it carries, lab X -> lab N(X), over the ascending images of
    the domain sets.

    Let p hold a table on its upsets, or on its nonempty upsets. Its
    least labelings are the isomorphisms lam: p -> P, P the least
    labeling of the class (see canonical_poset_key): g . lam0 for one of
    them, lam0, and g running over the automorphisms of P. Isomorphisms
    keep upsets and nonempty upsets, so every lam maps the domain sets
    onto P's, and the tuples are tables on P read in one order; the
    tuple carried by g . lam0 is g applied to the one carried by lam0,
    so the carried tuples form one orbit of P's automorphisms. Two
    frames a and b of one key are isomorphic iff their orbits are one,
    that is iff one tuple carried for a is among those carried for b.
    An isomorphism f carrying a onto b makes the tuple of a carried by
    mu . f that of b carried by mu, so the orbits meet, and orbits that
    meet are equal. Conversely, if lam carries a to the tuple mu
    carries b to, then mu^-1 . lam is an isomorphism carrying a onto b.

    On P itself the least labelings are its automorphisms, the identity
    first, so a table is least in its orbit exactly when no carried
    tuple is below the first, its own value tuple.
    """
    for sources, image in relabelings:
        yield tuple(map(image.__getitem__, map(ntable.__getitem__, sources)))


def _isomorphic(
    a: "NFrame | TopFrame", a_domain: Sequence[int], b: "NFrame | TopFrame", b_domain: Sequence[int]
) -> bool:
    """Whether two frames or top frames, each table on its domain sets,
    are isomorphic: their posets share a key and the tuple a's first
    least labeling carries is among those b's carry (see _carried),
    built up to the first equal one. Two frames of one key in different
    orbits read every labeling of b: 0.4 s on 7-world antichains."""
    key, labelings = _least_labelings(a.poset)
    b_key, b_labelings = _least_labelings(b.poset)
    if (a.n, key) != (b.n, b_key):
        return False
    masks = {*a_domain, *(a.ntable[u] for u in a_domain)}
    first = next(_carried(a.ntable, _relabelings(a_domain, masks, labelings[:1])))
    masks = {*b_domain, *(b.ntable[u] for u in b_domain)}
    return first in _carried(b.ntable, _relabelings(b_domain, masks, b_labelings))


def nframe_isomorphic(a: NFrame, b: NFrame) -> bool:
    """Poset isomorphism that also transports the negation table
    (_isomorphic)."""
    return _isomorphic(a, a.poset.upsets(), b, b.poset.upsets())


@functools.cache
def _poset_classes(n: int) -> tuple[tuple[int, Poset], ...]:
    """The isomorphism classes of posets on n worlds as (canonical key,
    first grown representative) pairs, ascending by key.

    Every poset on n > 1 worlds arises from one on n - 1 worlds by
    attaching a fresh maximal world above a downset, and the downsets
    of a poset are the upsets of its dual. Each class keeps the first
    poset grown into it, growing from the classes below in key order.
    Every poset enumerator reads this table, so it is built once per n.
    """
    if n <= 1:
        return ((0, Poset(n, [1] * n)),)
    new = 1 << (n - 1)
    seen: dict[int, Poset] = {}
    for _, base in _poset_classes(n - 1):
        for dmask in enumerate_upsets(Poset(base.n, base.down)):
            up = [cone | new if (dmask >> w) & 1 else cone for w, cone in enumerate(base.up)]
            q = Poset(n, up + [new])
            seen.setdefault(canonical_poset_key(q), q)
    return tuple(sorted(seen.items()))


def enumerate_posets_unlabeled(n: int) -> list[Poset]:
    """One representative per isomorphism class of posets on n worlds,
    ascending by canonical key: 1, 2, 5, 16, 63, 318 and 2,045 classes
    for n = 1..7. The first call for n = 7 takes about 0.5 s on a 2-vCPU
    host, the classes below included.
    """
    return [rep for _, rep in _poset_classes(n)]


# --------------------------------------------------------------------------
# search


# Poset classes of at most this many worlds keep their tables, and
# posets of at most this many worlds are kept once per value, for the
# life of the process; it is also the default bound of ``decide``. A
# search fills the memo for the rooted classes only (1,702 tables for
# N), the frame stream adds N's tables of the others (4,501 in all).
DEFAULT_MAX_WORLDS = 4


# The search stops before building the classes past this many worlds:
# the 16 rooted 5-world classes it walks hold 62,058 frames (of 203,008
# in all 63), and the 63 rooted 6-world ones are built with no bound on
# time or memory.
SEARCH_MAX_WORLDS = 5


class _ClassTables(tuple):
    """The negation tables of one memoized class's members, in stream
    order, with the column masks the search kernel builds for them kept
    in ``columns`` (see kernels.find_refuting_valuation_prop)."""

    def __new__(cls, tables: Iterable[tuple[int, ...]]) -> "_ClassTables":
        self = super().__new__(cls, tables)
        self.columns = {}
        return self


# filled on first use, for classes of at most DEFAULT_MAX_WORLDS worlds
_CLASS_TABLES: dict[tuple[int, int, str], tuple[Poset, _ClassTables]] = {}


def _class_tables(size: int, key: int, logic: Logic) -> tuple[Poset, Sequence[tuple[int, ...]]]:
    """The poset of one class (its key, decoded) and the tables of its
    frames in the logic's frame class, in stream order: for N the lawful
    tables least in their automorphism orbit, for the other logics N's
    in their class. Up to DEFAULT_MAX_WORLDS worlds they are kept, as a
    _ClassTables; a larger class is built afresh, as a plain tuple."""
    memo = (size, key, logic.name)
    kept = _CLASS_TABLES.get(memo)
    if kept is not None:
        return kept
    if logic.name == "n":
        p = _poset_from_mask(size, key)
        upsets = p.upsets()
        # lawful tables take upsets to upsets
        automorphisms = list(_relabelings(upsets, upsets, _least_labelings(p)[1]))
        kept_tables = []
        for t in enumerate_ntables(p):
            carried = _carried(t, automorphisms)
            own = next(carried)  # the identity's, which comes first
            if all(own <= c for c in carried):
                kept_tables.append(t)
        tables = tuple(kept_tables)
    else:
        p, every = _class_tables(size, key, LOGICS["n"])
        tables = tuple(t for t in every if _table_in_class(p, t, logic))
    if size > DEFAULT_MAX_WORLDS:
        return p, tables
    kept = _CLASS_TABLES[memo] = p, _ClassTables(tables)
    return kept


def _frame_stream(n: int) -> Iterator[NFrame]:
    """One N-frame per isomorphism class up to n worlds, each the first
    of its class in the labeled order: the least-mask labeling of its
    poset (its canonical key, decoded), carrying the least table of its
    automorphism orbit."""
    for size in range(1, n + 1):
        for key, _ in _poset_classes(size):
            p, tables = _class_tables(size, key, LOGICS["n"])
            for t in tables:
                yield NFrame(p, t)


def countermodel_search(
    logic: Logic,
    f: Formula,
    max_worlds: int,
    deadline: float | None = None,
) -> tuple[NModel, int] | None:
    """Least countermodel to f on a frame of the logic, if one exists
    within the world bound.

    Frames stream in canonical order, so the witness is deterministic:
    the first frame of the class refuting f among all labeled frames,
    with the least refuting valuation and world. ``deadline`` is an
    absolute time.time() value, checked before each rooted poset class;
    passing it raises SearchTimeout, which says how many worlds the
    search had reached and how many frames of the classes before it had
    tried. A class is searched whole once begun, so the search can
    overrun the deadline by one class: by about 5 s for the largest
    rooted 5-world class (key 15) on a 2-vCPU host, 4.7 s of it building
    the class and 0.4 s the kernel call on ~(p & q) -> ~(q & p).

    The search walks only the rooted poset classes, those with a least
    world (proof below): for N that is 131 of the 271 stream frames up
    to 3 worlds, 1,702 of 4,501 up to 4 and 62,058 of the 203,008 at 5.
    Each logic's member tables of the rooted classes of at most
    DEFAULT_MAX_WORLDS worlds are built once per process, in the memo
    the frame stream reads too, so a later search goes straight to the
    tables in the logic's class. Larger classes are built again on every
    call, because the rooted 5-world ones alone hold 62,058 tables,
    about 18 MiB. A search that finds no countermodel up to
    SEARCH_MAX_WORLDS worlds raises ValueError rather than build the
    classes beyond, so every refutation it can find keeps its answer.

    Skipping the classes with no least world keeps the first witness
    (frame, valuation, world) and every exhaustion verdict.

    - Generated subframes. Let (P, N) be a lawful frame, U an upset of
      P, and (U, N_U) the frame on the suborder U with N_U(X) = N(X) & U.
      The upsets of U are the upsets of P inside U, and N_U is lawful:
      its values N(X) & U are upsets of U, and for upsets X, Y of U,
      N_U(X) & Y = N(X) & Y = N(X & Y) & Y = N_U(X & Y) & Y by the
      locality of N. Give U the valuation V_U(p) = V(p) & U. Then every
      formula A has truth set [A] & U on U, by induction on A: the
      variables, Top, & and | are pointwise; v in U sees only R(v),
      which lies in U, so v satisfies A -> B in U iff it does in P; and
      locality at Y = U gives N([A]) & U = N([A] & U) & U = N_U([A]_U),
      so v in U satisfies ~A in U iff it does in P.
    - Closure. Each frame_class condition holds exactly when the frame
      validates the logic's axiom (proved there). A valuation on U is
      one on P as well, with the same values, and the axiom is true on
      all of P, so on U by the lemma; so (U, N_U) is in the logic's
      class whenever (P, N) is.
    - The stream holds an isomorph of every lawful frame: each poset
      class in its least labeling, under the least lawful table of each
      orbit of its automorphisms (``_frame_stream``). An isomorph of a
      member that refutes f is a member that refutes f.
    - So, by induction on k, the search reaches k worlds only when every
      member of fewer worlds validates f (at k = 1 there is none). Let a
      member (P, N) of k worlds refute f at a world w under V. The cone
      U = R(w) gives a member (U, N_U) that refutes f at w under V_U,
      and so does its isomorph in the stream; hence U has k worlds,
      U = W, and w is the least world of P. A class with no least world
      holds no refuting member of k worlds, so dropping it drops no
      frame the frame-by-frame search could return; if the rooted
      classes refute nothing either, every member of k worlds validates
      f, which carries the induction to k + 1. The rooted classes run
      in their stream order as before, so the first witness and every
      verdict of exhaustion stay as they were.
      Nor is a kernel error dropped: stream tables are lawful and
      defined on every upset, so every truth set is an upset and no
      lookup meets a hole.

    The stream skips every frame but the first of its isomorphism
    class, and the witness is still the first of the labeled order.
    Let (P, N) be the first labeled frame that is in the class and
    refutes f. A relabeling P' of P with a smaller pair mask has the
    same size, so it comes earlier; the frame carried over to P' is in
    the class and refutes f, against the choice of (P, N). So P is the
    least labeling of its poset. For an automorphism g of P, the table
    N^g is lawful, lies on P, and is in the class and refutes f as N
    does; were it smaller it would come earlier. So N is the least
    table of its orbit. Both filters keep (P, N) and drop only frames
    after it. Every class keeps a frame, so exhaustion, and with it
    every verdict that rests on it, is unchanged.

    The members of a poset class are searched in one kernel call, and
    the witness is the one a frame-by-frame search gives.
    The frames of a class share its poset, so they share its upsets
    and valuations. The kernel numbers its positions frame *
    len(upsets)**nvars + valuation: frame-major, the order of a loop
    over the frames that tries each frame's valuations in ascending
    order. It returns the lowest position that refutes f, unless a
    lower one reaches an undefined entry, and then raises. The lowest
    refuting position lies on the first frame of the class that
    refutes f, at that frame's least refuting valuation, which is what
    the loop returns; the least failing world comes from evaluating
    that valuation once. The loop raises at the first frame with a
    hole before its first refutation, and a frame before it neither
    refutes nor has a hole; so the lowest hole position comes before
    every refuting one exactly when the loop raises, on that frame.
    Classes run in stream order, so the witness is the frame-by-frame
    search's.
    """
    if max_worlds < 1:
        raise ValueError("need at least one world")
    names, code = compiled(f)
    tried = 0
    for size in range(1, max_worlds + 1):
        if size > SEARCH_MAX_WORLDS:
            raise ValueError(
                f"no countermodel up to {SEARCH_MAX_WORLDS} worlds, and the search "
                f"builds no frames past that cap (asked for {max_worlds})"
            )
        for key, rep in _poset_classes(size):
            # only a rooted class can hold a first countermodel (above)
            if (1 << size) - 1 not in rep.up:
                continue
            if deadline is not None and time.time() > deadline:
                raise SearchTimeout(
                    f"no verdict within the budget: reached {size} worlds "
                    f"after trying {tried} class frames"
                )
            p, tables = _class_tables(size, key, logic)
            idx = kernels.find_refuting_valuation_prop(
                code, len(names), size, p.up, tables, p.upsets()
            )
            if idx >= 0:
                frame, idx = divmod(idx, len(p.upsets()) ** len(names))
                fr = NFrame(p, tables[frame])
                valuation, world = _refutation_at(fr, names, f, idx)
                return NModel(fr, valuation), world
            tried += len(tables)
    return None


# --------------------------------------------------------------------------
# JSON


def poset_to_dict(p: Poset) -> dict:
    return {
        "worlds": p.n,
        "leq": sorted((i, j) for i in range(p.n) for j in range(p.n) if p.le(i, j)),
    }


def frame_to_dict(fr: NFrame) -> dict:
    d = poset_to_dict(fr.poset)
    d["N"] = {str(u): fr.ntable[u] for u in fr.poset.upsets()}
    return d


def model_to_dict(m: NModel) -> dict:
    d = frame_to_dict(m.frame)
    d["valuation"] = {name: m.valuation[name] for name in sorted(m.valuation)}
    return d


_JSON_MAX_WORLDS = 20


def _worlds(d: Mapping) -> int:
    """World count of a frame JSON document, which must be an object.
    Frame tables hold 2**n entries, so n is capped at _JSON_MAX_WORLDS."""
    if not isinstance(d, Mapping):
        raise ValueError("frame JSON must be an object")
    n = d["worlds"]
    if type(n) is not int or not 0 <= n <= _JSON_MAX_WORLDS:
        raise ValueError(f"worlds must be an integer from 0 to {_JSON_MAX_WORLDS}")
    return n


def _int(raw: object, what: str) -> int:
    """A JSON integer entry; anything else raises ValueError, a float
    or a string, and also true and false, which Python counts as ints."""
    if type(raw) is not int:
        raise ValueError(f"{what} must be an integer")
    return raw


def _key(raw: object) -> int:
    """An "N" key: JSON object keys are strings, read through int()."""
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("N key must be an integer") from None


def _ints(raw: object, what: str) -> tuple[int, ...]:
    """A JSON list of numbers as integers."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{what} must be a list")
    return tuple(_int(v, what) for v in raw)


def _table_array(d: Mapping, n: int) -> tuple[int, ...]:
    """The "N" object of a frame JSON document spread over all 2**n
    subsets, -1 at absent keys; the frame's constructor checks that the
    keys are its domain."""
    raw = d.get("N")
    if not isinstance(raw, Mapping):
        raise ValueError("frame JSON needs an N table")
    return _spread(n, {_key(k): _int(v, "N value") for k, v in raw.items()})


def _pairs(raw: object, what: str) -> list[tuple[int, int]]:
    """A JSON list of [i, j] pairs as integer pairs."""
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw
    ):
        raise ValueError(f"{what} must be a list of [i, j] pairs")
    return [(_int(i, what), _int(j, what)) for i, j in raw]


def poset_from_dict(d: Mapping) -> Poset:
    n = _worlds(d)
    return Poset.from_pairs(n, _pairs(d.get("leq", []), "leq"))


def frame_from_dict(d: Mapping) -> NFrame:
    p = poset_from_dict(d)
    return NFrame(p, _table_array(d, p.n))


def model_from_dict(d: Mapping) -> NModel:
    fr = frame_from_dict(d)
    raw = d.get("valuation", {})
    if not isinstance(raw, Mapping):
        raise ValueError("valuation must be an object")
    return NModel(fr, {str(k): _int(v, "valuation value") for k, v in raw.items()})
