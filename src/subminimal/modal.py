"""Bi-modal semantics over preorders and a Hilbert proof checker.

The box quantifies over the cone of a reflexive transitive relation;
the second modality reads its truth set straight off a negation table
indexed by arbitrary subsets. Frames restrict that table two ways:
values must be cone-closed, and membership may only depend on the
input's trace over the world's own cone. The checker knows the two
axiom systems that differ in one scheme: congruence distribution for
the plain system, contraposition for the antitone one.

Tables are dense tuples of length 2^n, so everything here is for
desk-scale frames. The k-premise replacement rule and the k-ary
intersection law are one condition on a table, and every arity k >= 1
gives the answer of k = 1 (the proofs are in
``kernels._guard_sets``). So ``en_check`` and ``rn_validity``
answer k = 0 without a scan and every other arity from one scan at
k = 1, kept on the frame.

The translation gap reads the lift of a frame's table at the upsets
alone; the preservation check reads the whole lift
(``kernels.lift_table``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from subminimal import kernels
from subminimal.frames import (
    NFrame,
    NModel,
    _Cones,
    _antisymmetric,
    _antitone,
    _check_preorder,
    _check_table,
    _cones_from_pairs,
    _imp_mask,
    _ints,
    _orders_between,
    _pairs,
    _subfamilies,
    _table_array,
    _trace_tables,
    _truths,
    _valuation_from_index,
    _worlds,
    eval_formula,
)
from subminimal.syntax import (
    And,
    BBox,
    Box,
    Formula,
    Imp,
    Or,
    Top,
    Var,
    _fold,
    compiled,
    is_instance_of,
    parse,
    subformulas,
)


@dataclass(frozen=True)
class NS4Frame:
    """Preorder plus a total negation table with cone-closed values.

    ``rel`` is kept as a frames._Cones, so the kernel calls on one
    frame, such as the five axiom searches of ``ns4 valid``, build its
    cone lists once (kernels._kept). It compares, hashes and
    prints as the plain tuple, and a frame pickles and copies through
    its constructor with ``rel`` as a plain tuple, so no kept entry
    goes with it."""

    n: int
    rel: tuple[int, ...]
    ntable: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_preorder(self.n, self.rel)
        _check_table(self.n, range(1 << self.n), self.ntable, "subset")
        object.__setattr__(self, "rel", _Cones(self.rel))

    def __reduce__(self) -> tuple:
        return NS4Frame, (self.n, tuple(self.rel), self.ntable)


def ns4_check_frame(fr: NS4Frame) -> tuple[str, int] | None:
    """None when every value is cone-closed and membership in N(X)
    only looks at X through the member's own cone; otherwise the kind
    of breach and the offending input set."""
    code = kernels.ns4_table_violation(fr.n, fr.rel, fr.ntable)
    if code < 0:
        return None
    x, kind = divmod(code, 2)
    return ("value" if kind == 0 else "locality", x)


@dataclass(frozen=True, eq=False)
class NS4Model:
    frame: NS4Frame
    valuation: Mapping[str, int]

    def __post_init__(self) -> None:
        full = (1 << self.frame.n) - 1
        for name, mask in self.valuation.items():
            if mask < 0 or mask & ~full:
                raise ValueError(f"truth set of {name} out of range")

    def val(self, name: str) -> int:
        if name not in self.valuation:
            raise ValueError(f"model has no valuation for {name}")
        return self.valuation[name]


def ns4_eval(m: NS4Model, f: Formula) -> int:
    names, code = compiled(f, "modal")
    return kernels.eval_modal(
        code, m.frame.n, m.frame.rel, m.frame.ntable, [m.val(v) for v in names]
    )


def ns4_refuting_valuation(fr: NS4Frame, f: Formula) -> tuple[dict[str, int], int] | None:
    """Least valuation into arbitrary subsets refuting f, with the
    least world where it fails."""
    names, code = compiled(f, "modal")
    idx = kernels.find_refuting_valuation_modal(code, len(names), fr.n, fr.rel, fr.ntable)
    if idx < 0:
        return None
    valuation = _valuation_from_index(idx, names, range(1 << fr.n))
    mask = kernels.eval_modal(
        code, fr.n, fr.rel, fr.ntable, [valuation[v] for v in names]
    )
    full = (1 << fr.n) - 1
    missing = full & ~mask
    return valuation, (missing & -missing).bit_length() - 1


def ns4_frame_validates(fr: NS4Frame, f: Formula) -> bool:
    return ns4_refuting_valuation(fr, f) is None


AXIOM_K = parse("[](p -> q) -> ([]p -> []q)", "modal")
AXIOM_T = parse("[]p -> p", "modal")
AXIOM_4 = parse("[]p -> [][]p", "modal")
AXIOM_BBOX_CONG = parse("[](p <-> q) -> ([n]p <-> [n]q)", "modal")
AXIOM_BBOX_PERSIST = parse("[n]p -> [][n]p", "modal")
AXIOM_BBOX_CONTRA = parse("[](p -> q) -> ([n]q -> [n]p)", "modal")

NS4_AXIOMS = {
    "K": AXIOM_K,
    "T": AXIOM_T,
    "4": AXIOM_4,
    "bbox-cong": AXIOM_BBOX_CONG,
    "bbox-persist": AXIOM_BBOX_PERSIST,
}
COS4_AXIOMS = {
    "K": AXIOM_K,
    "T": AXIOM_T,
    "4": AXIOM_4,
    "bbox-contra": AXIOM_BBOX_CONTRA,
    "bbox-persist": AXIOM_BBOX_PERSIST,
}


# --------------------------------------------------------------------------
# frame generation


def enumerate_preorders(n: int) -> list[tuple[int, ...]]:
    """All reflexive transitive cone families on n worlds, as
    frames._orders_between lists them from the identity to all worlds."""
    return list(_orders_between([1 << w for w in range(n)], [(1 << n) - 1] * n))


def enumerate_ns4_frames(n: int) -> list[NS4Frame]:
    """Every lawful frame on n worlds, by preorder in the order of
    enumerate_preorders and then by ascending table.

    The lawful tables of a preorder are its trace tables over all
    subsets (the proof is in frames._trace_tables), one per choice of
    trace families: 4 frames on 1 world and 82 on 2. Capped at 2
    worlds; 3 would give 9,806 frames over 29 preorders.
    """
    if n > 2:
        raise ValueError("exhaustive table enumeration is infeasible past 2 worlds")
    subsets = range(1 << n)
    return [
        NS4Frame(n, rel, table)
        for rel in enumerate_preorders(n)
        for table in sorted(_trace_tables(rel, subsets, _subfamilies))
    ]


# --------------------------------------------------------------------------
# the lift and the translation


def lift_nstar(fr: NFrame) -> NS4Frame:
    """Extend a frame's negation from upsets to all subsets.

    A world lands in the lifted value at X when some upset agrees with
    X on the world's cone and the world is in that upset's negation.
    On an upset X the lift keeps N(X) (take the upset X itself) and
    may add to it. It adds nothing when the table is local: if w is in
    N(Y) with Y & R(w) = X & R(w), locality at the upset R(w) gives
    N(Y) & R(w) = N(Y & R(w)) & R(w) = N(X & R(w)) & R(w) = N(X) & R(w),
    so w is in N(X). NFrame also takes tables that are not local; on
    the antichain Poset(2, [1, 2]) the lift of (1, 1, 2, 2) is
    (1, 1, 3, 3). The lift is the trace table of the cuts of N over all
    subsets, built by the loop every trace-family table shares
    (kernels._trace_table).
    """
    p = fr.poset
    lifted = kernels.lift_table(p.n, p.up, p.upsets(), fr.ntable)
    return NS4Frame(p.n, p.up, tuple(lifted))


def translation_preservation(m: NModel, f: Formula) -> int | None:
    """First world where f and its boxed translation T(f) disagree, if
    any: f evaluated in the model, T(f) in the lifted model (the table
    of lift_nstar) under the very same valuation.

    T(f) is never built. In the lifted model T(f) holds exactly where
    f holds under the frame's own semantics with the lifted table N*
    read for negation and box V(p) for each variable p, by induction
    on f:

    * T(p) = []p holds on box V(p), the worlds whose cone lies in V(p);
      for an upset V(p) that is V(p) itself;
    * T(a -> b) = [](Ta -> Tb) with the pointwise arrow, and box(~A | B)
      is the Heyting arrow of A and B for any masks (see
      kernels._run);
    * T(~a) = [n]Ta holds on N*(Ta);
    * T(a & b) and T(a | b) are pointwise, and T keeps the constant T.

    So the truth walker that evaluates f reads N* and the boxed
    valuation in place of the frame's table and the model's valuation.
    The valuation is boxed and not trusted to hold upsets: the model
    checks that at construction, and a mapping can change afterwards.

    Errors are those of evaluating f in the model, and then, for a
    valuation that has since left the subsets of the worlds, the
    ValueError of NS4Model. Past those nothing can fail: the lift is
    total and every variable of f is valued.
    """
    prop = eval_formula(m, f)
    p = m.frame.poset
    full = (1 << p.n) - 1
    boxed = {}
    for name, mask in m.valuation.items():
        if mask < 0 or mask & ~full:
            raise ValueError(f"truth set of {name} out of range")
        boxed[name] = _imp_mask(p.up, full, mask)
    nstar = kernels.lift_table(p.n, p.up, p.upsets(), m.frame.ntable)
    diff = prop ^ _truths(p, nstar, boxed, subformulas(f), {})[f]
    if diff == 0:
        return None
    return (diff & -diff).bit_length() - 1


def translation_gap_search(fr: NFrame, depth: int) -> tuple[int, int] | None:
    """Search all value pairs reachable by formulas up to the given
    connective depth for a disagreement between the frame's semantics
    and the lifted one (see kernels.translation_gap).

    None certifies agreement for all formulas of that depth over all
    valuations at once. At depth 0 that is trivial; at every depth >= 1
    it means N agrees with its lift on the upsets, which on a table
    whose values are upsets is exactly the locality law (lift_nstar).
    """
    p = fr.poset
    code = kernels.translation_gap(p.n, p.up, fr.ntable, p.upsets(), depth)
    if code < 0:
        return None
    return code >> p.n, code & ((1 << p.n) - 1)


# --------------------------------------------------------------------------
# orderless tables, the intersection law and the rule


@dataclass(frozen=True)
class ModalNFrame:
    """Just worlds and a total table; no order, no intrinsic laws.

    ``_law`` keeps whether the intersection law holds at k = 1, the
    answer of every k >= 1 and of the rule (kernels._guard_sets);
    it stays out of ==, hash and repr.
    """

    n: int
    ntable: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_table(self.n, range(1 << self.n), self.ntable, "subset")

    @cached_property
    def _law(self) -> bool:
        return bool(kernels.en_holds(self.n, self.ntable, 1))


def en_check(fr: ModalNFrame, k: int) -> bool:
    """The k-ary intersection law: cutting the input down by k table
    values and intersecting the output with them is invisible. k = 0
    reads the empty intersection as all worlds, where the law cannot
    fail; every k >= 1 has the answer of k = 1 (the proof is in
    kernels._guard_sets), which the frame scans for once and
    keeps."""
    return _law_at(fr, k)


def rn_validity(fr: ModalNFrame, k: int) -> bool:
    """Frame-level validity of the k-premise replacement rule: under
    any valuation, if q and r agree wherever all k guard values hold,
    the table must send them to outputs agreeing there too. That is
    the intersection law at the same guard sets, so the answer is
    en_check's, read off the same kept scan."""
    return _law_at(fr, k)


def _law_at(fr: ModalNFrame, k: int) -> bool:
    if k < 0:
        raise ValueError("arity must be nonnegative")
    return k == 0 or fr._law


def cos4_check_frame(fr: NS4Frame) -> bool:
    """Lawful frame over a partial order whose table is antitone on
    all subsets."""
    if ns4_check_frame(fr) is not None or not _antisymmetric(fr.rel):
        return False
    return _antitone(range(1 << fr.n), fr.ntable)


# --------------------------------------------------------------------------
# Hilbert proofs


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    rule: str
    refs: tuple[int, ...] = ()


@dataclass(frozen=True)
class HilbertProof:
    system: str
    lines: tuple[ProofLine, ...]


_AXIOM_RULES = {
    "K": AXIOM_K,
    "T": AXIOM_T,
    "4": AXIOM_4,
    "bbox-cong": AXIOM_BBOX_CONG,
    "bbox-persist": AXIOM_BBOX_PERSIST,
    "bbox-contra": AXIOM_BBOX_CONTRA,
}
_FORBIDDEN = {"ns4": "bbox-contra", "cos4": "bbox-cong"}
_RULES = set(_AXIOM_RULES) | {"taut", "MP", "Nec", "box-conj", "premise"}


def _box_conj_norm(f: Formula) -> Formula:
    """f with each box distributed over conjunction, children first."""
    ops = {And: And, Or: Or, Imp: Imp, BBox: BBox, Box: _box_over, None: lambda g: g}
    return _fold(subformulas(f), ops, {})[f]


def _box_over(f: Formula) -> Formula:
    """[]f distributed, for a distributed f: each conjunct boxed."""
    boxed: dict[Formula, Formula] = {}
    spine = [f] if f.__class__ is And else []
    while spine:
        g = spine[-1]
        below = [c for c in (g.left, g.right) if c.__class__ is And and c not in boxed]
        if below:
            spine += below
        else:
            spine.pop()
            boxed[g] = And(*[boxed.get(c) or Box(c) for c in (g.left, g.right)])
    return boxed.get(f) or Box(f)


def _is_taut_instance(f: Formula) -> bool:
    """Truth-table the formula with maximal modal subformulas and
    variables abstracted as atoms, all rows at once: bit r of a value
    is its truth in row r, where atom i is bit i of r."""
    order = subformulas(f)
    atoms: dict[Formula, int] = {}
    outer = {f}
    for g in reversed(order):
        if g in outer and isinstance(g, (And, Or, Imp)):
            outer.update((g.left, g.right))
        elif g in outer and isinstance(g, (Box, BBox, Var)):
            atoms.setdefault(g, len(atoms))
    if len(atoms) > 16:
        raise ValueError("too many distinct atoms to truth-table")
    full = (1 << (1 << len(atoms))) - 1

    def atom(g: Formula) -> int:
        if g not in atoms:
            return full if isinstance(g, Top) else 0  # Bot
        run = 1 << atoms[g]  # runs of 2^i set bits, each after as many clear
        return full // ((1 << 2 * run) - 1) * ((1 << run) - 1 << run)

    ops = {And: int.__and__, Or: int.__or__, Imp: lambda x, y: full & ~x | y, None: atom}
    return _fold([g for g in order if g in outer], ops, {})[f] == full


def check_proof(proof: HilbertProof) -> tuple[int, str] | None:
    """First unjustified line with the reason, or None when all check.

    premise lines declare the hypotheses of a rule derivation and
    always pass; necessitation only produces the box. Modus ponens
    refs list the implication first.
    """
    if proof.system not in _FORBIDDEN:
        return (0, f"unknown system {proof.system!r}")
    forbidden = _FORBIDDEN[proof.system]
    for i, line in enumerate(proof.lines):
        rule = line.rule
        if rule not in _RULES:
            return (i, f"unknown rule {rule!r}")
        if rule == forbidden:
            return (i, f"rule {rule!r} is not available in {proof.system}")
        if any(r < 0 or r >= i for r in line.refs):
            return (i, "references must point at earlier lines")
        if rule in _AXIOM_RULES:
            if line.refs:
                return (i, "axiom lines take no references")
            if not is_instance_of(line.formula, _AXIOM_RULES[rule]):
                return (i, f"not an instance of the {rule} scheme")
        elif rule == "taut":
            if line.refs:
                return (i, "tautology lines take no references")
            if not _is_taut_instance(line.formula):
                return (i, "not a tautology under modal abstraction")
        elif rule == "MP":
            if len(line.refs) != 2:
                return (i, "modus ponens takes two references")
            a, b = line.refs
            want = Imp(proof.lines[b].formula, line.formula)
            if proof.lines[a].formula != want:
                return (i, "first reference is not the matching implication")
        elif rule == "Nec":
            if len(line.refs) != 1:
                return (i, "necessitation takes one reference")
            if line.formula != Box(proof.lines[line.refs[0]].formula):
                return (i, "necessitation only boxes the referenced line")
        elif rule == "box-conj":
            if len(line.refs) != 1:
                return (i, "rewriting takes one reference")
            if _box_conj_norm(line.formula) != _box_conj_norm(
                proof.lines[line.refs[0]].formula
            ):
                return (i, "not equal modulo distributing the box over conjunction")
        elif rule == "premise":
            if line.refs:
                return (i, "premise lines take no references")
    return None


# --------------------------------------------------------------------------
# JSON


def ns4_from_dict(d: Mapping) -> NS4Frame:
    n = _worlds(d)
    rel = _cones_from_pairs(n, _pairs(d["rel"], "rel"))
    return NS4Frame(n, tuple(rel), _table_array(d, n))


def modal_nframe_from_dict(d: Mapping) -> ModalNFrame:
    n = _worlds(d)
    return ModalNFrame(n, _table_array(d, n))


def proof_from_list(items: Sequence[Mapping], system: str) -> HilbertProof:
    lines = []
    for i, item in enumerate(items):
        if not isinstance(item, Mapping):
            raise ValueError(f"proof line {i} must be an object")
        if not isinstance(item["formula"], str):
            raise ValueError(f"formula of proof line {i} must be a string")
        formula = parse(item["formula"], "modal")
        if not isinstance(item["rule"], str):
            raise ValueError(f"rule of proof line {i} must be a string")
        lines.append(ProofLine(formula, item["rule"], _ints(item.get("refs", []), "refs")))
    return HilbertProof(system, tuple(lines))
