"""The ladder family of posets and order-morphism deciders.

delta(n) is a rooted, topped poset on 2n+7 nodes built from two
interleaved chains. Distinct members admit no onto order-preserving
map in either direction, and no positive morphism either, which is
what makes the family useful as a source of pairwise independent
frames. The loaded negation tables live in n_variant.

Node indexing is fixed: the root w is 0, then the chain nodes in
level order from the bottom with the x node before the y node on each
level, and the top t last. labels maps the conventional names
("w", "x0", .., "y0", .., "t") to indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from subminimal import kernels
from subminimal.frames import NFrame, NModel, Poset, _push_mask, ntable_from_upset_map, truth_sets
from subminimal.syntax import Imp, Neg, Var


@dataclass(frozen=True, eq=False)
class DeltaPoset:
    n: int
    poset: Poset
    labels: Mapping[str, int] = field(repr=False)

    @property
    def root(self) -> int:
        return self.labels["w"]

    @property
    def top(self) -> int:
        return self.labels["t"]


def _delta_labels(n: int) -> dict[str, int]:
    labels = {"w": 0, "t": 2 * n + 6}
    for i in range(n + 3):
        labels[f"x{i}"] = 2 * (n + 2 - i) + 1
    for j in range(n + 2):
        labels[f"y{j}"] = 2 * (n + 1 - j) + 2
    return labels


def delta_cover_pairs(n: int) -> list[tuple[str, str]]:
    """Cover relation of delta(n) in label form."""
    pairs = [("w", f"x{n + 2}"), ("w", f"y{n + 1}")]
    pairs += [(f"x{i + 1}", f"x{i}") for i in range(n + 2)]
    pairs += [(f"y{j + 1}", f"y{j}") for j in range(n + 1)]
    pairs += [("x0", "t"), ("y0", "t")]
    pairs += [(f"y{i + 1}", f"x{i}") for i in range(n + 1)]
    pairs += [(f"x{i + 1}", f"y{i}") for i in range(1, n + 1)]
    return pairs


def build_delta(n: int) -> DeltaPoset:
    if n < 0:
        raise ValueError("the family starts at index 0")
    labels = _delta_labels(n)
    covers = [(labels[a], labels[b]) for a, b in delta_cover_pairs(n)]
    return DeltaPoset(n, Poset.from_pairs(2 * n + 7, covers), labels)


# --------------------------------------------------------------------------
# order morphisms


def order_onto(target: Poset, source: Poset) -> list[int] | None:
    """Least onto order-preserving map source -> target, or None."""
    found = kernels.search_order_onto(
        target.n, target.up, target.down, source.n, source.up, source.down
    )
    if found is not None and not verify_order_onto(target, source, found):
        raise RuntimeError("search returned a map that does not verify")
    return found


def verify_order_onto(target: Poset, source: Poset, f: Sequence[int]) -> bool:
    """Whether the list f is an onto order-preserving map source ->
    target: each cone's image lies inside the cone of its world's value."""
    if len(f) != source.n or any(not 0 <= c < target.n for c in f):
        return False
    if len(set(f)) != target.n:
        return False
    return all(_push_mask(up, f) & ~target.up[c] == 0 for up, c in zip(source.up, f))


def positive_morphism(target: Poset, source: Poset) -> dict[int, int] | None:
    """A partial order-preserving map with downward-closed domain
    that is onto and can always move up: whenever some target world
    sits above an image, a preimage above the mapped world exists
    inside the domain. Returns the kernel's witness: on the first
    downward-closed domain in ascending mask order that carries a
    morphism, the least one in world-index order. None when there is
    none, as for an empty target, since a positive morphism has a
    nonempty domain."""
    found = kernels.search_positive_morphism(target.n, target.up, source.n, source.up)
    if found is None:
        return None
    dom, flat = found
    out = {w: flat[w] for w in range(source.n) if (dom >> w) & 1}
    if not verify_positive_morphism(target, source, out):
        raise RuntimeError("search returned a map that does not verify")
    return out


def verify_positive_morphism(
    target: Poset, source: Poset, f: Mapping[int, int]
) -> bool:
    """Whether f is a positive morphism: onto, on a nonempty
    downward-closed domain D, and taking each cone up(w) & D onto the
    cone of f(w); the inclusion is forth, the converse is back."""
    if not f or any(not 0 <= w < source.n for w in f):
        return False
    if any(not 0 <= c < target.n for c in f.values()):
        return False
    if set(f.values()) != set(range(target.n)):
        return False
    dom = sum(1 << w for w in f)
    return all(
        source.down[w] & ~dom == 0 and _push_mask(source.up[w] & dom, f) == target.up[c]
        for w, c in f.items()
    )


def extend_positive(
    target: Poset, source: Poset, f: Mapping[int, int]
) -> list[int]:
    """Complete a positive morphism by sending the rest to the top."""
    t = target.top()
    if t is None:
        raise ValueError("the target has no greatest world to absorb the rest")
    return [f.get(w, t) for w in range(source.n)]


def antichain_check(posets: Sequence[Poset]) -> bool:
    """No member is an onto order-preserving image of another."""
    for i, p in enumerate(posets):
        for j, q in enumerate(posets):
            if i != j and order_onto(p, q) is not None:
                return False
    return True


# --------------------------------------------------------------------------
# negation tables on the ladder


VARIANTS = ("base", "nef", "sub_nef", "copc")


def n_variant(d: DeltaPoset, v: str) -> NFrame:
    """One of the four loaded negation tables on delta(n).

    base and copc take every upset to the singleton top. nef flips
    between the root's complement and everything, keyed on whether the
    input is exactly the root's complement; sub_nef keys on whether
    the input is everything.
    """
    p = d.poset
    full = (1 << p.n) - 1
    rootless = full & ~(1 << d.root)
    top = 1 << d.top
    mapping = {}
    for u in p.upsets():
        if v in ("base", "copc"):
            mapping[u] = top
        elif v == "nef":
            mapping[u] = full if u == rootless else rootless
        elif v == "sub_nef":
            mapping[u] = full if u == full else rootless
        else:
            raise ValueError(f"unknown variant {v!r}")
    return NFrame(p, ntable_from_upset_map(p, mapping))


def theta_refutation_check(d: DeltaPoset, v: str) -> bool:
    """The valuation pattern behind the refutation at the root.

    base: p true only at the top makes p -> ~p hold everywhere while
    ~p fails at the root, so (p -> ~p) -> ~p fails there. nef: with q
    true off the root, p -> q holds everywhere and ~q holds at the
    root while ~p fails there, so the contraposition axiom fails at
    the root.
    """
    full = (1 << d.poset.n) - 1
    root = d.root
    p, q = Var("p"), Var("q")
    if v == "base":
        m = NModel(n_variant(d, "base"), {"p": 1 << d.top})
        axiom = Imp(Imp(p, Neg(p)), Neg(p))
        truth = truth_sets(m, (axiom,))
        premise_global = truth[Imp(p, Neg(p))] == full
        np_at_root = (truth[Neg(p)] >> root) & 1
        axiom_at_root = (truth[axiom] >> root) & 1
        return premise_global and not np_at_root and not axiom_at_root
    if v == "nef":
        m = NModel(
            n_variant(d, "nef"),
            {"p": 1 << d.top, "q": full & ~(1 << root)},
        )
        axiom = Imp(Imp(p, q), Imp(Neg(q), Neg(p)))
        truth = truth_sets(m, (axiom,))
        premise_global = truth[Imp(p, q)] == full
        nq_at_root = (truth[Neg(q)] >> root) & 1
        np_at_root = (truth[Neg(p)] >> root) & 1
        axiom_at_root = (truth[axiom] >> root) & 1
        return premise_global and bool(nq_at_root) and not np_at_root and not axiom_at_root
    raise ValueError("the refutation pattern is defined for base and nef")


# comparison_matrix took 3.3 s at 4, 17.6 s at 5 and 151.7 s at 6 on a
# 2-vCPU shared host; order_onto(delta(5), delta(6)) alone takes about 34 s
ANTICHAIN_MAX_N = 5


def comparison_matrix(max_n: int) -> dict:
    """Pairwise onto and positive comparisons of delta(0..max_n).

    Raises ValueError above ANTICHAIN_MAX_N, where the onto searches
    run for minutes.
    """
    if max_n > ANTICHAIN_MAX_N:
        raise ValueError(
            f"asked for delta(0..{max_n}), above the cap of {ANTICHAIN_MAX_N}: "
            "the onto searches beyond it run for minutes"
        )
    members = [build_delta(k) for k in range(max_n + 1)]
    le = [
        [order_onto(a.poset, b.poset) is not None for b in members]
        for a in members
    ]
    pos = [
        [positive_morphism(a.poset, b.poset) is not None for b in members]
        for a in members
    ]
    return {"indices": list(range(max_n + 1)), "onto": le, "positive": pos}
