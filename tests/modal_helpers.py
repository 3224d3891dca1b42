"""Bi-modal helpers that only the tests use: the seeded random
preorders, NS4 frames and orderless frames, and JSON writers, each the
inverse of the package's reader of the same object."""

from frame_helpers import coin_flips
from subminimal.frames import _cones_from_pairs, _trace_tables
from subminimal.modal import HilbertProof, ModalNFrame, NS4Frame
from subminimal.syntax import show


def random_preorder(rng, n: int) -> tuple[int, ...]:
    pairs = [(w, v) for w in range(n) for v in range(n) if v != w and rng.random() < 0.35]
    return tuple(_cones_from_pairs(n, pairs))


def random_ns4_frame(rng, n: int) -> NS4Frame:
    """Random lawful frame: a random preorder, then trace families
    chosen by fair coins (see frames._trace_tables), one coin per
    allowed set. The subsets go in descending order, the order in which
    seeded draws have always flipped their coins."""
    rel = random_preorder(rng, n)
    subsets = range((1 << n) - 1, -1, -1)
    return NS4Frame(n, rel, _trace_tables(rel, subsets, coin_flips(rng))[0])


def random_modal_ntable(rng, n: int) -> ModalNFrame:
    return ModalNFrame(
        n, tuple(rng.randrange(1 << n) for _ in range(1 << n))
    )


def ns4_to_dict(fr: NS4Frame) -> dict:
    rel = [
        [w, v] for w in range(fr.n) for v in range(fr.n) if (fr.rel[w] >> v) & 1
    ]
    return {
        "worlds": fr.n,
        "rel": rel,
        "N": {str(x): fr.ntable[x] for x in range(1 << fr.n)},
    }


def modal_nframe_to_dict(fr: ModalNFrame) -> dict:
    return {"worlds": fr.n, "N": {str(x): fr.ntable[x] for x in range(1 << fr.n)}}


def proof_lines_to_list(proof: HilbertProof) -> list[dict]:
    return [
        {"formula": show(line.formula), "rule": line.rule, "refs": list(line.refs)}
        for line in proof.lines
    ]
