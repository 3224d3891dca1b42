"""JSON writers of the bi-modal objects that only the tests use: each
is the inverse of the package's reader of the same object."""

from subminimal.modal import HilbertProof, ModalNFrame, NS4Frame
from subminimal.syntax import show


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
