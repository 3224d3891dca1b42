"""The Hilbert-style proof checker and the three derivation fixtures.

Each fixture must check under its own system and fail under the other,
and every generated single-line corruption must be rejected.
"""

import itertools
import random

import pytest
from conftest import load_fixture, proof_mutations
from modal_helpers import proof_lines_to_list

from subminimal.modal import (
    HilbertProof,
    ProofLine,
    _is_taut_instance,
    check_proof,
    proof_from_list,
)
from subminimal.syntax import And, BBox, Box, Imp, Or, Top, Var, parse
from syntax_helpers import random_formula

FIXTURES = [
    ("proof_cong.json", "ns4"),
    ("proof_rule1.json", "ns4"),
    ("proof_contra.json", "cos4"),
]


def M(s):
    return parse(s, "modal")


@pytest.mark.parametrize("name,system", FIXTURES)
def test_fixture_checks_under_its_system(name, system):
    proof = proof_from_list(load_fixture(name), system)
    assert check_proof(proof) is None


def test_fixture_line_counts():
    assert len(load_fixture("proof_cong.json")) == 9
    assert len(load_fixture("proof_rule1.json")) == 12
    assert len(load_fixture("proof_contra.json")) == 9


def test_congruence_rule_is_foreign_to_cos4():
    proof = proof_from_list(load_fixture("proof_cong.json"), "cos4")
    hit = check_proof(proof)
    assert hit == (0, "rule 'bbox-cong' is not available in cos4")


def test_contraposition_rule_is_foreign_to_ns4():
    proof = proof_from_list(load_fixture("proof_contra.json"), "ns4")
    hit = check_proof(proof)
    assert hit == (0, "rule 'bbox-contra' is not available in ns4")


def test_unknown_system():
    proof = HilbertProof("s5", (ProofLine(M("p -> p"), "taut"),))
    assert check_proof(proof) == (0, "unknown system 's5'")


def test_unknown_rule():
    proof = HilbertProof("ns4", (ProofLine(M("p -> p"), "guess"),))
    assert check_proof(proof) == (0, "unknown rule 'guess'")


def test_forward_reference_rejected():
    proof = HilbertProof(
        "ns4",
        (
            ProofLine(M("[](p -> p)"), "Nec", (1,)),
            ProofLine(M("p -> p"), "taut"),
        ),
    )
    assert check_proof(proof) == (0, "references must point at earlier lines")


def test_necessitation_boxes_only_the_referenced_line():
    proof = HilbertProof(
        "ns4",
        (
            ProofLine(M("p -> p"), "taut"),
            ProofLine(M("[n](p -> p)"), "Nec", (0,)),
        ),
    )
    assert check_proof(proof) == (1, "necessitation only boxes the referenced line")


def test_taut_rule_truth_tables_under_abstraction():
    good = HilbertProof(
        "ns4", (ProofLine(M("[]p -> ([n]q -> []p)"), "taut"),)
    )
    assert check_proof(good) is None
    bad = HilbertProof("ns4", (ProofLine(M("[]p -> p"), "taut"),))
    assert check_proof(bad) == (0, "not a tautology under modal abstraction")


def _taut_by_brute_force(f):
    """Whether f is a classical tautology with its maximal boxed
    subformulas and its variables read as atoms."""
    atoms = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (And, Or, Imp)):
            todo += [g.left, g.right]
        elif isinstance(g, (Box, BBox, Var)):
            atoms.add(g)
    if len(atoms) > 16:
        raise ValueError("too many distinct atoms to truth-table")

    def holds(g, env):
        if isinstance(g, (Box, BBox, Var)):
            return env[g]
        if isinstance(g, Top):
            return True
        if not isinstance(g, (And, Or, Imp)):
            return False
        left, right = holds(g.left, env), holds(g.right, env)
        return {And: left and right, Or: left or right, Imp: not left or right}[type(g)]

    return all(holds(f, dict(zip(atoms, bits))) for bits in itertools.product((False, True), repeat=len(atoms)))


def test_taut_instances_match_the_brute_force_truth_table():
    rng = random.Random(61)
    verdicts = []
    for _ in range(150):
        g = random_formula(rng, ("p", "q", "r"), 4, "modal")
        h = random_formula(rng, ("p", "q"), 3, "modal")
        for f in (g, Imp(g, g), Or(g, Imp(g, h)), Imp(And(g, h), h), Imp(g, h)):
            verdicts.append(_is_taut_instance(f))
            assert verdicts[-1] == _taut_by_brute_force(f), f
    assert 100 <= sum(verdicts) <= len(verdicts) - 100
    wide = Var("x0")
    for i in range(1, 17):
        wide = And(wide, Box(Var(f"x{i}")))
    for check in (_is_taut_instance, _taut_by_brute_force):
        with pytest.raises(ValueError, match="too many distinct atoms"):
            check(wide)


def test_box_conj_rewrite_rule():
    good = HilbertProof(
        "ns4",
        (
            ProofLine(M("[](p & q)"), "premise"),
            ProofLine(M("[]p & []q"), "box-conj", (0,)),
        ),
    )
    assert check_proof(good) is None
    bad = HilbertProof(
        "ns4",
        (
            ProofLine(M("[](p & q)"), "premise"),
            ProofLine(M("[]p & []p"), "box-conj", (0,)),
        ),
    )
    assert check_proof(bad) == (
        1,
        "not equal modulo distributing the box over conjunction",
    )


def test_modus_ponens_checks_the_implication():
    proof = HilbertProof(
        "ns4",
        (
            ProofLine(M("p -> q"), "premise"),
            ProofLine(M("p"), "premise"),
            ProofLine(M("q"), "MP", (0, 1)),
        ),
    )
    assert check_proof(proof) is None
    swapped = HilbertProof("ns4", proof.lines[:2] + (ProofLine(M("q"), "MP", (1, 0)),))
    assert check_proof(swapped) == (
        2,
        "first reference is not the matching implication",
    )


def test_round_trip_through_lists():
    items = load_fixture("proof_rule1.json")
    proof = proof_from_list(items, "ns4")
    assert proof_lines_to_list(proof) == [
        {**line, "refs": list(line["refs"])} for line in items
    ]


@pytest.mark.parametrize("name,system", FIXTURES)
def test_twenty_single_line_mutations_are_rejected(name, system):
    items = load_fixture(name)
    muts = proof_mutations(items, limit=20)
    assert len(muts) == 20
    for label, mutated in muts:
        proof = proof_from_list(mutated, system)
        assert check_proof(proof) is not None, label
