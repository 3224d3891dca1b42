"""End-to-end coverage of the command line front end.

Every case calls main() in process and checks the JSON payload and the
exit code; subprocess tests prove the module entry point and the exit
code under a closed stdout.
"""

import argparse
import copy
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subminimal
from subminimal import cli, frames
from subminimal.algebra import (
    algebra_corpus,
    algebra_from_dict,
    algebra_to_dict,
    nalgebra_isomorphic,
    upset_algebra,
)
from subminimal.cli import main
from subminimal.frames import NFrame, Poset, ntable_from_upset_map

SRC = str(pathlib.Path(subminimal.__file__).resolve().parents[1])
# what the console script that project.scripts installs runs
ENTRY = "import sys; from subminimal.cli import main; sys.exit(main())"
CHAIN = Poset.from_pairs(2, [(0, 1)])
SEPARATING = NFrame(CHAIN, ntable_from_upset_map(CHAIN, {0: 2, 2: 3, 3: 2}))
SEPARATING_JSON = {
    "worlds": 2,
    "leq": [[0, 1]],
    "N": {"0": 2, "2": 3, "3": 2},
}
HAND_NS4_JSON = {
    "worlds": 2,
    "rel": [[0, 0], [1, 1]],
    "N": {str(x): 2 for x in range(4)},
}
CHAIN_ALGEBRA = algebra_to_dict(upset_algebra(SEPARATING))
SWAP_JSON = {"worlds": 2, "N": {"0": 3, "1": 2, "2": 1, "3": 0}}
FORK_MODEL_JSON = {
    "worlds": 3,
    "leq": [[0, 1], [0, 2]],
    "N": {"0": 7, "2": 7, "4": 7, "6": 7, "7": 0},
    "valuation": {"p": 2},
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_reprints_the_base_axiom(capsys):
    code, out = run(capsys, ["parse", "(p <-> q) -> (~p <-> ~q)"])
    assert code == 0
    assert out == {
        "status": "ok",
        "language": "prop",
        "formula": "(p -> q) & (q -> p) -> (~p -> ~q) & (~q -> ~p)",
        "variables": ["p", "q"],
        "depth": 4,
    }


def test_parse_modal_language(capsys):
    code, out = run(capsys, ["parse", "[n] [] p", "--language", "modal"])
    assert code == 0
    assert out["formula"] == "[n][]p"
    assert out["language"] == "modal"


def test_parse_error_exits_2(capsys):
    code, out = run(capsys, ["parse", "p -> ("])
    assert code == 2
    assert out == {"status": "error", "error": "expected a formula (at position 6)"}


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["decide", "p"])
    assert exc.value.code == 2


def test_decide_theorem(capsys):
    code, out = run(
        capsys, ["decide", "(p -> q) -> (~q -> ~p)", "--logic", "copc"]
    )
    assert code == 0
    assert out == {
        "status": "theorem",
        "logic": "copc",
        "formula": "(p -> q) -> ~q -> ~p",
    }


def test_decide_refuted_with_the_separating_frame(capsys):
    code, out = run(
        capsys, ["decide", "(p -> q) -> (~q -> ~p)", "--logic", "nef"]
    )
    assert code == 1
    assert out == {
        "status": "refuted",
        "logic": "nef",
        "formula": "(p -> q) -> ~q -> ~p",
        "bound": 4,
        "model": {
            "worlds": 2,
            "leq": [[0, 0], [0, 1], [1, 1]],
            "N": {"0": 2, "2": 3, "3": 2},
            "valuation": {"p": 0, "q": 2},
        },
        "world": 0,
    }


def test_decide_is_deterministic(capsys):
    first = run(capsys, ["decide", "(p -> q) -> (~q -> ~p)", "--logic", "nef"])
    second = run(capsys, ["decide", "(p -> q) -> (~q -> ~p)", "--logic", "nef"])
    assert first == second


def test_decide_resource_limit_maps_to_error(capsys):
    code, out = run(
        capsys,
        ["decide", "((p <-> q) -> (~p <-> ~q)) & T", "--logic", "n", "--max-worlds", "3"],
    )
    assert code == 2
    assert out["status"] == "error"
    assert "above the limit of 3" in out["error"]


def test_countermodel_found(capsys):
    code, out = run(
        capsys, ["countermodel", "(p & ~p) -> ~q", "--logic", "n"]
    )
    assert code == 1
    assert out["status"] == "refuted"
    assert out["model"]["worlds"] == 1


def test_countermodel_exhausted(capsys):
    code, out = run(
        capsys,
        ["countermodel", "(p -> q) -> (~q -> ~p)", "--logic", "copc", "--max-worlds", "2"],
    )
    assert code == 0
    assert out == {
        "status": "no-countermodel-up-to-bound",
        "logic": "copc",
        "formula": "(p -> q) -> ~q -> ~p",
        "bound": 2,
    }


def test_check_frame_ok(capsys, tmp_path):
    path = write(tmp_path, "frame.json", SEPARATING_JSON)
    code, out = run(capsys, ["check-frame", path])
    assert code == 0
    assert out == {
        "status": "ok",
        "worlds": 2,
        "classes": {"n": True, "nef": True, "copc": False, "mpc": False},
    }


def test_check_frame_violation(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {"worlds": 2, "leq": [[0, 1]], "N": {"0": 0, "2": 0, "3": 3}},
    )
    code, out = run(capsys, ["check-frame", path])
    assert code == 1
    assert out == {"status": "violation", "witness": {"x": 3, "y": 2}}


def test_check_frame_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SEPARATING_JSON)))
    code, out = run(capsys, ["check-frame", "-"])
    assert code == 0
    assert out["status"] == "ok"


def test_check_frame_missing_key(capsys, tmp_path):
    path = write(tmp_path, "broken.json", {"leq": [[0, 1]]})
    code, out = run(capsys, ["check-frame", path])
    assert code == 2
    assert out == {"status": "error", "error": "missing key 'worlds'"}


def test_missing_file_maps_to_error(capsys):
    code, out = run(capsys, ["check-frame", "/no/such/file.json"])
    assert code == 2
    assert out["status"] == "error"


def test_filtrate_the_fork(capsys, tmp_path):
    path = write(tmp_path, "model.json", FORK_MODEL_JSON)
    code, out = run(capsys, ["filtrate", "--model", path, "--sigma", "~p"])
    assert code == 0
    assert out == {
        "status": "ok",
        "worlds": 2,
        "leq": [[0, 0], [0, 1], [1, 1]],
        "N": {"0": 3, "2": 3, "3": 0},
        "valuation": {"p": 2},
        "pi": [0, 1, 0],
        "sigma": ["p", "~p"],
    }


def test_filtrate_rejects_empty_sigma(capsys, tmp_path):
    path = write(tmp_path, "model.json", FORK_MODEL_JSON)
    code, out = run(capsys, ["filtrate", "--model", path, "--sigma", " ; "])
    assert code == 2
    assert out == {"status": "error", "error": "sigma holds no formula"}


def test_algebra_check_ok(capsys, tmp_path):
    path = write(tmp_path, "alg.json", algebra_to_dict(upset_algebra(SEPARATING)))
    code, out = run(capsys, ["algebra", "check", path])
    assert code == 0
    assert out == {"status": "ok", "size": 3, "subdirectly_irreducible": True}


def test_algebra_check_violation(capsys, tmp_path):
    broken = upset_algebra(
        NFrame(CHAIN, ntable_from_upset_map(CHAIN, {0: 3, 2: 3, 3: 0}))
    )
    path = write(tmp_path, "alg.json", algebra_to_dict(broken))
    code, out = run(capsys, ["algebra", "check", path])
    assert code == 1
    assert out == {"status": "violation", "law": "compatibility", "witness": [1, 2]}


def test_algebra_dual_of_the_chain_algebra(capsys, tmp_path):
    path = write(tmp_path, "alg.json", algebra_to_dict(upset_algebra(SEPARATING)))
    code, out = run(capsys, ["algebra", "dual", path])
    assert code == 0
    assert out["top"] == 2
    assert out["N"] == {"4": 6, "6": 7, "7": 6}
    assert out["worlds"] == 3


def test_algebra_dual_inverts(capsys, tmp_path):
    alg = upset_algebra(SEPARATING)
    path = write(tmp_path, "alg.json", algebra_to_dict(alg))
    _, dual = run(capsys, ["algebra", "dual", path])
    path2 = write(tmp_path, "dual.json", dual)
    code, out = run(capsys, ["algebra", "dual", path2])
    assert code == 0
    assert nalgebra_isomorphic(algebra_from_dict(out), alg)


def test_algebra_dual_of_32_elements(capsys, tmp_path):
    # the upset algebra of the 5-world antichain with empty negation
    antichain = Poset(5, tuple(1 << w for w in range(5)))
    empty = ntable_from_upset_map(antichain, dict.fromkeys(antichain.upsets(), 0))
    alg = upset_algebra(NFrame(antichain, empty))
    assert alg.size == 32
    path = write(tmp_path, "alg.json", algebra_to_dict(alg))
    code, out = run(capsys, ["algebra", "check", path])
    assert code == 0
    assert out["size"] == 32
    code, out = run(capsys, ["algebra", "dual", path])
    assert code == 0
    assert out["worlds"] == 6


def chain_algebra(size):
    """The chain 0 < 1 < ... < size - 1 with the constant-bottom
    negation: the upset algebra of a chain of size - 1 worlds whose
    negation is empty. Its size prime filters are the dual's worlds."""
    els = range(size)
    return {
        "size": size,
        "meet": [[min(x, y) for y in els] for x in els],
        "join": [[max(x, y) for y in els] for x in els],
        "imp": [[size - 1 if x <= y else y for y in els] for x in els],
        "neg": [0] * size,
        "one": size - 1,
    }


def test_algebra_dual_stops_at_the_world_cap(capsys, tmp_path):
    code, out = run(capsys, ["algebra", "dual", write(tmp_path, "21.json", chain_algebra(21))])
    assert code == 2
    assert out["status"] == "error"
    assert "21 worlds" in out["error"]
    alg = chain_algebra(20)
    code, dual = run(capsys, ["algebra", "dual", write(tmp_path, "20.json", alg)])
    assert code == 0
    assert dual["worlds"] == 20
    code, out = run(capsys, ["algebra", "dual", write(tmp_path, "dual.json", dual)])
    assert code == 0
    assert nalgebra_isomorphic(algebra_from_dict(out), algebra_from_dict(alg))


def test_algebra_check_topframe(capsys, tmp_path):
    _, dual = run(
        capsys,
        [
            "algebra",
            "dual",
            write(tmp_path, "alg.json", algebra_to_dict(upset_algebra(SEPARATING))),
        ],
    )
    code, out = run(capsys, ["algebra", "check", write(tmp_path, "tf.json", dual)])
    assert code == 0
    assert out == {"status": "ok", "worlds": 3, "top": 2}


# a top frame on the chain 0 < 1 < 2: with N({1, 2}) = {2} locality
# fails at x = {0, 1, 2}, y = {1, 2}; with N({1, 2}) = {1, 2} it holds
TOP_CHAIN = {"worlds": 3, "leq": [[0, 1], [1, 2]], "N": {"4": 4, "6": 4, "7": 7}}
LAWFUL_TOP_CHAIN = dict(TOP_CHAIN, N={"4": 4, "6": 6, "7": 7})


def test_algebra_check_topframe_violation(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TOP_CHAIN)))
    code, out = run(capsys, ["algebra", "check", "-"])
    assert code == 1
    assert out == {"status": "violation", "witness": {"x": 7, "y": 6}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LAWFUL_TOP_CHAIN)))
    code, out = run(capsys, ["algebra", "check", "-"])
    assert code == 0
    assert out == {"status": "ok", "worlds": 3, "top": 2}


@pytest.mark.parametrize(
    "argv, payload, checker, pair",
    [
        (["check-frame", "-"], SEPARATING_JSON, "check_nframe", (3, 2)),
        (["algebra", "check", "-"], LAWFUL_TOP_CHAIN, "check_topframe", (7, 6)),
    ],
    ids=["check-frame", "algebra-check-topframe"],
)
def test_a_locality_witness_is_rechecked_before_it_is_printed(capsys, monkeypatch, argv, payload, checker, pair):
    # a checker that names a pair on a lawful frame is caught, not printed
    monkeypatch.setattr(cli, checker, lambda *_: pair)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    with pytest.raises(RuntimeError, match="witness does not break the locality law"):
        main(argv)
    assert capsys.readouterr().out == ""


def test_algebra_filtrate(capsys, tmp_path):
    path = write(tmp_path, "alg.json", algebra_to_dict(upset_algebra(SEPARATING)))
    code, out = run(
        capsys,
        [
            "algebra",
            "filtrate",
            "--algebra",
            path,
            "--assign",
            '{"p": 1, "q": 2}',
            "--sigma",
            "p & q; ~p",
        ],
    )
    assert code == 0
    assert out["size"] == 2
    assert out["carrier"] == [1, 2]
    assert out["status"] == "ok"
    assert sorted(out["assign"]) == ["p", "q"]


def test_antichain_matrix(capsys):
    code, out = run(capsys, ["antichain", "--max-n", "1"])
    assert code == 0
    assert out == {
        "status": "ok",
        "indices": [0, 1],
        "onto": [[True, False], [False, True]],
        "positive": [[True, False], [False, True]],
    }


def test_antichain_caps_max_n(capsys, monkeypatch):
    monkeypatch.setattr("subminimal.antichain.ANTICHAIN_MAX_N", 1)
    code, out = run(capsys, ["antichain", "--max-n", "2"])
    assert code == 2
    assert out["status"] == "error"
    assert "cap of 1" in out["error"]
    code, out = run(capsys, ["antichain", "--max-n", "1"])
    assert code == 0
    assert out["indices"] == [0, 1]


def test_antichain_rejects_negative(capsys):
    code, out = run(capsys, ["antichain", "--max-n", "-1"])
    assert code == 2
    assert out == {"status": "error", "error": "--max-n must be nonnegative"}


def test_translate(capsys):
    code, out = run(capsys, ["translate", "~p"])
    assert code == 0
    assert out == {"status": "ok", "source": "~p", "translation": "[n][]p"}


def test_ns4_valid_default_axioms(capsys, tmp_path):
    path = write(tmp_path, "frame.json", HAND_NS4_JSON)
    code, out = run(capsys, ["ns4", "valid", "--frame", path])
    assert code == 0
    assert out == {
        "status": "ok",
        "checked": ["K", "T", "4", "bbox-cong", "bbox-persist"],
    }


def test_ns4_valid_refutes_bbox_reflexivity(capsys, tmp_path):
    path = write(tmp_path, "frame.json", HAND_NS4_JSON)
    code, out = run(capsys, ["ns4", "valid", "--frame", path, "[n]p -> p"])
    assert code == 1
    assert out == {
        "status": "refuted",
        "formula": "[n]p -> p",
        "valuation": {"p": 0},
        "world": 1,
    }


def test_ns4_valid_flags_unlawful_frame(capsys, tmp_path):
    path = write(
        tmp_path,
        "frame.json",
        {
            "worlds": 2,
            "rel": [[0, 1], [1, 0]],
            "N": {"0": 0, "1": 2, "2": 0, "3": 0},
        },
    )
    code, out = run(capsys, ["ns4", "valid", "--frame", path])
    assert code == 1
    assert out == {"status": "violation", "condition": "value", "witness": 1}


@pytest.mark.parametrize(
    "name,system,lines",
    [
        ("proof_cong.json", "ns4", 9),
        ("proof_rule1.json", "ns4", 12),
        ("proof_contra.json", "cos4", 9),
    ],
)
def test_ns4_check_proof_fixtures(capsys, name, system, lines):
    from conftest import DATA

    code, out = run(
        capsys, ["ns4", "check-proof", str(DATA / name), "--system", system]
    )
    assert code == 0
    assert out == {"status": "ok", "system": system, "lines": lines}


def test_ns4_check_proof_wrong_system(capsys):
    from conftest import DATA

    code, out = run(
        capsys,
        ["ns4", "check-proof", str(DATA / "proof_contra.json"), "--system", "ns4"],
    )
    assert code == 1
    assert out == {
        "status": "violation",
        "line": 0,
        "reason": "rule 'bbox-contra' is not available in ns4",
    }


def test_ns4_en_and_rn(capsys, tmp_path):
    swap = write(tmp_path, "swap.json", SWAP_JSON)
    for sub in ("en", "rn"):
        code, out = run(capsys, ["ns4", sub, "--frame", swap, "-k", "1"])
        assert code == 0
        assert out == {"status": "ok", "k": 1, "holds": True}
    broken = write(
        tmp_path,
        "broken.json",
        {"worlds": 2, "N": {"0": 1, "1": 3, "2": 0, "3": 0}},
    )
    for sub in ("en", "rn"):
        code, out = run(capsys, ["ns4", sub, "--frame", broken, "-k", "1"])
        assert code == 1
        assert out == {"status": "violation", "k": 1, "holds": False}


ALGEBRA_FILTRATE = ["algebra", "filtrate", "--algebra", "-", "--sigma", "p", "--assign"]
LAWLESS_CHAIN_ALGEBRA = copy.deepcopy(CHAIN_ALGEBRA)
LAWLESS_CHAIN_ALGEBRA["meet"][1][2] = 0  # algebra check: top fails at [1]
FLOAT_MEET_ALGEBRA = copy.deepcopy(CHAIN_ALGEBRA)
FLOAT_MEET_ALGEBRA["meet"][2][2] = 2.0


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check-frame", "-"], "[]"),
        (["algebra", "check", "-"], "[]"),
        (["algebra", "dual", "-"], "[]"),
        (["ns4", "en", "--frame", "-", "-k", "1"], '{"worlds": 1, "N": [0, 0]}'),
        (["ns4", "check-proof", "-", "--system", "ns4"], "[1, 2]"),
        (["check-frame", "-"], '{"worlds": 1, "leq": 5, "N": {"0": 0, "1": 0}}'),
        (["ns4", "valid", "--frame", "-", "p"], '{"worlds": 1, "rel": 5, "N": {"0": 0, "1": 1}}'),
        (
            ["filtrate", "--model", "-", "--sigma", "p"],
            '{"worlds": 1, "leq": [], "N": {"0": 0, "1": 0}, "valuation": []}',
        ),
        (
            ["algebra", "check", "-"],
            '{"size": 2, "meet": 5, "join": [[0, 1], [1, 1]], "imp": [[1, 1], [0, 1]],'
            ' "neg": [1, 0], "one": 1}',
        ),
        (["check-frame", "-"], '{"worlds": 2, "leq": [[null, 0]], "N": {}}'),
        (["check-frame", "-"], '{"worlds": 2, "leq": [[[1], 0]], "N": {}}'),
        (["check-frame", "-"], '{"worlds": 1, "leq": [], "N": {"0": null, "1": 0}}'),
        (
            ["filtrate", "--model", "-", "--sigma", "p"],
            '{"worlds": 1, "leq": [], "N": {"0": 0, "1": 0}, "valuation": {"p": null}}',
        ),
        (
            ["algebra", "check", "-"],
            '{"size": null, "meet": [[0]], "join": [[0]], "imp": [[0]], "neg": [0], "one": 0}',
        ),
        (["check-frame", "-"], '{"worlds": 21, "leq": [], "N": {}}'),
        (["check-frame", "-"], '{"worlds": 40, "leq": [], "N": {}}'),
        (ALGEBRA_FILTRATE + ['{"p": 7}'], json.dumps(CHAIN_ALGEBRA)),
        (ALGEBRA_FILTRATE + ['{"p": -1}'], json.dumps(CHAIN_ALGEBRA)),
        (ALGEBRA_FILTRATE + ['{"p": 1}'], json.dumps(LAWLESS_CHAIN_ALGEBRA)),
        # negation tables off their frame kind's domain
        (["check-frame", "-"], '{"worlds": 2, "leq": [[0, 1]], "N": {"0": 2, "2": 3}}'),
        (
            ["filtrate", "--model", "-", "--sigma", "p"],
            '{"worlds": 2, "leq": [[0, 1]], "N": {"0": 2, "1": 0, "2": 3, "3": 2},'
            ' "valuation": {"p": 2}}',
        ),
        (["algebra", "dual", "-"], '{"worlds": 2, "leq": [[0, 1]], "N": {"2": 2, "3": 6}}'),
        (
            ["ns4", "valid", "--frame", "-", "p"],
            '{"worlds": 2, "rel": [], "N": {"0": 0, "1": 0, "2": 0, "3": 0, "4": 0}}',
        ),
        (["ns4", "rn", "--frame", "-", "-k", "1"], '{"worlds": 2, "N": {"0": 3, "1": 2, "2": 1}}'),
        # a float or a boolean where a JSON integer belongs; read
        # through int(), each would be a well-formed document
        (["check-frame", "-"], '{"worlds": true, "N": {"0": 0, "1": 0}}'),
        (["check-frame", "-"], '{"worlds": 2, "leq": [[0, 1]], "N": {"0": 2, "2": 2.9, "3": 2}}'),
        (["check-frame", "-"], '{"worlds": 2, "leq": [[0, 1.7]], "N": {"0": 2, "2": 3, "3": 2}}'),
        (
            ["filtrate", "--model", "-", "--sigma", "p"],
            '{"worlds": 1, "leq": [], "N": {"0": 0, "1": 0}, "valuation": {"p": true}}',
        ),
        (
            ["ns4", "valid", "--frame", "-"],
            '{"worlds": 2, "rel": [[0, 0], [1, true]], "N": {"0": 2, "1": 2, "2": 2, "3": 2}}',
        ),
        (["algebra", "check", "-"], json.dumps(dict(CHAIN_ALGEBRA, size=3.0))),
        (["algebra", "check", "-"], json.dumps(dict(CHAIN_ALGEBRA, one=2.0))),
        (["algebra", "check", "-"], json.dumps(dict(CHAIN_ALGEBRA, neg=[1, 2.0, 1]))),
        (["algebra", "check", "-"], json.dumps(FLOAT_MEET_ALGEBRA)),
        (ALGEBRA_FILTRATE + ['{"p": true}'], json.dumps(CHAIN_ALGEBRA)),
        (
            ["ns4", "check-proof", "-", "--system", "ns4"],
            '[{"formula": "p -> p", "rule": "taut", "refs": []},'
            ' {"formula": "[](p -> p)", "rule": "Nec", "refs": [0.0]}]',
        ),
    ],
    ids=[
        "check-frame",
        "algebra-check",
        "algebra-dual",
        "ns4-en",
        "ns4-check-proof",
        "check-frame-leq",
        "ns4-valid-rel",
        "filtrate-valuation",
        "algebra-check-meet",
        "check-frame-leq-null",
        "check-frame-leq-list",
        "check-frame-N-null",
        "filtrate-valuation-null",
        "algebra-check-size-null",
        "check-frame-21-worlds",
        "check-frame-40-worlds",
        "algebra-filtrate-assign-too-large",
        "algebra-filtrate-assign-negative",
        "algebra-filtrate-lawless-meet",
        "check-frame-N-misses-upset",
        "filtrate-N-at-non-upset",
        "algebra-dual-N-value-out-of-range",
        "ns4-valid-N-key-out-of-range",
        "ns4-rn-N-misses-subset",
        "check-frame-worlds-bool",
        "check-frame-N-value-float",
        "check-frame-leq-float",
        "filtrate-valuation-bool",
        "ns4-valid-rel-bool",
        "algebra-check-size-float",
        "algebra-check-one-float",
        "algebra-check-neg-float",
        "algebra-check-meet-float",
        "algebra-filtrate-assign-bool",
        "ns4-check-proof-refs-float",
    ],
)
def test_malformed_json_shape_exits_2(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run(capsys, argv)
    assert code == 2
    assert out["status"] == "error"


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (ALGEBRA_FILTRATE + ["[1]"], json.dumps(CHAIN_ALGEBRA), "--assign must be a JSON object"),
        (
            ["ns4", "check-proof", "-", "--system", "ns4"],
            '{"lines": []}',
            "proof JSON must be a list of lines",
        ),
        (
            ["ns4", "check-proof", "-", "--system", "ns4"],
            '[{"formula": "p", "rule": 5}]',
            "rule of proof line 0 must be a string",
        ),
        (
            ["ns4", "check-proof", "-", "--system", "ns4"],
            '[{"formula": "p -> p", "rule": "taut"}, {"formula": "p", "rule": ["x"]}]',
            "rule of proof line 1 must be a string",
        ),
    ],
    ids=[
        "algebra-filtrate-assign-list",
        "ns4-check-proof-object",
        "ns4-check-proof-rule-int",
        "ns4-check-proof-rule-list",
    ],
)
def test_input_checks_exit_2_with_their_message(capsys, monkeypatch, argv, text, error):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run(capsys, argv)
    assert code == 2
    assert out == {"status": "error", "error": error}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
FUZZ_CASES = {
    "check-frame": (["check-frame", "-"], SEPARATING_JSON),
    "filtrate": (["filtrate", "--model", "-", "--sigma", "~p"], FORK_MODEL_JSON),
    "algebra-check": (["algebra", "check", "-"], CHAIN_ALGEBRA),
    "algebra-dual": (["algebra", "dual", "-"], CHAIN_ALGEBRA),
    "algebra-filtrate": (ALGEBRA_FILTRATE + ['{"p": 1}'], CHAIN_ALGEBRA),
    "ns4-valid": (["ns4", "valid", "--frame", "-"], HAND_NS4_JSON),
    "ns4-en": (["ns4", "en", "--frame", "-", "-k", "2"], SWAP_JSON),
    "ns4-rn": (["ns4", "rn", "--frame", "-", "-k", "2"], SWAP_JSON),
    "ns4-check-proof": (
        ["ns4", "check-proof", "-", "--system", "ns4"],
        [
            {"formula": "p -> p", "rule": "taut", "refs": []},
            {"formula": "[](p -> p)", "rule": "Nec", "refs": [0]},
        ],
    ),
}


def _members(doc, path=()):
    """Paths to every member of a JSON document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _members(value, path + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_json_readers_keep_the_exit_code_contract(case, data):
    """One member of a valid document replaced by any JSON value: the
    exit code is 0, 1 or 2, 1 only with a refutation or violation, and
    stdout is exactly one JSON document."""
    argv, doc = FUZZ_CASES[case]
    path = data.draw(st.sampled_from(list(_members(doc))), label="member")
    text = json.dumps(_replaced(doc, path, data.draw(JSON_VALUES, label="value")))
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out):
        code = main(argv)
    payload = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    if code == 1:
        assert payload["status"] in ("refuted", "violation")


SEARCH_FORMULAS = (
    "p",
    "p -> p",
    "(p & ~p) -> ~q",
    "(p -> q) -> (~q -> ~p)",
    "~(p & q) -> ~p",
    "p -> (",
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(("decide", "countermodel")),
    formula=st.sampled_from(SEARCH_FORMULAS),
    logic=st.sampled_from(("n", "nef", "copc", "mpc")),
    max_worlds=st.integers(-2, 3),
    timeout_ms=st.none() | st.integers(-5, 5) | st.just(60_000),
)
def test_search_arguments_keep_the_exit_code_contract(
    command, formula, logic, max_worlds, timeout_ms
):
    """Any world bound up to 3, zero and negative ones too, and any
    timeout, expired ones too: the exit code is 0, 1 or 2, 1 only with
    a refutation, and stdout is exactly one JSON document."""
    argv = [command, formula, "--logic", logic, "--max-worlds", str(max_worlds)]
    if timeout_ms is not None:
        argv += ["--timeout-ms", str(timeout_ms)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    payload = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    assert (code == 1) == (payload["status"] == "refuted")
    assert (code == 2) == (payload["status"] == "error")


@pytest.mark.parametrize("command", ["decide", "countermodel"])
def test_a_timeout_too_large_for_a_float_exits_2(capsys, command):
    argv = [command, "p -> p", "--logic", "n", "--timeout-ms", "1" + "0" * 400]
    code, out = run(capsys, argv)
    assert code == 2
    assert out == {"status": "error", "error": "timeout too large for a float"}


@pytest.mark.parametrize("command", ["decide", "countermodel"])
def test_search_stops_at_the_world_cap(capsys, monkeypatch, command):
    # with the cap at 2 worlds a bound of 9 would otherwise build the
    # classes of 3 to 9 worlds; a refutation found below the cap keeps
    # its answer, and a search that would pass the cap exits 2
    monkeypatch.setattr(frames, "SEARCH_MAX_WORLDS", 2)
    code, out = run(capsys, [command, "p", "--logic", "nef", "--max-worlds", "9"])
    assert code == 1 and out["model"]["worlds"] == 1
    code, out = run(capsys, [command, "p -> p", "--logic", "nef", "--max-worlds", "2"])
    assert code == 0 and out["status"] == "no-countermodel-up-to-bound"
    code, out = run(capsys, [command, "p -> p", "--logic", "nef", "--max-worlds", "9"])
    assert code == 2 and "no countermodel up to 2 worlds" in out["error"]


DEEP_NEG = "~" * 3000 + "p"
DEEP_PARENS = "(" * 600 + "p" + ")" * 600
DEEP_JSON = "[" * 100_000 + "]" * 100_000
NESTED_TOO_DEEPLY = (2, {"status": "error", "error": "input nested too deeply"})


# Formula text of any depth gets its answer, since the parser is a loop;
# only JSON nested past the standard decoder's limit still exits 2. The
# test keeps its name, from when every case here exited 2.
@pytest.mark.parametrize(
    "argv, stdin, want",
    [
        (["parse", DEEP_NEG], None, (0, {"status": "ok", "depth": 3000, "formula": DEEP_NEG})),
        (["decide", DEEP_PARENS, "--logic", "n"], None, (1, {"status": "refuted", "formula": "p", "world": 0})),
        (["countermodel", DEEP_NEG, "--logic", "n"], None, (1, {"status": "refuted", "formula": DEEP_NEG})),
        (["translate", DEEP_NEG], None, (0, {"status": "ok", "translation": "[n]" * 3000 + "[]p"})),
        (
            ["ns4", "valid", "--frame", "-", "[n]" * 3000 + "p"],
            json.dumps(HAND_NS4_JSON),
            (1, {"status": "refuted", "valuation": {"p": 0}, "world": 0}),
        ),
        (
            ["ns4", "check-proof", "-", "--system", "ns4"],
            json.dumps([{"formula": DEEP_PARENS, "rule": "taut", "refs": []}]),
            (1, {"status": "violation", "line": 0, "reason": "not a tautology under modal abstraction"}),
        ),
        (["check-frame", "-"], DEEP_JSON, NESTED_TOO_DEEPLY),
        (["algebra", "check", "-"], DEEP_JSON, NESTED_TOO_DEEPLY),
    ],
    ids=["parse", "decide", "countermodel", "translate", "ns4-valid", "ns4-check-proof", "json-frame", "json-algebra"],
)
def test_deep_nesting_exits_2(capsys, monkeypatch, argv, stdin, want):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out = run(capsys, argv)
    assert code == want[0]
    assert {k: out.get(k) for k in want[1]} == want[1]


# a flat chain of conjunctions, as the parser reads it: in one loop
FLAT = " & ".join(["p"] * 10_000)


def test_flat_conjunctions_of_any_length_pass(capsys, monkeypatch):
    # the parser and every walk after it take any length and depth
    code, out = run(capsys, ["parse", FLAT])
    assert code == 0 and out["formula"] == FLAT and out["depth"] == 9_999
    checked = []
    assert_refutes = cli._assert_refutes
    monkeypatch.setattr(cli, "_assert_refutes", lambda *a: checked.append(assert_refutes(*a)))
    code, out = run(capsys, ["decide", FLAT, "--logic", "n"])
    assert code == 1 and out["status"] == "refuted" and checked == [None]
    assert out["formula"] == FLAT
    code, out = run(capsys, ["translate", FLAT])
    assert code == 0 and out["translation"] == " & ".join(["[]p"] * 10_000)


def test_an_axiom_instance_over_a_long_chain_is_a_theorem(capsys):
    chain = " & ".join(["p", "q"] * 2_500)
    code, out = run(capsys, ["decide", f"(({chain}) & ~({chain})) -> ~q", "--logic", "nef"])
    assert code == 0 and out["status"] == "theorem"


def test_pretty_prints_indented(capsys):
    code = main(["translate", "~p", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n  ")
    assert json.loads(out)["translation"] == "[n][]p"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "subminimal.cli", "translate", "~p"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["translation"] == "[n][]p"


def test_closed_stdout_keeps_the_verdict_in_process(monkeypatch):
    # a pipe whose read end is closed: the print raises BrokenPipeError,
    # main returns the verdict's code, and stdout then writes to devnull
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["decide", "p -> p", "--logic", "n"]) == 0
        assert main(["countermodel", "p | ~p", "--logic", "n", "--max-worlds", "3"]) == 1
        closed.write("after\n")
        closed.flush()


@pytest.mark.parametrize(
    "launcher, argv, code",
    [
        (launcher, argv, code)
        for launcher in (["-m", "subminimal.cli"], ["-c", ENTRY])
        for argv, code in [
            (["decide", "p -> p", "--logic", "n"], 0),
            (["countermodel", "p | ~p", "--logic", "n"], 1),
        ]
    ],
    ids=["theorem", "refuted", "entry-theorem", "entry-refuted"],
)
def test_closed_stdout_keeps_the_exit_code(launcher, argv, code):
    # through python -m and through the console entry; the read end of
    # stdout's pipe is closed before the child starts, and the child's
    # stdout is buffered, as by default, so that output still in the
    # buffer fails the flush at exit (exit code 120)
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, *launcher, *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(env, PYTHONPATH=SRC),
        )
    finally:
        os.close(write)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_filtrate_missing_variable_error_is_the_same_under_every_hash_seed(tmp_path):
    model = write(tmp_path, "m.json", {"worlds": 1, "N": {"0": 0, "1": 1}, "valuation": {"p": 1}})
    argv = [sys.executable, "-m", "subminimal.cli", "filtrate", "--model", model, "--sigma", "q & r"]
    results = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        results.add((proc.returncode, proc.stdout))
    assert len(results) == 1
    code, out = results.pop()
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "model does not value variable q"}


def _stdout_under_seeds(argv, seeds):
    """The (exit code, stdout) pairs of the CLI run under each hash seed."""
    results = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "subminimal.cli", *argv], capture_output=True, text=True, env=env)
        results.add((proc.returncode, proc.stdout))
    return results


def test_algebra_filtrate_missing_variable_error_is_the_same_under_every_hash_seed(tmp_path):
    # three members of Sigma miss a variable; the first in the order written is named
    algebra = write(tmp_path, "a.json", algebra_to_dict(algebra_corpus(2)[3]))
    argv = ["algebra", "filtrate", "--algebra", algebra, "--assign", '{"p": 1}', "--sigma", "q & r; s"]
    ((code, out),) = _stdout_under_seeds(argv, range(8))
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "assignment misses variable q"}


def test_algebra_filtrate_names_the_first_member_missing_a_variable_as_written(tmp_path):
    # s is written first, so it is named, though q comes before it by show
    algebra = write(tmp_path, "a.json", algebra_to_dict(algebra_corpus(2)[3]))
    argv = ["algebra", "filtrate", "--algebra", algebra, "--assign", '{"p": 1}', "--sigma", "s; q & r"]
    ((code, out),) = _stdout_under_seeds(argv, range(4))
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "assignment misses variable s"}


def test_outputs_read_off_a_set_of_formulas_are_the_same_under_every_hash_seed(tmp_path):
    # a formula hashes by identity, so a set of formulas iterates in an
    # order that can change from run to run: no output may follow it
    model = write(tmp_path, "m.json", dict(FORK_MODEL_JSON, valuation={"p": 2, "q": 4}))
    algebra = write(tmp_path, "a.json", CHAIN_ALGEBRA)
    runs = [
        (["filtrate", "--model", model, "--sigma", "~p -> ~~q; ~(p & ~q) | q; p -> q"], 0),
        (["countermodel", "(p -> q) -> (~q -> ~p)", "--logic", "n"], 1),
        (["algebra", "filtrate", "--algebra", algebra, "--assign", '{"p": 1, "q": 2}', "--sigma", "p & q; ~p; q -> ~p"], 0),
    ]
    for argv, want in runs:
        ((code, out),) = _stdout_under_seeds(argv, range(4))
        assert code == want and json.loads(out)["status"] in ("ok", "refuted")


# ---------------------------------------------------------------------------
# dispatch: a command's own parser against the full parser


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


PARSER_PATHS = [(name,) for name in cli._COMMANDS] + [
    (name, sub)
    for name, (_, dest, table) in cli._COMMANDS.items()
    if isinstance(dest, str)
    for sub in table
]


@pytest.mark.parametrize("path", PARSER_PATHS, ids=" ".join)
def test_a_commands_own_parser_is_the_full_parsers_subparser(path):
    own = cli._command_parser(path[0])
    full = _subcommands(cli._build_parser())[path[0]]
    for name in path[1:]:
        own, full = _subcommands(own)[name], _subcommands(full)[name]
    assert own.prog == full.prog
    assert own.format_help() == full.format_help()


DISPATCH_CORPUS = [
    # valid calls of each command
    "parse '(p <-> q) -> (~p <-> ~q)'",
    "parse '[n] [] p' --language modal",
    "decide '(p -> q) -> (~q -> ~p)' --logic copc",
    "decide 'p | ~p' --logic n --max-worlds 2 --timeout-ms 60000",
    "countermodel '(p & ~p) -> ~q' --logic n --pretty",
    "check-frame {frame}",
    "filtrate --model {model} --sigma 'p; ~p'",
    "algebra dual {algebra}",
    "algebra check {algebra}",
    "algebra filtrate --algebra {algebra} --assign '{{\"p\": 1}}' --sigma '~p'",
    "antichain --max-n 1",
    "translate '~(p & q)'",
    "ns4 valid --frame {ns4} '[n]p -> p'",
    "ns4 check-proof {proof} --system ns4",
    "ns4 en --frame {table} -k 1",
    "ns4 rn --frame {table} -k 1",
    # --opt=value and abbreviated options
    "decide p --logic=nef --max 1",
    "countermodel p --log mpc --max-worlds=1 --pre",
    "antichain --max-n=0",
    "ns4 en --frame={table} -k1",
    # missing required argument, bad choice, bad int
    "decide p",
    "filtrate --model {model}",
    "decide p --logic lj",
    "countermodel p --logic n --max-worlds three",
    "antichain --max-n x",
    # extra positional, unknown option
    "decide p q --logic n",
    "decide p --logic n --bogus",
    "translate p --bogus=1 q",
    "algebra check {algebra} --pretty --bogus",
    # help per command and at the top
    "-h",
    "--help",
    "parse -h",
    "decide -h",
    "countermodel --help",
    "check-frame -h",
    "filtrate -h",
    "algebra -h",
    "algebra dual -h",
    "algebra check -h",
    "algebra filtrate -h",
    "antichain -h",
    "translate -h",
    "ns4 -h",
    "ns4 valid -h",
    "ns4 check-proof -h",
    "ns4 en -h",
    "ns4 rn -h",
    "decide p --logic n -h --bogus",
    # no command, an unknown one, an option before the command
    "",
    "frobnicate",
    "--pretty decide p --logic n",
    "--bogus",
    # groups with no subcommand, ns4 en with no -k
    "algebra",
    "ns4",
    "algebra frobnicate",
    "ns4 en --frame {table}",
    # input errors after a clean parse
    "decide 'p -> (' --logic n",
    "decide 'p -> p' --logic n --timeout-ms 1{zeros}",
    # the edges of a plain argv: --opt=value and --opt=, a repeated
    # option, a dash-led value, a lone "-", "--", an empty formula, an
    # option string as a value, a store_true given a value
    "decide p --logic=n",
    "decide p --logic=",
    "decide p --logic n --max-worlds=",
    "decide p --logic n --logic nef --max-worlds 1",
    "decide p --logic n --max-worlds -1",
    "filtrate --model {model} --sigma --pretty",
    "filtrate --model {model} --sigma -p",
    "decide p --logic n --timeout-ms=-1",
    "countermodel p --logic n -1",
    "decide - --logic n",
    "decide p --logic n -",
    "decide -- p --logic n",
    "decide p --logic n --",
    "decide '' --logic n",
    "decide --logic --pretty p",
    "countermodel p --logic n --max-worlds --pretty",
    "decide p --logic n --pretty=1",
    "decide '~p -> p' --logic nef --pretty --pretty",
    "countermodel '~~p -> p' --max-worlds=2 --logic=copc",
    "parse '~p' --language=modal",
    "antichain --max-n 1 --max-n 0",
    "filtrate --sigma=p --model={model}",
    "translate -h p",
]


class _FullParse:
    """Stands in for every command's own parser: parses the whole argv
    with the full parser, as main did before commands had their own."""

    def __init__(self, argv):
        self.argv = argv

    def parse_known_args(self, rest):
        return cli._build_parser().parse_args(self.argv), []


def _outcome(argv):
    """Exit code, returned or raised, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    from conftest import DATA

    root = tmp_path_factory.mktemp("dispatch")
    docs = {
        "frame": SEPARATING_JSON,
        "model": FORK_MODEL_JSON,
        "algebra": CHAIN_ALGEBRA,
        "ns4": HAND_NS4_JSON,
        "table": SWAP_JSON,
    }
    paths = {name: write(root, f"{name}.json", doc) for name, doc in docs.items()}
    return dict(paths, proof=str(DATA / "proof_cong.json"), zeros="0" * 400)


@pytest.mark.parametrize("line", DISPATCH_CORPUS)
def test_main_answers_as_the_full_parser_did(input_files, line):
    argv = [word.format(**input_files) for word in shlex.split(line)]
    own = _outcome(argv)
    with mock.patch.object(cli, "_command_parser", lambda name: _FullParse(argv)):
        full = _outcome(argv)
    assert own == full


def test_a_command_call_builds_only_its_own_parser(capsys):
    cli._build_parser.cache_clear()
    assert main(["decide", "p -> p", "--logic", "n"]) == 0
    assert main(["countermodel", "p", "--logic", "n", "--max-worlds", "1"]) == 1
    assert cli._build_parser.cache_info().currsize == 0
    # a missing argument is the command parser's own error
    with pytest.raises(SystemExit):
        main(["decide", "p"])
    assert cli._build_parser.cache_info().currsize == 0
    for argv in (["decide", "p", "--logic", "n", "--bogus"], ["frobnicate"], ["-h"]):
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert cli._build_parser.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# the plain read of a command's own parser against argparse's parse

ARGPARSE_PARSE = argparse.ArgumentParser.parse_known_args
# what a command's argv needs to parse at all, then what it may add;
# the groups' parsers never read an argv themselves
REQUIRED = {
    "parse": [["~p"]],
    "decide": [["~p -> p"], ["--logic", "nef"]],
    "countermodel": [["p"], ["--logic", "n"]],
    "check-frame": [["-"]],
    "filtrate": [["--model", "-"], ["--sigma", "p"]],
    "antichain": [["--max-n", "1"]],
    "translate": [["~~p"]],
    "algebra": [["check"], ["-"]],
    "ns4": [["en"], ["--frame", "-"], ["-k", "1"]],
}
SEARCH_OPTIONS = [
    ["--logic", "copc"], ["--logic=mpc"], ["--max-worlds", "2"], ["--max-worlds=-1"],
    ["--timeout-ms", "7"], ["--timeout-ms="], ["--max-worlds", "-1"], ["--logic", "-"],
]
OPTIONAL = {
    "parse": [["--language", "modal"], ["--language=prop"], ["--language="]],
    "decide": SEARCH_OPTIONS,
    "countermodel": SEARCH_OPTIONS,
    "check-frame": [],
    "filtrate": [
        ["--model=m.json"], ["--sigma", "~p; p"], ["--sigma=-p"], ["--sigma="], ["--sigma", "-p"],
        ["--model", "--pretty"], ["--model", "-"],
    ],
    "antichain": [["--max-n", "0"], ["--max-n=-2"]],
    "translate": [],
    "algebra": [["--pretty"]],
    "ns4": [["--frame", "f.json"], ["-k", "2"], ["-k=2"]],
}
OPTIONS = [
    "--logic", "--max-worlds", "--timeout-ms", "--pretty", "--language",
    "--model", "--sigma", "--max-n", "--frame", "-k", "--log", "--max",
    "--pre", "--lang", "--time", "--mod", "--sig", "--help", "-h",
]
VALUES = [
    "n", "nef", "copc", "mpc", "lj", "0", "2", "x", "prop", "modal", "ns4",
    "p", "~p", "~(p & q) -> ~q", "-", "--", "-1", "", "p q", "check", "en",
    "decide", "algebra",
]
TOKENS = st.sampled_from(
    OPTIONS + VALUES + [f"{o}={v}" for o in OPTIONS[:9] for v in ("", "n", "1", "-1", "p")]
)
NOISE = st.one_of(TOKENS.map(lambda t: [t]), st.tuples(st.sampled_from(OPTIONS), TOKENS).map(list))


def _items(command):
    """Extra argv items for a command: its own options, each with a
    value or none, and in half the draws any token or pair too."""
    own = st.sampled_from(OPTIONAL[command] + [["--pretty"]])
    return st.lists(own, max_size=4) | st.lists(own | NOISE, max_size=4)


def _argparse_spy():
    """argparse's own parse_known_args, patched to record its calls."""
    return mock.patch.object(
        argparse.ArgumentParser, "parse_known_args", autospec=True, side_effect=ARGPARSE_PARSE
    )


def _parsed(parse, parser, argv):
    """parse(parser, argv), or None when it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return parse(parser, argv)
        except SystemExit:
            return None


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(REQUIRED)), data=st.data())
def test_a_plain_read_is_argparses_read(command, data):
    """Whenever a command's parser reads an argv without argparse, its
    namespace is argparse's and argparse leaves no extras."""
    items = REQUIRED[command] + data.draw(_items(command), label="more")
    if data.draw(st.booleans(), label="drop a required item"):
        del items[data.draw(st.sampled_from(range(len(REQUIRED[command]))))]
    argv = [token for item in data.draw(st.permutations(items)) for token in item]
    parser = cli._command_parser(command)
    with _argparse_spy() as spy:
        got = _parsed(type(parser).parse_known_args, parser, argv)
    want = _parsed(ARGPARSE_PARSE, parser, argv)
    if not spy.called:
        assert want is not None and want[1] == []
        assert vars(got[0]) == vars(want[0]) and got[1] == []


@pytest.mark.parametrize(
    "line",
    [
        "decide 'p -> p' --logic nef --max-worlds 3",
        "countermodel 'p | ~p' --logic=n --max-worlds 3",
        "decide '~(p & q) -> ~q' --pretty --max-worlds=2 --logic copc --timeout-ms 9",
        "countermodel p --logic mpc --logic nef",
        "parse '~p' --language modal",
        "translate '~p'",
        "antichain --max-n=0",
    ],
)
def test_a_plain_call_skips_argparse(line):
    with _argparse_spy() as spy:
        code, out, err = _outcome(shlex.split(line))
    assert code in (0, 1) and err == "" and json.loads(out)["status"] != "error"
    assert not spy.called


@pytest.mark.parametrize(
    "line",
    [
        "decide -h",
        "decide p --log n",
        "decide p --logic n --max-worlds -1",
        "decide p",
        "decide p --logic n --bogus",
        "algebra check -",
    ],
)
def test_any_other_call_reaches_argparse(line):
    with _argparse_spy() as spy:
        _outcome(shlex.split(line))
    assert spy.called
