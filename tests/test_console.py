"""Usage paths through main(None), the branch the console script runs.

Each case starts a fresh interpreter that calls
``sys.exit(main())`` with no arguments, as the installed ``subminimal``
script does, so main reads sys.argv: a command's own parser answers
help and its missing arguments, the full parser leftover arguments and
an unknown command, a timeout too large for a float is an input error,
and a plain argv is read without argparse. The last cases reach the
filtration layer, the modal kernel and the box translation, with the
hand-made inputs of test_cli.py on stdin, and the two five-world
countermodel searches run the real kernel over every rooted 5-world
class.
"""

import json
import os
import subprocess
import sys

from test_cli import CHAIN_ALGEBRA, ENTRY, FORK_MODEL_JSON, HAND_NS4_JSON, LAWLESS_CHAIN_ALGEBRA, SRC


def console(*argv, stdin=None):
    """Exit code, stdout and stderr of the console entry on argv, with
    the JSON value stdin, if given, on its standard input."""
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *argv],
        input=None if stdin is None else json.dumps(stdin),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_command_help():
    code, out, _ = console("decide", "--help")
    assert code == 0
    assert out.startswith("usage: subminimal decide")


def test_missing_required_option():
    code, _, err = console("decide", "p")
    assert code == 2
    assert "--logic" in err


def test_leftover_argument():
    code, _, err = console("decide", "p", "--logic", "n", "--bogus")
    assert code == 2
    assert "subminimal: error: unrecognized arguments: --bogus" in err.splitlines()


def test_unknown_command():
    code, _, _ = console("frobnicate")
    assert code == 2


def test_timeout_too_large_for_a_float():
    code, out, err = console("decide", "p -> p", "--logic", "n", "--timeout-ms", "1" + "0" * 400)
    assert code == 2
    assert json.loads(out)["status"] == "error"
    assert "Traceback" not in err


def test_plain_argv_with_an_equals_sign():
    code, out, err = console("decide", "p -> p", "--logic=n")
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "theorem"


def test_plain_argv_with_a_world_bound():
    code, out, err = console("countermodel", "p | ~p", "--logic", "n", "--max-worlds", "2")
    assert (code, err) == (1, "")
    assert json.loads(out)["status"] == "refuted"
    assert json.loads(out)["bound"] == 2


def test_filtrate_the_fork():
    # the greatest filtration of tests/test_cli.py's fork model through
    # the closure of ~p merges the worlds where p fails
    code, out, err = console("filtrate", "--model", "-", "--sigma", "~p", stdin=FORK_MODEL_JSON)
    assert (code, err) == (0, "")
    out = json.loads(out)
    assert out["pi"] == [0, 1, 0]
    assert out["worlds"] == 2
    assert out["N"] == {"0": 3, "2": 3, "3": 0}


def test_filtrate_through_a_variable_the_model_leaves_out():
    code, out, err = console("filtrate", "--model", "-", "--sigma", "q & ~p", stdin=FORK_MODEL_JSON)
    assert code == 2
    assert "model does not value variable q" in json.loads(out)["error"]
    assert "Traceback" not in err


# the hand frame of tests/test_cli.py validates the five NS4 axioms and
# refutes [n]p -> p at world 1 with p empty


def test_ns4_axioms_hold_on_the_hand_frame():
    code, _, _ = console("ns4", "valid", "--frame", "-", stdin=HAND_NS4_JSON)
    assert code == 0


def test_ns4_valid_checks_the_five_axioms_in_order():
    _, out, _ = console("ns4", "valid", "--frame", "-", stdin=HAND_NS4_JSON)
    assert json.loads(out)["checked"] == ["K", "T", "4", "bbox-cong", "bbox-persist"]


def test_ns4_valid_refutes_a_formula_on_the_hand_frame():
    code, _, _ = console("ns4", "valid", "--frame", "-", "[n]p -> p", stdin=HAND_NS4_JSON)
    assert code == 1


def test_ns4_valid_names_the_refuting_valuation_and_world():
    _, out, _ = console("ns4", "valid", "--frame", "-", "[n]p -> p", stdin=HAND_NS4_JSON)
    d = json.loads(out)
    assert (d["valuation"], d["world"]) == ({"p": 0}, 1)


# the package checks the translation without building it, so only the
# translate subcommand prints the translated formula


def test_translate_succeeds():
    code, _, _ = console("translate", "~(p -> q)")
    assert code == 0


def test_translate_prints_the_box_translation():
    _, out, _ = console("translate", "~(p -> q)")
    assert json.loads(out)["translation"] == "[n][]([]p -> []q)"


# the chain algebra of tests/test_cli.py passes the law check and has the
# 3-world dual of test_algebra_dual_of_the_chain_algebra; with one meet
# entry moved it breaks the top law at element 1


def test_algebra_check_passes_the_chain_algebra():
    code, _, _ = console("algebra", "check", "-", stdin=CHAIN_ALGEBRA)
    assert code == 0


def test_algebra_check_finds_the_chain_algebra_subdirectly_irreducible():
    _, out, _ = console("algebra", "check", "-", stdin=CHAIN_ALGEBRA)
    assert json.loads(out)["subdirectly_irreducible"] is True


def test_algebra_dual_succeeds_on_the_chain_algebra():
    code, _, _ = console("algebra", "dual", "-", stdin=CHAIN_ALGEBRA)
    assert code == 0


def test_algebra_dual_of_the_chain_algebra_has_three_worlds():
    _, out, _ = console("algebra", "dual", "-", stdin=CHAIN_ALGEBRA)
    d = json.loads(out)
    assert (d["worlds"], d["N"]) == (3, {"4": 6, "6": 7, "7": 6})


def test_algebra_check_refuses_the_lawless_chain_algebra():
    code, _, _ = console("algebra", "check", "-", stdin=LAWLESS_CHAIN_ALGEBRA)
    assert code == 1


def test_algebra_check_names_the_broken_top_law():
    _, out, _ = console("algebra", "check", "-", stdin=LAWLESS_CHAIN_ALGEBRA)
    d = json.loads(out)
    assert (d["law"], d["witness"]) == ("top", [1])


# the only runs of a real kernel over the rooted 5-world classes, one
# call per class; p -> p looks up no negation, while the second formula
# makes the kernel build the column masks of every rooted 5-world class;
# about 6 s each on a 2-vCPU host


def test_five_world_search_through_the_console_script():
    code, out, err = console("countermodel", "p -> p", "--logic", "nef", "--max-worlds", "5")
    assert (code, json.loads(out)["status"], "Traceback" in err) == (
        0, "no-countermodel-up-to-bound", False
    )


def test_five_world_search_with_negation_through_the_console_script():
    code, out, err = console(
        "countermodel", "~(p & q) -> ~(q & p)", "--logic", "n", "--max-worlds", "5"
    )
    assert (code, json.loads(out)["status"], "Traceback" in err) == (
        0, "no-countermodel-up-to-bound", False
    )
