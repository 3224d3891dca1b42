"""Usage paths through main(None), the branch the console script runs.

Each case starts a fresh interpreter that calls
``sys.exit(main())`` with no arguments, as the installed ``subminimal``
script does, so main reads sys.argv: a command's own parser answers
help and its missing arguments, the full parser leftover arguments and
an unknown command, a timeout too large for a float is an input error,
and a plain argv is read without argparse.
"""

import json
import os
import pathlib
import subprocess
import sys

import subminimal

SRC = str(pathlib.Path(subminimal.__file__).resolve().parents[1])
ENTRY = "import sys; from subminimal.cli import main; sys.exit(main())"


def console(*argv):
    """Exit code, stdout and stderr of the console entry on argv."""
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *argv],
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
