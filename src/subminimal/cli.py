"""Command line front end.

Each subcommand writes one JSON document to stdout and encodes its
verdict in the exit code, even when stdout closes early: 0 for clean
outcomes, 1 when something was refuted or violated, 2 for usage and
input problems. Refutation witnesses are re-verified against the
library evaluators before they are printed, and every search takes
explicit bounds, so output for fixed inputs is deterministic.

A call builds only its own command's parser. When the argv after the
command uses only exact option strings, ``--opt=value``, flags and
values that do not start with "-", that parser reads it straight off
its own actions and argparse does not run (_CommandParser, whose
docstring proves the namespace is argparse's). Anything else, such as
help, an abbreviation, "--", a dash-led value or a usage error, goes
to argparse as before, and to the full parser of all commands only for
what the command's parser cannot answer: no or an unknown command, an
option before the command and leftover arguments. Either way the
output is the same.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Mapping, Sequence

from subminimal.algebra import (
    NAlgebra,
    TopFrame,
    admissible_algebra,
    algebra_from_dict,
    algebra_to_dict,
    check_nalgebra,
    check_topframe,
    dual_frame,
    subdirectly_irreducible,
    sublattice_filtration,
    topframe_from_dict,
    topframe_to_dict,
)
from subminimal.antichain import ANTICHAIN_MAX_N, comparison_matrix
from subminimal.filtration import (
    DEFAULT_MAX_WORLDS,
    ResourceLimitError,
    Verdict,
    _deadline,
    close_sigma,
    decide,
    greatest_filtration,
)
from subminimal.frames import (
    NModel,
    SearchTimeout,
    _int,
    check_nframe,
    countermodel_search,
    eval_formula,
    frame_class,
    frame_from_dict,
    model_from_dict,
    model_to_dict,
)
from subminimal.modal import (
    COS4_AXIOMS,
    NS4_AXIOMS,
    NS4Model,
    en_check,
    modal_nframe_from_dict,
    ns4_check_frame,
    ns4_eval,
    ns4_from_dict,
    ns4_refuting_valuation,
    proof_from_list,
    check_proof,
    rn_validity,
)
from subminimal.syntax import (
    LOGICS,
    Formula,
    ParseError,
    depth,
    godel_translate,
    parse,
    show,
    variables,
)


def _load_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_sigma(text: str) -> tuple[Formula, ...]:
    parts = [chunk.strip() for chunk in text.split(";")]
    formulas = [parse(chunk) for chunk in parts if chunk]
    if not formulas:
        raise ValueError("sigma holds no formula")
    return close_sigma(formulas)


def _assert_refutes(m: NModel, f: Formula, world: int) -> None:
    """Re-check a countermodel before it leaves the process."""
    if check_nframe(m.frame.poset, m.frame.ntable) is not None:
        raise RuntimeError("witness frame fails the locality law")
    if (eval_formula(m, f) >> world) & 1:
        raise RuntimeError("witness does not refute the formula")


def _verdict_payload(v: Verdict) -> dict:
    out: dict[str, Any] = {
        "status": v.status,
        "logic": v.logic,
        "formula": show(v.formula),
    }
    if v.bound is not None:
        out["bound"] = v.bound
    if v.model is not None:
        assert v.world is not None
        _assert_refutes(v.model, v.formula, v.world)
        out["model"] = model_to_dict(v.model)
        out["world"] = v.world
    return out


def _cmd_parse(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(args.formula, args.language)
    payload = {
        "status": "ok",
        "language": args.language,
        "formula": show(f),
        "variables": list(variables(f)),
        "depth": depth(f),
    }
    return payload, 0


def _cmd_decide(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(args.formula)
    v = decide(LOGICS[args.logic], f, args.max_worlds, args.timeout_ms)
    return _verdict_payload(v), 1 if v.status == "refuted" else 0


def _cmd_countermodel(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(args.formula)
    deadline = _deadline(args.timeout_ms)
    hit = countermodel_search(LOGICS[args.logic], f, args.max_worlds, deadline)
    bound = args.max_worlds
    if hit is None:
        v = Verdict("no-countermodel-up-to-bound", args.logic, f, bound=bound)
    else:
        model, world = hit
        v = Verdict("refuted", args.logic, f, bound=bound, model=model, world=world)
    return _verdict_payload(v), 1 if v.status == "refuted" else 0


def _cmd_check_frame(args: argparse.Namespace) -> tuple[dict, int]:
    fr = frame_from_dict(_load_json(args.frame))
    witness = check_nframe(fr.poset, fr.ntable)
    if witness is not None:
        x, y = witness
        if fr.ntable[x] & y == fr.ntable[x & y] & y:
            raise RuntimeError("witness does not break the locality law")
        return {"status": "violation", "witness": {"x": x, "y": y}}, 1
    classes = {name: frame_class(fr, logic) for name, logic in LOGICS.items()}
    return {"status": "ok", "worlds": fr.n, "classes": classes}, 0


def _cmd_filtrate(args: argparse.Namespace) -> tuple[dict, int]:
    m = model_from_dict(_load_json(args.model))
    sigma = _parse_sigma(args.sigma)
    res = greatest_filtration(m, sigma)
    payload = model_to_dict(res.quotient)
    payload["status"] = "ok"
    payload["pi"] = list(res.pi)
    payload["sigma"] = sorted(show(g) for g in res.sigma)
    return payload, 0


def _load_algebra_or_topframe(path: str) -> NAlgebra | TopFrame:
    d = _load_json(path)
    if isinstance(d, Mapping) and "meet" in d:
        return algebra_from_dict(d)
    return topframe_from_dict(d)


def _require_nalgebra(a: NAlgebra) -> None:
    hit = check_nalgebra(a)
    if hit is not None:
        raise ValueError(f"not an N-algebra: {hit[0]} fails at {list(hit[1])}")


def _cmd_algebra_dual(args: argparse.Namespace) -> tuple[dict, int]:
    source = _load_algebra_or_topframe(args.source)
    if isinstance(source, NAlgebra):
        _require_nalgebra(source)
        payload = topframe_to_dict(dual_frame(source))
    else:
        payload = algebra_to_dict(admissible_algebra(source))
    payload["status"] = "ok"
    return payload, 0


def _cmd_algebra_check(args: argparse.Namespace) -> tuple[dict, int]:
    source = _load_algebra_or_topframe(args.source)
    if isinstance(source, NAlgebra):
        hit = check_nalgebra(source)
        if hit is not None:
            law, witness = hit
            return {"status": "violation", "law": law, "witness": list(witness)}, 1
        payload = {
            "status": "ok",
            "size": source.size,
            "subdirectly_irreducible": subdirectly_irreducible(source),
        }
        return payload, 0
    pair = check_topframe(source)
    if pair is not None:
        x, y = pair
        return {"status": "violation", "witness": {"x": x, "y": y}}, 1
    return {"status": "ok", "worlds": source.n, "top": source.top}, 0


def _cmd_algebra_filtrate(args: argparse.Namespace) -> tuple[dict, int]:
    a = algebra_from_dict(_load_json(args.algebra))
    _require_nalgebra(a)
    mu_raw = json.loads(args.assign)
    if not isinstance(mu_raw, dict):
        raise ValueError("--assign must be a JSON object")
    mu = {str(k): _int(v, "--assign value") for k, v in mu_raw.items()}
    for name, v in mu.items():
        if not 0 <= v < a.size:
            raise ValueError(f"--assign value of {name} is not an element: {v}")
    sigma = _parse_sigma(args.sigma)
    filt = sublattice_filtration(a, mu, sigma)
    payload = {
        "status": "ok",
        "size": filt.algebra.size,
        "carrier": list(filt.carrier),
        "assign": dict(filt.mu),
        "algebra": algebra_to_dict(filt.algebra),
    }
    return payload, 0


def _cmd_antichain(args: argparse.Namespace) -> tuple[dict, int]:
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    payload = dict(comparison_matrix(args.max_n))
    payload["status"] = "ok"
    return payload, 0


def _cmd_translate(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(args.formula)
    payload = {
        "status": "ok",
        "source": show(f),
        "translation": show(godel_translate(f)),
    }
    return payload, 0


def _cmd_ns4_valid(args: argparse.Namespace) -> tuple[dict, int]:
    fr = ns4_from_dict(_load_json(args.frame))
    broken = ns4_check_frame(fr)
    if broken is not None:
        kind, x = broken
        return {"status": "violation", "condition": kind, "witness": x}, 1
    axioms = COS4_AXIOMS if args.system == "cos4" else NS4_AXIOMS
    if args.formulas:
        targets = [(show(f), f) for f in (parse(t, "modal") for t in args.formulas)]
    else:
        targets = list(axioms.items())
    for name, f in targets:
        hit = ns4_refuting_valuation(fr, f)
        if hit is not None:
            valuation, world = hit
            if (ns4_eval(NS4Model(fr, valuation), f) >> world) & 1:
                raise RuntimeError("witness does not refute the formula")
            payload = {
                "status": "refuted",
                "formula": name,
                "valuation": valuation,
                "world": world,
            }
            return payload, 1
    return {"status": "ok", "checked": [name for name, _ in targets]}, 0


def _cmd_ns4_check_proof(args: argparse.Namespace) -> tuple[dict, int]:
    items = _load_json(args.proof)
    if not isinstance(items, list):
        raise ValueError("proof JSON must be a list of lines")
    proof = proof_from_list(items, args.system)
    hit = check_proof(proof)
    if hit is not None:
        line, reason = hit
        return {"status": "violation", "line": line, "reason": reason}, 1
    return {"status": "ok", "system": args.system, "lines": len(proof.lines)}, 0


def _cmd_ns4_law(args: argparse.Namespace) -> tuple[dict, int]:
    """``ns4 en`` and ``ns4 rn``: the named law at arity k on a table."""
    fr = modal_nframe_from_dict(_load_json(args.frame))
    law = en_check if args.ns4_command == "en" else rn_validity
    holds = law(fr, args.k)
    status = "ok" if holds else "violation"
    return {"status": status, "k": args.k, "holds": holds}, 0 if holds else 1


def _formula(p: argparse.ArgumentParser) -> None:
    p.add_argument("formula")


def _language_args(p: argparse.ArgumentParser) -> None:
    _formula(p)
    p.add_argument("--language", choices=("prop", "modal"), default="prop")


def _search_args(p: argparse.ArgumentParser) -> None:
    _formula(p)
    p.add_argument("--logic", choices=sorted(LOGICS), required=True)
    p.add_argument("--max-worlds", type=int, default=DEFAULT_MAX_WORLDS)
    p.add_argument("--timeout-ms", type=int, default=None)


def _check_frame_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("frame", help="frame JSON path, - for stdin")


def _filtrate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON path, - for stdin")
    p.add_argument(
        "--sigma",
        required=True,
        help="formulas separated by ';', closed under subformulas automatically",
    )


def _source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="algebra or top-frame JSON path, - for stdin")


def _algebra_filtrate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", required=True, help="algebra JSON path, - for stdin")
    p.add_argument(
        "--assign", required=True, help='JSON object, e.g. \'{"p": 1}\''
    )
    p.add_argument("--sigma", required=True, help="formulas separated by ';'")


def _antichain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-n", type=int, required=True, help=f"largest ladder index, at most {ANTICHAIN_MAX_N}"
    )


def _ns4_valid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frame", required=True, help="frame JSON path, - for stdin")
    p.add_argument("--system", choices=("ns4", "cos4"), default="ns4")
    p.add_argument("formulas", nargs="*")


def _check_proof_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("proof", help="proof JSON path, - for stdin")
    p.add_argument("--system", choices=("ns4", "cos4"), required=True)


def _law_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frame", required=True, help="frame JSON path, - for stdin")
    p.add_argument("-k", type=int, required=True)


# name: (help, handler, arguments) for a command, (help, dest, table) for a
# group of commands; one table builds the full parser and each command's own
_COMMANDS: dict[str, tuple[str, Any, Any]] = {
    "parse": ("parse and reprint a formula", _cmd_parse, _language_args),
    "decide": ("decide a formula against a logic", _cmd_decide, _search_args),
    "countermodel": (
        "search frames of a logic's class for a countermodel",
        _cmd_countermodel,
        _search_args,
    ),
    "check-frame": (
        "validate a frame JSON file against the locality law",
        _cmd_check_frame,
        _check_frame_args,
    ),
    "filtrate": ("greatest filtration of a model", _cmd_filtrate, _filtrate_args),
    "algebra": (
        "algebra and duality commands",
        "algebra_command",
        {
            "dual": (
                "dual top frame of an algebra, or algebra of a top frame",
                _cmd_algebra_dual,
                _source_args,
            ),
            "check": ("validate an algebra or top frame", _cmd_algebra_check, _source_args),
            "filtrate": (
                "least algebraic filtration",
                _cmd_algebra_filtrate,
                _algebra_filtrate_args,
            ),
        },
    ),
    "antichain": (
        "pairwise onto / positive-morphism matrix of the ladder posets",
        _cmd_antichain,
        _antichain_args,
    ),
    "translate": ("modal translation of a formula", _cmd_translate, _formula),
    "ns4": (
        "bimodal companion commands",
        "ns4_command",
        {
            "valid": (
                "check formulas (default: the system's axioms) on a frame",
                _cmd_ns4_valid,
                _ns4_valid_args,
            ),
            "check-proof": ("verify a proof file", _cmd_ns4_check_proof, _check_proof_args),
            "en": ("k-ary locality identity on a total table", _cmd_ns4_law, _law_args),
            "rn": ("k-premise replacement rule on a total table", _cmd_ns4_law, _law_args),
        },
    ),
}


def _fill(p: argparse.ArgumentParser, target: Any, spec: Any) -> None:
    """Give p a group's subparsers, or a command's --pretty, arguments and
    handler, in the order the help lists them."""
    if isinstance(target, str):
        sub = p.add_subparsers(dest=target, required=True, parser_class=argparse.ArgumentParser)
        for name, (text, *entry) in spec.items():
            _fill(sub.add_parser(name, help=text), *entry)
        return
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")
    spec(p)
    p.set_defaults(handler=target)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process for what no command's own
    parser answers: top-level help, no or an unknown command, an option
    before the command and leftover arguments. Building it takes about
    5 ms, far more than one parse."""
    parser = argparse.ArgumentParser(
        prog="subminimal",
        description="Subminimal logics of negation: semantics, filtration, "
        "duality and bimodal companions.",
    )
    _fill(parser, "command", _COMMANDS)
    return parser


class _CommandParser(argparse.ArgumentParser):
    """A command's own parser, which reads a plain argv itself and hands
    any other to argparse, so that a plain call runs no argparse code
    but the type and choices checks.

    The read takes a parser whose actions are help, store actions with
    nargs None and store_true actions, none with the default SUPPRESS
    or with both a type and a str default, in no mutually exclusive
    group. An argv is plain when each token is an exact option string
    of a store action followed by a value that does not start with "-",
    such an option string joined to its value by "=", an exact option
    string of a store_true action, or a positional that does not start
    with "-" (a lone "-" is not dash-led); each value passes the
    action's type and choices, every required action is seen and no
    token is left over.

    On a plain argv argparse's parse_known_args returns the same
    namespace and no extras. Its _parse_optional (prefix_chars "-" and
    no fromfile prefix, the defaults here) takes a token that does not
    start with "-", or is "-" alone, as an argument, and an exact option
    string, or one before "=", as that option, before it tries any
    prefix; a plain argv holds no other token. So each store option
    takes its own value, the next token or the text after "=", each
    store_true option takes no value, and the positionals, one token
    each, take the other tokens in order: as many as there are
    positionals, since none is left over and each required one is seen.
    Each value goes through argparse's own _get_value and _check_value;
    the namespace starts as argparse's does, from each dest's first
    action's default, then the parser's own defaults; and argparse
    converts no unseen default here, since a str default has no type
    and so converts to itself. A given namespace is left to argparse.
    """

    @functools.cached_property
    def _plain(self):
        """The read's spec, derived once from the parser's actions: the
        store_true and the store options by option string, the actions
        but help, and the namespace argparse starts from; None when the
        parser has anything the read does not take."""
        acts = [a for a in self._actions if type(a) is not argparse._HelpAction]
        if not self._mutually_exclusive_groups and all(
            (type(a), a.nargs) in {(argparse._StoreAction, None), (argparse._StoreTrueAction, 0)}
            and a.default is not argparse.SUPPRESS
            and not (a.type and isinstance(a.default, str))
            for a in acts
        ):
            flags, stores = ({s: a for a in acts if a.nargs == n for s in a.option_strings} for n in (0, None))
            start = {**self._defaults, **{a.dest: a.default for a in reversed(acts)}}
            return flags, stores, acts, start
        return None

    def parse_known_args(self, args=None, namespace=None):
        """The read of a plain argv, on which nothing below raises, or
        argparse's parse of any other."""
        try:
            flags, stores, acts, start = self._plain
            ns, seen, tokens = argparse.Namespace(**start), set(), iter(args)
            positionals = iter([a for a in acts if not a.option_strings])
            for token in tokens:
                if token in flags:
                    a, value = flags[token], None
                elif token in stores:
                    a, value = stores[token], next(tokens)
                    if value[:1] == "-" != value:
                        raise ValueError(value)
                elif token[:1] == "-" != token:
                    option, _, value = token.partition("=")
                    a = stores[option]
                else:
                    a, value = next(positionals), token
                seen.add(a)
                setattr(ns, a.dest, a.const if value is None else self._get_value(a, value))
                self._check_value(a, getattr(ns, a.dest))
            if namespace is None and all(a in seen for a in acts if a.required):
                return ns, []
        except Exception:  # whatever the read cannot take, argparse parses or reports
            pass
        return super().parse_known_args(args, namespace)


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, built as the full parser's subparser is."""
    _, target, spec = _COMMANDS[name]
    parser = _CommandParser(prog=f"subminimal {name}")
    _fill(parser, target, spec)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command. When argv starts with a command, that command's
    own parser parses the rest, as the full parser hands it to its
    subparser; anything else, and arguments left over, goes to the full
    parser, so help and usage errors read as they always have."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in _COMMANDS:
        args, extras = _command_parser(name).parse_known_args(argv[1:])
    if name not in _COMMANDS or extras:
        args = _build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
    except KeyError as exc:
        payload, code = {"status": "error", "error": f"missing key {exc}"}, 2
    except (ParseError, ValueError, OSError, ResourceLimitError, SearchTimeout) as exc:
        payload, code = {"status": "error", "error": str(exc)}, 2
    except RecursionError:
        payload, code = {"status": "error", "error": "input nested too deeply"}, 2
    try:
        print(json.dumps(payload, sort_keys=True, indent=2 if args.pretty else None))
        sys.stdout.flush()
    except BrokenPipeError:
        # the verdict stays in the exit code; devnull keeps the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
