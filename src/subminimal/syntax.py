"""Formula ASTs, the surface grammar, and compilation to kernel opcodes.

Two surface languages share one node hierarchy. The propositional
language has atoms, T, &, |, -> and the primitive negation ~; it has
no falsum. The modal language adds F, [] and [n], and there ~x is
sugar for x -> F, so parsed modal formulas never contain a Neg node.

Operator precedence, loosest first: <-> (desugared while parsing),
-> (right associative), |, &, then the prefix operators. The printer
emits the minimal parenthesisation, so parse(show(f)) == f for every
formula, while show(parse(s)) == s only for inputs that already use
minimal parentheses and no <->.

The parser splits the text with one regex findall, finds token
positions only to report an error, and reads the tokens by precedence
climbing: two Python frames per parenthesis, one per prefix operator.
A parse shares one Var per name, which changes no ==, hash or show
result, and a pickled formula loads equal.

Nodes are frozen dataclasses that hash once: the first hash of a node
computes the dataclass value, the hash of the tuple of its fields, and
keeps it in a slot, so sets and dicts of formulas iterate in the same
order as with the plain dataclass hash. The slot is filled lazily, so
building a node costs what it did before and a node never hashed
never pays. A second slot, ``_code``, keeps what ``compiled`` gives
for the node: its sorted variable names and its prop and modal kernel
code, each filled on the first compilation that succeeds in its
language (a node with no Neg, Bot, Box or BBox has one code for both),
so a formula checked again and again is compiled once. A failed
compilation keeps nothing and fails again the next time. Neither slot
is a field: they stay out of ==, repr, copies and pickles, and a node
loaded under another hash seed hashes afresh.

Kernel code is value-numbered (kernels.ops): one instruction per
distinct subformula, whose operands name the slots of earlier
instructions, so a subformula that occurs twice, as both sides of a
desugared <-> do, is evaluated once. The compilers key each
instruction by its opcode and operand slots, never by a node, so no
node is hashed; ``compiled`` takes the names and the code from one
walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from subminimal.kernels.ops import (
    OP_AND,
    OP_BBOX,
    OP_BOT,
    OP_BOX,
    OP_IMP,
    OP_NEG,
    OP_OR,
    OP_TOP,
    OP_VAR,
)


class ParseError(ValueError):
    """Raised on malformed input, with the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# bypasses the frozen dataclass __setattr__ to fill the slots
_setattr = object.__setattr__


class Formula:
    """Base class for all formula nodes; holds the hash and code slots."""

    __slots__ = ("_hash", "_code")

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._field_hash()
            _setattr(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return show(self)


def _node(cls):
    """A frozen slotted dataclass whose generated hash runs once per
    node, behind Formula's cache."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Var(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Neg(Formula):
    sub: Formula


@_node
class Box(Formula):
    sub: Formula


@_node
class BBox(Formula):
    sub: Formula


_BINARY = (And, Or, Imp)
_UNARY = (Neg, Box, BBox)


def _children(formula: Formula) -> tuple[Formula, ...]:
    if isinstance(formula, _BINARY):
        return (formula.left, formula.right)
    if isinstance(formula, _UNARY):
        return (formula.sub,)
    return ()


def _walk(formula: Formula) -> Iterator[Formula]:
    stack = [formula]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(_children(f))


# --------------------------------------------------------------------------
# printing


def _prec(formula: Formula) -> int:
    if isinstance(formula, (Var, Top, Bot)):
        return 4
    if isinstance(formula, _UNARY):
        return 3
    if isinstance(formula, And):
        return 2
    if isinstance(formula, Or):
        return 1
    return 0


def show(formula: Formula) -> str:
    """Render a formula in the surface syntax with minimal parentheses."""
    if isinstance(formula, Var):
        return formula.name
    if isinstance(formula, Top):
        return "T"
    if isinstance(formula, Bot):
        return "F"
    if isinstance(formula, _UNARY):
        op = "~" if isinstance(formula, Neg) else "[]" if isinstance(formula, Box) else "[n]"
        return op + _wrap(formula.sub, 3, False)
    if isinstance(formula, And):
        return _wrap(formula.left, 2, False) + " & " + _wrap(formula.right, 2, True)
    if isinstance(formula, Or):
        return _wrap(formula.left, 1, False) + " | " + _wrap(formula.right, 1, True)
    if isinstance(formula, Imp):
        return _wrap(formula.left, 0, True) + " -> " + _wrap(formula.right, 0, False)
    raise TypeError(f"not a formula: {formula!r}")


def _wrap(formula: Formula, level: int, strict: bool) -> str:
    p = _prec(formula)
    if p < level or (strict and p == level):
        return "(" + show(formula) + ")"
    return show(formula)


# --------------------------------------------------------------------------
# parsing

# group 1 holds the tokens of the grammar; any other run of word
# characters, or other non-space character, reads as the empty string
_TOKEN_RE = re.compile(r"(<->|->|\[n\]|\[\]|T\b|F\b|[a-z][a-zA-Z0-9_]*|[&|~()])|\w+|\S")

# infix operator: its binding power, the floor of its right operand
# (its own power for the right-associative <-> and ->), its node
_INFIX = {"->": (1, 1, Imp), "|": (2, 3, Or), "&": (3, 4, And)}
_INFIX["<->"] = (0, 0, lambda left, right: And(Imp(left, right), Imp(right, left)))


class _Parser:
    """Precedence climbing over the tokens, kept reversed behind an
    empty end marker so that the next token is tokens[-1]."""

    __slots__ = ("text", "tokens", "count", "modal", "names")

    def __init__(self, text: str, tokens: list[str], modal: bool):
        self.text, self.count, self.modal = text, len(tokens), modal
        tokens.append("")
        tokens.reverse()
        self.tokens = tokens
        self.names: dict[str, Var] = {}

    def fail(self, message: str, taken: bool = False) -> ParseError:
        """The error at the next token, or at the one just taken."""
        return _error(self.text, self.count + 1 - len(self.tokens) - taken, message)

    def expr(self, floor: int) -> Formula:
        left = self.unary()
        tokens = self.tokens
        while True:
            op = _INFIX.get(tokens[-1])
            if op is None or op[0] < floor:
                return left
            tokens.pop()
            left = op[2](left, self.expr(op[1]))

    def unary(self) -> Formula:
        tok = self.tokens.pop()
        if "a" <= tok < "{":  # an atom: "{" follows "z"
            var = self.names.get(tok)
            if var is None:
                var = self.names[tok] = Var(tok)
            return var
        if tok == "(":
            inner = self.expr(0)
            if self.tokens.pop() != ")":
                raise self.fail("expected closing parenthesis", True)
            return inner
        if tok == "~":
            sub = self.unary()
            return Imp(sub, Bot()) if self.modal else Neg(sub)
        if tok == "T":
            return Top()
        if tok == "F" or tok == "[]" or tok == "[n]":
            if not self.modal:
                what = "falsum" if tok == "F" else "modal operator"
                raise self.fail(f"{what} outside the modal language", True)
            if tok == "F":
                return Bot()
            sub = self.unary()
            return Box(sub) if tok == "[]" else BBox(sub)
        raise self.fail("expected a formula", True)


def _error(text: str, index: int, message: str) -> ParseError:
    """ParseError at the index-th token, the end of the text past the last."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return ParseError(message, starts[index] if index < len(starts) else len(text))


def parse(text: str, language: str = "prop") -> Formula:
    """Parse surface syntax into a formula.

    ``language`` is "prop" or "modal". Biconditionals are expanded into
    conjoined implications; in the modal language ~x becomes x -> F.
    """
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        raise _error(text, tokens.index(""), "unexpected character")
    parser = _Parser(text, tokens, language == "modal")
    formula = parser.expr(0)
    if parser.tokens[-1]:
        raise parser.fail("trailing input")
    return formula


# --------------------------------------------------------------------------
# structural helpers


def subformula_closure(formula: Formula) -> frozenset[Formula]:
    """All subformulas of the formula, itself included."""
    return frozenset(_walk(formula))


def _require_closed(sigma: frozenset[Formula]) -> None:
    # a set holding the direct subformulas of each member holds all
    for f in sigma:
        for sub in _children(f):
            if sub not in sigma:
                raise ValueError(
                    f"sigma is not subformula-closed: {show(f)} needs {show(sub)}"
                )


def variables(formula: Formula) -> tuple[str, ...]:
    """Variable names occurring in the formula, sorted."""
    return tuple(sorted({f.name for f in _walk(formula) if isinstance(f, Var)}))


def depth(formula: Formula) -> int:
    """Connective nesting depth; atoms and constants have depth 0."""
    kids = _children(formula)
    if not kids:
        return 0
    return 1 + max(depth(k) for k in kids)


def _match(scheme: Formula, formula: Formula, env: dict[str, Formula]) -> bool:
    if isinstance(scheme, Var):
        bound = env.get(scheme.name)
        if bound is None:
            env[scheme.name] = formula
            return True
        return bound == formula
    if scheme.__class__ is not formula.__class__:
        return False
    if isinstance(scheme, _UNARY):
        return _match(scheme.sub, formula.sub, env)
    if isinstance(scheme, _BINARY):
        return _match(scheme.left, formula.left, env) and _match(
            scheme.right, formula.right, env
        )
    return True


def is_instance_of(formula: Formula, scheme: Formula) -> bool:
    """Whether the formula arises from the scheme by substituting for
    the scheme's variables."""
    return _match(scheme, formula, {})


def godel_translate(formula: Formula) -> Formula:
    """Box translation of a propositional formula into the modal language.

    Atoms are boxed, conjunction and disjunction pass through,
    implications are boxed, and the primitive negation becomes [n].
    """
    if isinstance(formula, Var):
        return Box(formula)
    if isinstance(formula, Top):
        return Top()
    if isinstance(formula, And):
        return And(godel_translate(formula.left), godel_translate(formula.right))
    if isinstance(formula, Or):
        return Or(godel_translate(formula.left), godel_translate(formula.right))
    if isinstance(formula, Imp):
        return Box(Imp(godel_translate(formula.left), godel_translate(formula.right)))
    if isinstance(formula, Neg):
        return BBox(godel_translate(formula.sub))
    raise ValueError(f"not a propositional formula: {show(formula)}")


# --------------------------------------------------------------------------
# the logic chain


@dataclass(frozen=True)
class Logic:
    """A named logic in the chain, identified by its defining axiom."""

    name: str
    order: int
    axiom: Formula


AXIOM_N = parse("(p <-> q) -> (~p <-> ~q)")
AXIOM_NEF = parse("(p & ~p) -> ~q")
AXIOM_COPC = parse("(p -> q) -> (~q -> ~p)")
AXIOM_MPC = parse("(p -> ~p) -> ~p")

LOGICS: dict[str, Logic] = {
    "n": Logic("n", 0, AXIOM_N),
    "nef": Logic("nef", 1, AXIOM_NEF),
    "copc": Logic("copc", 2, AXIOM_COPC),
    "mpc": Logic("mpc", 3, AXIOM_MPC),
}


def chain_axioms(logic: Logic) -> tuple[Formula, ...]:
    """Axioms of the logic and of every weaker logic in the chain."""
    return tuple(
        l.axiom
        for l in sorted(LOGICS.values(), key=lambda l: l.order)
        if l.order <= logic.order
    )


# --------------------------------------------------------------------------
# random formulas and kernel compilation


def random_formula(rng, names: Sequence[str], max_depth: int, language: str = "prop") -> Formula:
    """Draw a formula over the given variable names.

    rng is a random.Random. Leaves are variables or constants; the
    connective set follows the language.
    """
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    modal = language == "modal"
    if max_depth <= 0 or rng.random() < 0.2:
        leaves: list[Formula] = [Var(name) for name in names]
        leaves.append(Top())
        if modal:
            leaves.append(Bot())
        return rng.choice(leaves)
    kinds = ["and", "or", "imp"] + (["box", "bbox"] if modal else ["neg"])
    kind = rng.choice(kinds)
    if kind == "neg":
        return Neg(random_formula(rng, names, max_depth - 1, language))
    if kind == "box":
        return Box(random_formula(rng, names, max_depth - 1, language))
    if kind == "bbox":
        return BBox(random_formula(rng, names, max_depth - 1, language))
    left = random_formula(rng, names, max_depth - 1, language)
    right = random_formula(rng, names, max_depth - 1, language)
    return {"and": And, "or": Or, "imp": Imp}[kind](left, right)


def compile_prop(formula: Formula, var_order: Sequence[str]) -> tuple[int, ...]:
    """Compile a propositional formula to value-numbered kernel code
    (see kernels.ops).

    Variables are numbered by their position in var_order; a variable
    outside it, or a modal node, raises ValueError.
    """
    return _compile(formula, {name: i for i, name in enumerate(var_order)}, False, False)


def compile_modal(formula: Formula, var_order: Sequence[str]) -> tuple[int, ...]:
    """Compile a modal formula to value-numbered kernel code."""
    return _compile(formula, {name: i for i, name in enumerate(var_order)}, True, False)


def compiled(formula: Formula, language: str = "prop") -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The sorted variable names of a formula and its kernel code over
    them, as compile_prop or compile_modal (``language`` "prop" or
    "modal") gives it, with the same errors; kept on the node, see the
    module docstring.

    One walk gives both: it numbers the variables as it meets them, and
    the Var instructions are renumbered in sorted order after it."""
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    modal = language == "modal"
    kept = getattr(formula, "_code", None)
    if kept is not None and kept[1 + modal] is not None:
        return kept[0], kept[1 + modal]
    # a kept node gets here only in the language it fails to compile in
    index: dict[str, int] = {}
    code = _compile(formula, index, modal, True)
    names = tuple(sorted(index))
    if tuple(index) != names:
        rank = {index[name]: i for i, name in enumerate(names)}
        code = list(code)
        for i in range(0, len(code), 3):
            if code[i] == OP_VAR:
                code[i + 1] = rank[code[i + 1]]
        code = tuple(code)
    if _SPECIFIC.isdisjoint(code[::3]):
        kept = names, code, code
    else:
        kept = (names, None, code) if modal else (names, code, None)
    _setattr(formula, "_code", kept)
    return names, code


# the opcodes only one of the two compilations emits
_SPECIFIC = frozenset((OP_NEG, OP_BOT, OP_BOX, OP_BBOX))

_BINOPS = {And: OP_AND, Or: OP_OR, Imp: OP_IMP}
_UNOPS = {Neg: OP_NEG, Box: OP_BOX, BBox: OP_BBOX}

# the language error of each node kind a compilation refuses, by
# whether it is modal
_REFUSED = {
    (Neg, True): "primitive negation in a modal compilation",
    (Bot, False): "falsum in a propositional compilation",
    (Box, False): "box in a propositional compilation",
    (BBox, False): "second modality in a propositional compilation",
}


def _compile(formula: Formula, index: dict[str, int], modal: bool, grow: bool) -> tuple[int, ...]:
    """Value-numbered code of the formula: one instruction per distinct
    subformula, in the order of the first postfix visit of each, so an
    error is met where the postfix walk met it. An instruction is keyed
    by its opcode and operands, operand slots for a connective, so no
    node is hashed and two subformulas share an instruction exactly
    when they are equal; the key keeps the operand order, as -> needs.
    Variables are numbered by ``index``; with ``grow`` a name met first
    is added to it, else it raises ValueError."""
    numbers: dict[tuple[int, int, int], int] = {}
    code: list[int] = []
    _emit(formula, index, modal, grow, numbers, code)
    return tuple(code)


def _emit(formula, index, modal, grow, numbers, code) -> int:
    """The slot of the formula's instruction, emitted unless an equal
    subformula's is already there."""
    kind = formula.__class__
    error = _REFUSED.get((kind, modal))
    if error is not None:
        raise ValueError(error)
    if kind is Var:
        i = index.get(formula.name)
        if i is None:
            if not grow:
                raise ValueError(f"variable not in the compilation order: {formula.name}")
            i = index[formula.name] = len(index)
        key = (OP_VAR, i, 0)
    elif kind in _BINOPS:
        a = _emit(formula.left, index, modal, grow, numbers, code)
        key = (_BINOPS[kind], a, _emit(formula.right, index, modal, grow, numbers, code))
    elif kind in _UNOPS:
        key = (_UNOPS[kind], _emit(formula.sub, index, modal, grow, numbers, code), 0)
    elif kind is Top:
        key = (OP_TOP, 0, 0)
    elif kind is Bot:
        key = (OP_BOT, 0, 0)
    else:
        raise TypeError(f"not a formula: {formula!r}")
    slot = numbers.get(key)
    if slot is None:
        slot = numbers[key] = len(numbers)
        code.extend(key)
    return slot
