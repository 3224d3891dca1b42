"""The parser the package replaced, as it was, and a plain printer.

The differential test in test_syntax.py parses the same strings with
the package's parse and with this one and demands the same tree or the
same error, message and position. This is the plain version: a
tokenizer that matches one token at a time behind a whitespace match,
and a recursive descent with one method per precedence level. show is
the minimal-parenthesis printer written as plain recursion, which the
package's one-pass show must match.
"""

from __future__ import annotations

import re

from subminimal.syntax import And, BBox, Bot, Box, Formula, Imp, Neg, Or, ParseError, Top, Var

_TOKEN_RE = re.compile(
    r"(?P<iff><->)|(?P<imp>->)|(?P<and>&)|(?P<or>\|)|(?P<not>~)"
    r"|(?P<bbox>\[n\])|(?P<box>\[\])|(?P<lp>\()|(?P<rp>\))"
    r"|(?P<top>T\b)|(?P<bot>F\b)|(?P<atom>[a-z][a-zA-Z0-9_]*)"
)

_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while True:
        pos = _WS_RE.match(text, pos).end()
        if pos == len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], modal: bool):
        self.tokens = tokens
        self.i = 0
        self.modal = modal

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.tokens[self.i][2])

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek() == "iff":
            self.take()
            right = self.iff()
            return And(Imp(left, right), Imp(right, left))
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek() == "imp":
            self.take()
            return Imp(left, self.imp())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek() == "or":
            self.take()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek() == "and":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "not":
            self.take()
            sub = self.unary()
            return Imp(sub, Bot()) if self.modal else Neg(sub)
        if kind in ("box", "bbox"):
            if not self.modal:
                raise self.fail("modal operator outside the modal language")
            self.take()
            sub = self.unary()
            return Box(sub) if kind == "box" else BBox(sub)
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.take()
        if kind == "atom":
            return Var(text)
        if kind == "top":
            return Top()
        if kind == "bot":
            if not self.modal:
                raise ParseError("falsum outside the modal language", pos)
            return Bot()
        if kind == "lp":
            inner = self.iff()
            kind2, _, pos2 = self.take()
            if kind2 != "rp":
                raise ParseError("expected closing parenthesis", pos2)
            return inner
        raise ParseError("expected a formula", pos)


def parse(text: str, language: str = "prop") -> Formula:
    """Parse surface syntax into a formula.

    ``language`` is "prop" or "modal". Biconditionals are expanded into
    conjoined implications; in the modal language ~x becomes x -> F.
    """
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    parser = _Parser(_tokenize(text), modal=language == "modal")
    formula = parser.iff()
    if parser.peek() != "end":
        raise parser.fail("trailing input")
    return formula


# binding power of each connective, the loosest 0; atoms and constants bind tightest
_LEVEL = {Imp: 0, Or: 1, And: 2, Neg: 3, Box: 3, BBox: 3}
_INFIX = {Imp: " -> ", Or: " | ", And: " & "}
_PREFIX = {Neg: "~", Box: "[]", BBox: "[n]"}


def show(formula: Formula) -> str:
    """The surface text of a formula with minimal parentheses: & and |
    group to the left and -> to the right, so an operand is bracketed
    when it binds looser than its parent, or as loose on the side that
    its parent does not group to."""
    kind = type(formula)
    if kind is Var:
        return formula.name
    if kind is Top:
        return "T"
    if kind is Bot:
        return "F"
    if kind in _PREFIX:
        return _PREFIX[kind] + _operand(formula.sub, 3)
    level = _LEVEL[kind]
    left, right = (level + 1, level) if kind is Imp else (level, level + 1)
    return _operand(formula.left, left) + _INFIX[kind] + _operand(formula.right, right)


def _operand(formula: Formula, floor: int) -> str:
    """The formula's text, in parentheses when it binds looser than floor."""
    text = show(formula)
    return f"({text})" if _LEVEL.get(type(formula), 4) < floor else text
