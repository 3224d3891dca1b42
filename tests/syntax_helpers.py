"""Formula helpers that only the tests use."""

from typing import Mapping, Sequence

from subminimal.syntax import And, BBox, Bot, Box, Formula, Imp, Neg, Or, Top, Var, _BINARY, _UNARY


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace every variable that the mapping covers, simultaneously."""
    if isinstance(formula, Var):
        return mapping.get(formula.name, formula)
    if isinstance(formula, _BINARY):
        return formula.__class__(
            substitute(formula.left, mapping), substitute(formula.right, mapping)
        )
    if isinstance(formula, _UNARY):
        return formula.__class__(substitute(formula.sub, mapping))
    return formula


def random_formula(rng, names: Sequence[str], max_depth: int, language: str = "prop") -> Formula:
    """Draw a formula over the given variable names.

    rng is a random.Random. Leaves are variables or constants; the
    connective set follows the language. Nodes are drawn in entry
    order, left operand first, from a stack of depth budgets, with a
    node's kind under the budgets of its operands.
    """
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    modal = language == "modal"
    kinds = ["and", "or", "imp"] + (["box", "bbox"] if modal else ["neg"])
    built: list[Formula] = []
    todo: list = [max_depth]
    while todo:
        item = todo.pop()
        if isinstance(item, type):
            sub = built.pop()
            built.append(item(sub) if item in _UNARY else item(built.pop(), sub))
        elif item <= 0 or rng.random() < 0.2:
            leaves: list[Formula] = [Var(name) for name in names]
            leaves.append(Top())
            if modal:
                leaves.append(Bot())
            built.append(rng.choice(leaves))
        else:
            kind = _NAMED[rng.choice(kinds)]
            todo += (kind, item - 1) if kind in _UNARY else (kind, item - 1, item - 1)
    return built[0]


_NAMED = {"and": And, "or": Or, "imp": Imp, "neg": Neg, "box": Box, "bbox": BBox}
