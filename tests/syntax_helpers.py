"""Formula helpers that only the tests use."""

from typing import Mapping

from subminimal.syntax import Formula, Var, _BINARY, _UNARY


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
