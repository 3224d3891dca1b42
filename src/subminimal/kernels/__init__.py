"""The kernels: hot evaluation and search loops over bitmask encodings.

They live in ``kernels.pure`` and are re-exported here; callers reach
them as ``kernels.<name>`` at call time, so a wrapper bound over one of
these names (a tracer, say) sees every call. BACKEND names the one
implementation.
"""

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
from subminimal.kernels.pure import (
    en_holds,
    eval_modal,
    eval_prop,
    find_refuting_valuation_modal,
    find_refuting_valuation_prop,
    lift_table,
    locality_violation,
    ns4_table_violation,
    rn_holds,
    search_order_onto,
    search_positive_morphism,
    translation_gap,
)

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "OP_AND",
    "OP_BBOX",
    "OP_BOT",
    "OP_BOX",
    "OP_IMP",
    "OP_NEG",
    "OP_OR",
    "OP_TOP",
    "OP_VAR",
    "eval_prop",
    "eval_modal",
    "find_refuting_valuation_prop",
    "find_refuting_valuation_modal",
    "locality_violation",
    "ns4_table_violation",
    "lift_table",
    "translation_gap",
    "en_holds",
    "rn_holds",
    "search_order_onto",
    "search_positive_morphism",
]
