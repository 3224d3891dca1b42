"""Opcode table for the compiled formula representation.

A formula is compiled to value-numbered code: a flat sequence of
(opcode, a, b) triples, one instruction per distinct subformula, each
after the instructions of its operands. Instruction i puts its truth
set in slot i, and the code's value is its last slot. For OP_VAR, a is
the variable's index; for a connective, a (and b for a binary one) are
the slots of its operands, left then right; every other field is 0.
The kernels in kernels.pure run this code on one slot machine;
syntax.compile_prop and compile_modal emit it.
"""

OP_VAR = 0
OP_TOP = 1
OP_AND = 2
OP_OR = 3
OP_IMP = 4
OP_NEG = 5
OP_BOT = 6
OP_BOX = 7
OP_BBOX = 8
