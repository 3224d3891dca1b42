"""Opcode table for the compiled formula representation.

A formula is flattened to postfix as a sequence of (opcode, argument)
pairs; the argument is a variable index for OP_VAR and 0 otherwise.
The kernels in kernels.pure interpret this encoding with small stack
machines; syntax.compile_prop and compile_modal emit it.
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
