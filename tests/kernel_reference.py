"""The kernels the package replaced with faster algorithms, as they were.

The differential fuzz in test_kernels.py runs each rewritten kernel in
``subminimal.kernels`` against its counterpart here and demands
the same value, the same exception and the same first witness. These
are the plain loops: one valuation, one pair, one domain at a time.
The eval kernels here are the one-valuation stack machine the package
ran before both eval kernels and the searches shared one machine; the
reference searches run on it, so they share no code with the package.

The stack machine runs postfix code, a flat sequence of (opcode,
argument) pairs, the argument a variable index for OP_VAR and 0
otherwise, as ``compile_prop`` and ``compile_modal`` here emit it: the
compilers the package ran before it gave each distinct subformula one
instruction. So a subformula is evaluated here once per occurrence.
"""

from subminimal.kernels import (
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
from subminimal.syntax import And, BBox, Bot, Box, Imp, Neg, Or, Top, Var


def eval_prop(code, n, up, ntable, val):
    """Truth set of a propositional formula, or a negative sentinel.

    Returns -1 when a negation lookup hits an index the table does not
    cover (possible on lenient quotient frames) and -2 when the code
    contains a modal opcode.
    """
    return _eval(code, n, up, ntable, val, False)


def eval_modal(code, n, up, ntable, val):
    """Truth set of a modal formula on a preorder; -2 on a Neg opcode."""
    return _eval(code, n, up, ntable, val, True)


def _eval(code, n, up, ntable, val, modal):
    """The stack machine of both eval kernels. The modal arrow is
    ~a | b; the Heyting arrow is box(~a | b), as w's cone misses
    a & ~b exactly when it lies in ~a | b."""
    full = (1 << n) - 1
    stack = []
    i = 0
    while i < len(code):
        op = code[i]
        arg = code[i + 1]
        i += 2
        if op == OP_VAR:
            stack.append(val[arg])
        elif op == OP_TOP:
            stack.append(full)
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] &= b
        elif op == OP_OR:
            b = stack.pop()
            stack[-1] |= b
        elif op == OP_IMP:
            b = stack.pop()
            c = ~stack[-1] | b
            stack[-1] = c & full if modal else _box(c, n, up)
        elif op == OP_NEG and not modal:
            v = ntable[stack[-1]]
            if v < 0:
                return -1
            stack[-1] = v
        elif op == OP_BOT and modal:
            stack.append(0)
        elif op == OP_BOX and modal:
            stack[-1] = _box(stack[-1], n, up)
        elif op == OP_BBOX and modal:
            stack[-1] = ntable[stack[-1]]
        else:
            return -2
    return stack[-1]


def compile_prop(formula, var_order):
    """Flatten a propositional formula to postfix kernel opcodes.

    Variables are numbered by their position in var_order; a variable
    outside it, or a modal node, raises ValueError.
    """
    index = {name: i for i, name in enumerate(var_order)}
    code = []
    _emit(formula, index, code, modal=False)
    return tuple(code)


def compile_modal(formula, var_order):
    """Flatten a modal formula to postfix kernel opcodes."""
    index = {name: i for i, name in enumerate(var_order)}
    code = []
    _emit(formula, index, code, modal=True)
    return tuple(code)


_BINOPS = {And: OP_AND, Or: OP_OR, Imp: OP_IMP}


def _emit(formula, index, code, modal):
    if isinstance(formula, Var):
        if formula.name not in index:
            raise ValueError(f"variable not in the compilation order: {formula.name}")
        code.extend((OP_VAR, index[formula.name]))
    elif isinstance(formula, Top):
        code.extend((OP_TOP, 0))
    elif isinstance(formula, Bot):
        if not modal:
            raise ValueError("falsum in a propositional compilation")
        code.extend((OP_BOT, 0))
    elif isinstance(formula, (And, Or, Imp)):
        _emit(formula.left, index, code, modal)
        _emit(formula.right, index, code, modal)
        code.extend((_BINOPS[formula.__class__], 0))
    elif isinstance(formula, Neg):
        if modal:
            raise ValueError("primitive negation in a modal compilation")
        _emit(formula.sub, index, code, modal)
        code.extend((OP_NEG, 0))
    elif isinstance(formula, Box):
        if not modal:
            raise ValueError("box in a propositional compilation")
        _emit(formula.sub, index, code, modal)
        code.extend((OP_BOX, 0))
    elif isinstance(formula, BBox):
        if not modal:
            raise ValueError("second modality in a propositional compilation")
        _emit(formula.sub, index, code, modal)
        code.extend((OP_BBOX, 0))
    else:
        raise TypeError(f"not a formula: {formula!r}")


def _box(a, n, up):
    """The worlds whose cone lies in a."""
    m = 0
    for w in range(n):
        if up[w] & ~a == 0:
            m |= 1 << w
    return m


def find_refuting_valuation_prop(code, nvars, n, up, ntable, upsets):
    """Index of the first refuting valuation, or -1 if the formula is valid.

    Valuations assign upsets to variables; index digits run over the
    ascending upset list with variable 0 most significant, so ascending
    indices are lexicographic valuations.
    """
    full = (1 << n) - 1
    nu = len(upsets)
    val = [0] * max(nvars, 1)
    for idx in range(nu**nvars):
        t = idx
        for k in range(nvars - 1, -1, -1):
            val[k] = upsets[t % nu]
            t //= nu
        r = eval_prop(code, n, up, ntable, val)
        if r < 0:
            raise ValueError("evaluation left the negation table domain")
        if r != full:
            return idx
    return -1


def find_refuting_valuation_modal(code, nvars, n, up, ntable):
    """Like find_refuting_valuation_prop, with arbitrary subsets as values."""
    full = (1 << n) - 1
    space = 1 << n
    val = [0] * max(nvars, 1)
    for idx in range(space**nvars):
        t = idx
        for k in range(nvars - 1, -1, -1):
            val[k] = t % space
            t //= space
        r = eval_modal(code, n, up, ntable, val)
        if r < 0:
            raise ValueError("modal opcode mismatch")
        if r != full:
            return idx
    return -1


def lift_table(n, up, upsets, ntable):
    """Extend an upset-indexed table to all subsets.

    w lands in the lifted value at X iff some upset Y agrees with X on
    R(w) and w is in N(Y). The result is total; on upsets it holds the
    input table's values, and equals them when the table is local.
    """
    size = 1 << n
    out = []
    for x in range(size):
        m = 0
        for w in range(n):
            xr = x & up[w]
            for y in upsets:
                if y & up[w] == xr and (ntable[y] >> w) & 1:
                    m |= 1 << w
                    break
        out.append(m)
    return out


def translation_gap(n, up, ntable, nstar, upsets, depth):
    """Search for a truth-set divergence between the two semantics.

    Pairs (prop truth set, modal truth set) start diagonal at every
    upset valuation and are closed under the connective actions for
    ``depth`` rounds; the prop side uses the Heyting arrow and the
    negation table, the modal side uses the boxed pointwise arrow and
    the lifted table. Returns a packed non-diagonal pair
    (left << n) | right as soon as one appears, else -1.
    """
    full = (1 << n) - 1

    def himp(a, b):
        m = 0
        for w in range(n):
            if up[w] & a & ~b == 0:
                m |= 1 << w
        return m

    def box(a):
        m = 0
        for w in range(n):
            if up[w] & ~a == 0:
                m |= 1 << w
        return m

    pairs = set()
    for u in upsets:
        pairs.add((u << n) | u)
    for _ in range(depth):
        cur = sorted(pairs)
        added = False
        for p in cur:
            la = p >> n
            nl = ntable[la]
            if nl < 0:
                raise ValueError("negation escaped the upset domain")
            cand = (nl << n) | nstar[p & full]
            if cand not in pairs:
                if (cand >> n) != (cand & full):
                    return cand
                pairs.add(cand)
                added = True
        for p in cur:
            la = p >> n
            ra = p & full
            for q in cur:
                lb = q >> n
                rb = q & full
                for cand in (
                    ((la & lb) << n) | (ra & rb),
                    ((la | lb) << n) | (ra | rb),
                    (himp(la, lb) << n) | box((~ra | rb) & full),
                ):
                    if cand not in pairs:
                        if (cand >> n) != (cand & full):
                            return cand
                        pairs.add(cand)
                        added = True
        if not added:
            break
    return -1


def translation_gap_lifted(n, up, ntable, upsets, depth):
    """The one-pass translation gap as it was when it lifted the whole
    table first: the same pass over the upsets, reading N* from the
    lift at all 2**n subsets."""
    if depth < 1:
        return -1
    nstar = lift_table(n, up, upsets, ntable)
    for x in upsets:
        nx = ntable[x]
        if nx < 0:
            raise ValueError("negation escaped the upset domain")
        if nx != nstar[x]:
            return (nx << n) | nstar[x]
    if depth > 1 and any(ntable[ntable[x]] < 0 for x in upsets):
        raise ValueError("negation escaped the upset domain")
    return -1


def en_holds(n, ntable, k):
    """1 iff the k-ary locality-style identity holds for every choice
    of the k framing sets and the argument set."""
    size = 1 << n
    full = size - 1
    for zi in range(size**k):
        t = zi
        inter = full
        for _ in range(k):
            inter &= ntable[t % size]
            t //= size
        for x in range(size):
            if ntable[x] & inter != ntable[x & inter] & inter:
                return 0
    return 1


def rn_holds(n, ntable, k):
    """1 iff the k-premise replacement rule is frame-valid.

    For every valuation of the k guard variables and of q, r: when the
    guarded equivalence of q and r holds at every world, the guarded
    equivalence of their negations must too.
    """
    size = 1 << n
    full = size - 1
    for pi in range(size**k):
        t = pi
        inter = full
        for _ in range(k):
            inter &= ntable[t % size]
            t //= size
        for q in range(size):
            nq = ntable[q]
            for r in range(size):
                if inter & (q ^ r):
                    continue
                if inter & (nq ^ ntable[r]):
                    return 0
    return 1


def search_positive_morphism(nt, t_up, t_down, ns, s_up, s_down):
    """First positive morphism source -> target, else None.

    Domains run over downward-closed source sets in ascending mask
    order; within a domain the assignment search mirrors
    search_order_onto, with the back condition verified on completion.
    Returns (domain mask, map list with -1 outside the domain); None
    for an empty target, as a positive morphism has a nonempty domain.
    """
    if nt == 0:
        return None
    full_t = (1 << nt) - 1
    upsize = [t_up[c].bit_count() for c in range(nt)]
    for dom in range(1 << ns):
        m = dom
        closed = True
        while m:
            w = (m & -m).bit_length() - 1
            if s_down[w] & ~dom:
                closed = False
                break
            m &= m - 1
        if not closed or dom.bit_count() < nt:
            continue
        worlds = [w for w in range(ns) if (dom >> w) & 1]
        f = [-1] * ns

        def assign(i, covered):
            if i == len(worlds):
                if covered != full_t:
                    return False
                for w in worlds:
                    have = 0
                    mm = dom & s_up[w]
                    while mm:
                        u = (mm & -mm).bit_length() - 1
                        have |= 1 << f[u]
                        mm &= mm - 1
                    if t_up[f[w]] & ~have:
                        return False
                return True
            v = worlds[i]
            cand = full_t
            for j in range(i):
                u = worlds[j]
                if (s_up[u] >> v) & 1:
                    cand &= t_up[f[u]]
                if (s_up[v] >> u) & 1:
                    cand &= t_down[f[u]]
            m = cand
            while m:
                c = (m & -m).bit_length() - 1
                m &= m - 1
                if upsize[c] > (dom & s_up[v]).bit_count():
                    continue
                newcov = covered | (1 << c)
                if (full_t & ~newcov).bit_count() <= len(worlds) - i - 1:
                    f[v] = c
                    if assign(i + 1, newcov):
                        return True
            f[v] = -1
            return False

        if assign(0, 0):
            return dom, list(f)
    return None
