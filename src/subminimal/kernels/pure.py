"""The hot evaluation and search loops, in plain Python.

Every ``subminimal.kernels.<name>`` is the function of the same name
here. Worlds, sets and tables are plain ints, lists and tuples, so the
callers stay free of frame objects.

Conventions:

* worlds are 0..n-1 and sets of worlds are bitmasks (bit w = world w);
* ``up[w]`` is the mask of worlds v with w <= v, including w itself;
* ``ntable`` is a flat list of length 2**n mapping a set's mask to the
  mask of its negation value; strict N-frames store -1 at non-upset
  indices, NS4 and orderless tables are total;
* formulas arrive as value-numbered code, one instruction per distinct
  subformula, see kernels.ops.

One slot machine, _run, runs formula code: the refutation searches
call it once per block of positions, and eval_prop and eval_modal call
it at one position; both read a poset's cone lists through _kept. One
loop, _trace_table, builds every table whose value at X is the set of
worlds w whose family holds X & R(w): the lift, the translation gap's
lift at the upsets, and, imported from here, the trace tables of
frames, the tests' from_neighbourhood and the dual frames of algebra.
Two mask helpers sit beside it, imported from here as well: _transpose,
the one bit transpose of a mask list, and _inclusion_cones, the one
inclusion order of a mask list.

The refutation searches evaluate many (frame, valuation) positions at
once, bit-sliced: a truth set is one int per world with one bit per
position. The frames of one search share a poset, so only the negation
lookup tells them apart, through column masks (see _first_refutation).

_layout keeps the last 64 block layouts (see there). What a kernel
derives from one poset alone, the formula kernels' cone lists and the
positive-morphism search's set-up, _kept keeps with the poset's cones,
so it lives as long as the poset.

No closure here names itself: the recursive searches are module-level
functions that take their state as arguments. A closure that calls
itself is a reference cycle, and each call would leave its state to
the cyclic garbage collector instead of freeing it on return.
"""

import functools

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


def eval_prop(code, n, up, ntable, val):
    """Truth set of a propositional formula, or a negative sentinel.

    Returns -1 when a negation lookup hits an index the table does not
    cover (possible on lenient quotient frames) and -2 when the code
    contains a modal opcode. Runs _run at one position (see _eval).
    """
    return _eval(code, n, up, ntable, val, False)


def eval_modal(code, n, up, ntable, val):
    """Truth set of a modal formula on a preorder; -2 on a Neg opcode.

    The table must be total, as the NS4 frames and lift_table give it;
    on a -1 entry that a [n] lookup reaches this returns -1.
    """
    return _eval(code, n, up, ntable, val, True)


def _eval(code, n, up, ntable, val, modal):
    """Both eval kernels: _run at one position, each truth set one 0/1
    int per world, the table read as a block of one frame.

    -1 when a lookup met a negative entry, -2 on an opcode of the other
    language. _run goes on past a hole, so hand-made code that meets a
    hole and later a wrong opcode gives -2, and one that then reads a
    slot not yet filled raises IndexError; compiled code never does
    either.
    """
    atoms = [[(x >> w) & 1 for w in range(n)] for x in val]
    try:
        r, err = _run(code, atoms, [1] * n, [0] * n, _kept(up, _cones, n), 1, n, ntable, modal, "")
    except ValueError:
        return -2
    return -1 if err else sum(b << w for w, b in enumerate(r))


# widest block of search positions (frame, valuation) evaluated at once
_BLOCK = 1 << 12


def _block_box(a, cones, ones):
    """Box of a block truth set: w keeps the positions that put all
    of R(w) in the set."""
    out = []
    for cone in cones:
        m = ones
        for v in cone:
            m &= a[v]
        out.append(m)
    return out


class _Columns(dict):
    """The column masks of the frames of one block, per set x, built on
    first use: the mask of the positions whose frame has a negative
    entry at x, and the (w, mask) pairs, mask marking the positions
    whose frame has w in N(x). Frame j of the block holds the ``width``
    positions from j * width on."""

    def __init__(self, tables, width, n):
        super().__init__()
        self.tables = tables
        self.width = width
        self.n = n

    def __missing__(self, x):
        width = self.width
        hole = 0
        cols = [0] * self.n
        for j, t in enumerate(self.tables):
            seg = ((1 << width) - 1) << (j * width)
            v = t[x]
            if v < 0:
                hole |= seg
                continue
            while v:
                b = v & -v
                cols[b.bit_length() - 1] |= seg
                v ^= b
        self[x] = out = (hole, tuple((w, m) for w, m in enumerate(cols) if m))
        return out


def _block_lookup(a, n, columns, ones):
    """Table lookup of a block truth set: the per-world ints of the
    values, and the bitset of the positions whose entry is negative.

    The positions are grouped by the world set they give, world by
    world, so each distinct set is looked up once: in the column masks
    of a block of several frames (a _Columns), or in the table of a
    block of one frame, which spares a call on one table, such as the
    modal kernel's, building columns it reads once."""
    groups = {0: ones}
    for w in range(n):
        bit = 1 << w
        nxt = {}
        for x, g in groups.items():
            h = g & a[w]
            if h:
                nxt[x | bit] = h
                if h != g:
                    nxt[x] = g ^ h
            else:
                nxt[x] = g
        groups = nxt
    out = [0] * n
    holes = 0
    if isinstance(columns, _Columns):
        for x, g in groups.items():
            hole, cols = columns[x]
            holes |= g & hole
            for w, m in cols:
                out[w] |= g & m
        return out, holes
    for x, g in groups.items():
        v = columns[x]
        if v < 0:
            holes |= g
            continue
        while v:
            b = v & -v
            out[b.bit_length() - 1] |= g
            v ^= b
    return out, holes


@functools.lru_cache(maxsize=64)
def _layout(block, values, nvars, n):
    """The layout of a search over the tuple ``values`` in blocks of at
    most ``block`` bits: (width, low, vecs).

    The last ``low`` variables, as many as fit, run through every digit
    pattern within one frame's width = len(values)**low positions of a
    block. vecs holds their truth sets over those positions, a tuple of
    one int per world each: digit d of variable k holds on runs of
    ``run`` consecutive positions, one run in every run * len(values),
    starting at d * run.

    The layout depends on nothing else, so the last 64 are kept, keyed
    by all four arguments, the least recently used dropped first. The
    caller never passes more than ``block`` values (more leave no
    variable inside a block), so an entry holds at most ``block`` values
    and log2(block) * n ints of ``block`` bits, or with one value
    nvars * n one-bit ints: at the default block and 20 worlds at most
    about 0.16 MiB, 10 MiB for all 64 (measured with tracemalloc); on
    the frames of up to 5 worlds the package searches, a few KiB.
    """
    nu = len(values)
    width = 1
    low = 0
    while low < nvars and width * nu <= block:
        width *= nu
        low += 1
    ones = (1 << width) - 1
    vecs = []
    for k in range(nvars - low, nvars):
        run = nu ** (nvars - 1 - k)
        # run * nu divides width, so this repeats the run pattern
        base = ((1 << run) - 1) * (ones // ((1 << (run * nu)) - 1))
        vec = [0] * n
        for d, x in enumerate(values):
            for w in range(n):
                if (x >> w) & 1:
                    vec[w] |= base << (d * run)
        vecs.append(tuple(vec))
    return width, low, tuple(vecs)


def _cones(up, n):
    """Each world's cone as the tuple of its worlds; read through _kept,
    so a poset's or an NS4 frame's cones (frames._Cones) build them
    once."""
    return tuple(tuple(v for v in range(n) if (up[w] >> v) & 1) for w in range(n))


def _run(code, atoms, top, bot, cones, ones, n, columns, modal, error):
    """The one slot machine: run value-numbered code (kernels.ops) over
    a block of positions, each instruction once, its truth set put in
    the next slot. A truth set is one int per world, bit i set when the
    world is in the set at the block's i-th position; ``ones`` marks
    the positions, ``atoms`` holds the variables' truth sets, ``top``
    and ``bot`` the constants'. The Heyting arrow is box(~a | b), as w's
    cone misses a & ~b exactly when it lies in ~a | b; the modal arrow
    is ~a | b. Neg (prop) and [n] (modal) look the set up in
    ``columns``, the column masks of the block's frames or one table
    (see _block_lookup).

    Returns the truth set of the last instruction and the mask of the
    positions whose lookups met a negative entry; a position that did
    evaluates on as if the entry were empty. An opcode outside the
    language, prop (Var, Top, And, Or, Imp, Neg) or modal (Var, Top,
    Bot, And, Or, Imp, Box, [n]), raises ValueError(error); an operand
    slot not yet filled raises IndexError.
    """
    slots = []
    push = slots.append
    err = 0
    look = OP_BBOX if modal else OP_NEG
    it = iter(code)
    for op, a, b in zip(it, it, it):
        if op == OP_VAR:
            push(atoms[a])
        elif op == OP_IMP:
            c = [(ones & ~x) | y for x, y in zip(slots[a], slots[b])]
            push(c if modal else _block_box(c, cones, ones))
        elif op == OP_AND:
            push([x & y for x, y in zip(slots[a], slots[b])])
        elif op == OP_OR:
            push([x | y for x, y in zip(slots[a], slots[b])])
        elif op == look:
            out, holes = _block_lookup(slots[a], n, columns, ones)
            push(out)
            err |= holes
        elif op == OP_TOP:
            push(top)
        elif op == OP_BOT and modal:
            push(bot)
        elif op == OP_BOX and modal:
            push(_block_box(slots[a], cones, ones))
        else:
            raise ValueError(error)
    return slots[-1], err


def _first_refutation(code, nvars, n, up, tables, values, modal, error):
    """Bit-sliced search behind both find_refuting_valuation_* kernels.

    Search position idx = frame * len(values)**nvars + valuation runs
    frame-major over the tables, all on the one poset given by ``up``.
    Valuation index v gives variable k the value values[digit k of v in
    base len(values)], variable 0 most significant. A block is a run of
    consecutive positions. When the valuations of one frame fit in
    _BLOCK bits, a block holds as many whole frames as fit; otherwise
    it holds width = len(values)**j consecutive valuations of one
    frame, the last j variables running through every digit pattern
    and the others fixed by the block number. Each block runs the code
    once through _run, all its positions at once. The N and [n] lookups
    group the positions by truth set and, for each set x, OR in the
    column masks of x: per world w the positions whose frame has w in
    N(x), and the positions whose frame has a negative entry at x (see
    _Columns); a block of one frame reads its table. Blocks
    run in ascending order and the search stops in the first block that
    holds a refutation or an error, at its lowest position, so the
    result is that of evaluating one valuation of one frame at a time,
    frame by frame. The code must be well-formed value-numbered code
    (kernels.ops) over the variables below max(nvars, 1); with no
    variables, variable 0 is the empty set. A subformula shared by
    several parents has one instruction, run once per block: its truth
    set is the same wherever it occurs, and so is the set of positions
    whose lookups meet a hole in it.

    The layout and the truth sets of the variables inside a block come
    from _layout, keyed by values as a tuple (callers pass tuples,
    lists and ranges); a block of several frames repeats one frame's.

    When ``tables`` has a ``columns`` attribute, a dict, the column
    masks built for it are kept there, keyed by block layout, so a
    caller that searches the same tables again builds them once.
    Otherwise each block's masks are dropped when the next block starts:
    with several frames per block each group of frames is met once per
    call, so keeping them would only hold masks that are never read
    again, a whole class's worth on a call over all its frames.

    Prop code (modal False): a position that reaches a negative table
    entry is an error, and so is any opcode other than Var, Top, And,
    Or, Imp and Neg. Modal code: any Neg opcode is an error, and the
    tables must hold a world mask at every subset.
    """
    nu = len(values)
    per = nu**nvars
    nf = len(tables)
    if per == 0 or nf == 0:
        return -1
    if nu > _BLOCK:
        # no variable runs inside a block; keep no key that long
        width, low, vecs = 1, 0, ()
    else:
        width, low, vecs = _layout(_BLOCK, tuple(values), nvars, n)
    high = nvars - low
    # frames per block, and blocks per group of fpb frames
    fpb = min(nf, _BLOCK // width) if high == 0 else 1
    per_group = nu**high
    span = fpb * width
    ones = (1 << span) - 1
    cones = _kept(up, _cones, n)
    top = [ones] * n
    bot = [0] * n
    atoms = [bot] * max(nvars, 1)
    if fpb > 1:
        # one frame's pattern, repeated for each frame of the block
        rep = ones // ((1 << width) - 1)
        vecs = [[x * rep for x in vec] for vec in vecs]
    atoms[high:nvars] = vecs
    memo = getattr(tables, "columns", None)
    if fpb > 1 and memo is not None:
        memo = memo.setdefault((width, fpb), {})
    for block in range(-(-nf // fpb) * per_group):
        group, t = divmod(block, per_group)
        if fpb == 1:
            columns = tables[group]
            live = ones
        else:
            columns = memo.get(group) if memo is not None else None
            if columns is None:
                columns = _Columns(tables[group * fpb : (group + 1) * fpb], width, n)
                if memo is not None:
                    memo[group] = columns
            # the positions of the frames this block holds
            live = (1 << (len(columns.tables) * width)) - 1
        for k in range(high - 1, -1, -1):
            x = values[t % nu]
            t //= nu
            atoms[k] = [ones if (x >> w) & 1 else 0 for w in range(n)]
        r, err = _run(code, atoms, top, bot, cones, ones, n, columns, modal, error)
        bad = err
        for w in range(n):
            bad |= live & ~r[w]
        if bad:
            first = bad & -bad
            if err & first:
                raise ValueError(error)
            return block * span + first.bit_length() - 1
    return -1


def find_refuting_valuation_prop(code, nvars, n, up, tables, upsets):
    """First refuting position over a sequence of tables on one poset,
    or -1 if every table validates the formula.

    The position is frame * len(upsets)**nvars + valuation, frame the
    index of the table in ``tables``; with one table it is the index of
    the valuation. Valuations assign upsets to variables; index digits
    run over the ascending upset list with variable 0 most significant,
    so ascending indices are lexicographic valuations. Raises
    ValueError when, in position order, a valuation reaches a negative
    table entry before any position refutes the formula, or when the
    code holds a modal opcode. A ``columns`` dict attribute on
    ``tables`` keeps the column masks for a later search of the same
    tables (see _first_refutation).
    """
    return _first_refutation(
        code, nvars, n, up, tables, upsets, False,
        "evaluation left the negation table domain",
    )


def find_refuting_valuation_modal(code, nvars, n, up, ntable):
    """Like find_refuting_valuation_prop on one table, with arbitrary
    subsets as values.

    The table must be total, a world mask at every subset, as the NS4
    frames and lift_table give it: a negative entry raises ValueError
    before any valuation is tried. Raises ValueError too when the code
    holds a Neg opcode.
    """
    if min(ntable) < 0:
        raise ValueError("modal table has a negative entry; it must cover every subset")
    return _first_refutation(
        code, nvars, n, up, (ntable,), range(1 << n), True, "modal opcode mismatch"
    )


def locality_violation(n, upsets, ntable):
    """First (i, j) with N(X_i) & X_j != N(X_i & X_j) & X_j, packed as
    i * len(upsets) + j; -1 when the locality law holds throughout."""
    nu = len(upsets)
    for i in range(nu):
        x = upsets[i]
        nx = ntable[x]
        for j in range(nu):
            y = upsets[j]
            if nx & y != ntable[x & y] & y:
                return i * nu + j
    return -1


def ns4_table_violation(n, up, ntable):
    """Check a total table against the NS4 frame conditions.

    Returns 2*X when N(X) is not upward closed, 2*X+1 when locality
    fails at X, -1 when the table is a valid NS4 negation.
    """
    size = 1 << n
    for x in range(size):
        v = ntable[x]
        m = v
        while m:
            w = (m & -m).bit_length() - 1
            if up[w] & ~v:
                return 2 * x
            m &= m - 1
        for w in range(n):
            if ((v >> w) & 1) != ((ntable[x & up[w]] >> w) & 1):
                return 2 * x + 1
    return -1


def _cuts(n, up, upsets, ntable):
    """Per world w: its cone, its bit, and the cuts Y & R(w) of the
    upsets Y with w in N(Y); a -1 entry puts every world in N(Y)."""
    return [
        (up[w], 1 << w, {y & up[w] for y in upsets if (ntable[y] >> w) & 1})
        for w in range(n)
    ]


def _trace_table(n, cuts, domain):
    """The one trace-family loop: the flat table over the domain sets,
    -1 elsewhere, whose value at x holds w exactly when x & R(w) is in
    w's family. ``cuts`` gives (R(w), 1 << w, family) per world, as
    _cuts does. lift_table, translation_gap, the trace tables of
    frames._trace_tables, the tests' from_neighbourhood and the dual
    frame of algebra._dual all build their tables here."""
    table = [-1] * (1 << n)
    for x in domain:
        m = 0
        for cone, bit, family in cuts:
            if x & cone in family:
                m |= bit
        table[x] = m
    return table


def _transpose(rows, width):
    """The one mask transpose: bit i of out[j] is bit j of rows[i], for
    the width entries of out; every row lies below 1 << width. The down
    sets of frames.Poset, the hats of algebra's prime filters and the
    signatures and class members of filtration are transposes."""
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            out[j] |= bit
    return out


def _inclusion_cones(masks):
    """The one inclusion order: j is in cone i exactly when masks[i]
    lies inside masks[j]. The dual frame orders its prime filters so,
    the greatest filtration its classes by their signatures."""
    out = []
    for a in masks:
        cone = 0
        for j, b in enumerate(masks):
            if a & ~b == 0:
                cone |= 1 << j
        out.append(cone)
    return out


def lift_table(n, up, upsets, ntable):
    """Extend an upset-indexed table to all subsets.

    w lands in the lifted value at X iff some upset Y agrees with X on
    R(w) and w is in N(Y). The result is total. On an upset X it holds
    N(X) (take Y = X), and equals it when the table is local (see
    modal.lift_nstar); a table that is not local can gain worlds there.
    The cuts Y & R(w) of the upsets Y with w in N(Y) are collected once
    per world, so each X costs one set lookup per world in _trace_table.
    """
    return _trace_table(n, _cuts(n, up, upsets, ntable), range(1 << n))


def translation_gap(n, up, ntable, upsets, depth):
    """Search for a truth-set divergence between the two semantics.

    Pairs (prop truth set, modal truth set) start diagonal at every
    upset valuation and are closed under the connective actions for
    ``depth`` rounds; the prop side uses the Heyting arrow and the
    negation table, the modal side uses the boxed pointwise arrow and
    N*, the lift of the table (lift_table). Returns the first
    non-diagonal pair as (left << n) | right, else -1; a negation
    undefined on a set raises ValueError.

    Precondition: ``upsets`` holds every upset of ``up`` in ascending
    order, and ``ntable`` is -1 off them, as NFrame keeps it.

    One ascending pass over the upsets decides the closure:

    1. Meet, join and the arrow keep diagonal pairs diagonal: w is in
       himp(a, b) iff R(w) misses a & ~b iff w is in box(~a | b). Their
       results are upsets, all present from the start, so only
       negation adds a pair, and it sends (x, x) to (N(x), N*(x)).
    2. Round 1 negates the upsets in ascending order, so the first
       hole raises and the first difference is the witness, whichever
       comes first.
    3. Otherwise round 1 adds (v, v) for each value v = N(x) that is
       not an upset. Round 2 negates before it combines, and N is -1
       at those values, so it raises. If no value leaves the upsets,
       no later round adds anything.

    So for depth >= 1 the answer depends on depth only as 1 or >= 2.
    The pass reads N* at the upsets alone, so it lifts the table there
    only, in one _trace_table call over the cuts lift_table collects,
    and never at the other subsets; the scan then runs over the upsets
    in ascending order, so the first hole and the first witness are
    those of lifting one upset at a time.
    """
    if depth < 1:
        return -1
    star = _trace_table(n, _cuts(n, up, upsets, ntable), upsets)
    for x in upsets:
        nx = ntable[x]
        if nx < 0:
            raise ValueError("negation escaped the upset domain")
        if nx != star[x]:
            return (nx << n) | star[x]
    # every upset has a value now, so a value v is off the upsets
    # exactly when N(v) is -1
    if depth > 1 and any(ntable[ntable[x]] < 0 for x in upsets):
        raise ValueError("negation escaped the upset domain")
    return -1


def _guard_sets(ntable, k):
    """The guard sets the k-ary laws are checked at: none at k = 0,
    whose one guard, the full set W, makes the identity read
    N(x) & W == N(x & W) & W, that is N(x) == N(x), which cannot fail;
    and for k >= 1 the distinct table values in table order (a -1 entry
    acts as the full set, as i & -1 == i), so that the kernels stop at
    the first failing set.

    The laws range over every intersection of k table values, repeats
    allowed, but for k >= 1 the values alone decide them. Write E(I)
    for the identity N(x) & I == N(x & I) & I at every x. E(I) and E(J)
    give E(I & J): by E(I), N(x) & I & J == N(x & I) & I & J, and by
    E(J) at x & I, N(x & I) & J == N(x & I & J) & J, so
    N(x) & I & J == N(x & I & J) & I & J. By induction E holds at every
    intersection of values once it holds at each value, and each value
    is such an intersection (repeat it k times), so the law at any
    k >= 1 is the law at k = 1. The replacement rule at I, that
    N(q) & I depends only on q & I, is E(I): E(I) makes it
    N(q & I) & I, and conversely q and q & I have the same cut q & I,
    so N(q) & I == N(q & I) & I. So the rule is the law, and rn_holds
    is en_holds.
    """
    return dict.fromkeys(ntable) if k else ()


def en_holds(n, ntable, k):
    """1 iff the k-ary locality-style identity holds for every choice
    of the k framing sets and the argument set; every k >= 1 gives the
    answer of k = 1 (see _guard_sets)."""
    size = 1 << n
    for inter in _guard_sets(ntable, k):
        for x in range(size):
            if ntable[x] & inter != ntable[x & inter] & inter:
                return 0
    return 1


# 1 iff the k-premise replacement rule is frame-valid: for every
# valuation of the k guard variables and of q, r, when the guarded
# equivalence of q and r holds at every world, so does that of their
# negations. At each guard set the rule is the intersection law (see
# _guard_sets), so this name is bound to en_holds.
rn_holds = en_holds


def search_order_onto(nt, t_up, t_down, ns, s_up, s_down):
    """First onto order-preserving map source -> target, else None.

    Maps are built world by world in index order with ascending
    candidate targets, so the returned list is the least witness in
    that enumeration order.
    """
    if ns < nt:
        return None
    full_t = (1 << nt) - 1
    f = [-1] * ns
    if _order_onto_from(0, 0, f, full_t, t_up, t_down, ns, s_up, s_down):
        return list(f)
    return None


def _order_onto_from(v, covered, f, full_t, t_up, t_down, ns, s_up, s_down):
    """Whether f, set below world v with image covered, extends to an
    onto order-preserving map; the first extension is left in f."""
    if v == ns:
        return covered == full_t
    cand = full_t
    for u in range(v):
        if (s_up[u] >> v) & 1:
            cand &= t_up[f[u]]
        if (s_down[u] >> v) & 1:
            cand &= t_down[f[u]]
    m = cand
    while m:
        c = (m & -m).bit_length() - 1
        m &= m - 1
        newcov = covered | (1 << c)
        if (full_t & ~newcov).bit_count() <= ns - v - 1:
            f[v] = c
            if _order_onto_from(v + 1, newcov, f, full_t, t_up, t_down, ns, s_up, s_down):
                return True
    f[v] = -1
    return False


def search_positive_morphism(nt, t_up, ns, s_up):
    """First positive morphism source -> target, else None.

    Returns (domain mask, map list with -1 outside the domain) for the
    first downward-closed domain D of at least nt worlds, in ascending
    mask order, that carries one, with its least morphism in world
    index order. The up masks give partial orders.

    f on D is a positive morphism iff it is onto and f(up(w) & D) =
    up(f(w)) for every w in D: forth (w <= u gives f(w) <= f(u)) is the
    inclusion, back (f(w) <= c gives a u >= w in D with f(u) = c) the
    converse. Worlds are visited in ascending |up(w)|, so those strictly
    above w, whose cones are smaller, are mapped already; with A their
    image, f(up(w) & D) is A plus f(w), so the values allowed at w are
    the c with t_up[c] == A | 1 << c, kept in one dict keyed by t_up[c]
    and by t_up[c] minus c. With the onto prune, the search finds a
    morphism iff one exists, also with some worlds pinned to values.

    The least one: from the first morphism g found, fix the worlds in
    index order, each to the least c for which a morphism with the
    earlier worlds fixed and this one pinned to c exists; only c below
    g(w) needs a search. Each step keeps a morphism with the fixed
    prefix and rules out every smaller value at its world.

    Two refusals come first, read from each poset's kept profile
    (_profile); say f on D is a morphism. (1) Depth: a target world c
    on a chain c = c1 < ... < ch is f(w) for some w in D, f being onto;
    back gives u >= w in D with f(u) = c2, so u > w, and so on up: w
    starts a chain of h source worlds. One such w per c is an
    injection, so at each h at least as many source as target worlds
    start a chain of h worlds (h = 1: ns >= nt). (2) Signature: at ns
    == nt, D is the source and f a bijection with f(up(w)) = up(f(w)),
    and back gives w <= u iff f(w) <= f(u): an order isomorphism, which
    keeps each world's cone and down-set sizes. Refusing only pairs
    with no morphism keeps every answer and first witness. An empty
    target has none, as a domain is nonempty.

    The set-up depends on one poset alone (the domains also on ns -
    nt), so _kept keeps it with that poset's cones.
    """
    if nt == 0:
        return None
    t_depth, t_sig = _kept(t_up, _profile, nt)
    s_depth, s_sig = _kept(s_up, _profile, ns)
    if (
        len(s_depth) < len(t_depth)
        or any(map(int.__lt__, s_depth, t_depth))
        or ns == nt and s_sig != t_sig
    ):
        return None
    full_t = (1 << nt) - 1
    allowed = _kept(t_up, _allowed, nt)
    above, by_cone = _kept(s_up, _strict, ns)
    for dom in _kept(s_up, _domains, ns, ns - nt):
        order = [w for w in by_cone if (dom >> w) & 1]
        pins = [full_t] * ns
        f = [-1] * ns
        if _positive_from(0, 0, f, order, above, dom, allowed, pins, full_t):
            best = list(f)
            for w in sorted(order):
                for c in range(best[w]):
                    pins[w] = 1 << c
                    if _positive_from(0, 0, f, order, above, dom, allowed, pins, full_t):
                        best = list(f)
                        break
                pins[w] = 1 << best[w]
            return dom, best
    return None


def _kept(up, build, *args):
    """build(up, *args), kept in the instance dict of ``up`` when it
    has one, as the cones of a Poset or an NS4Frame (frames._Cones) do,
    so the searches on that poset build it once; plain tuples and lists
    build it per call. The key holds build and args, so no entry is read
    for other sizes."""
    memo = getattr(up, "__dict__", None)
    if memo is None:
        return build(up, *args)
    key = (build, *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = build(up, *args)
    return out


def _allowed(t_up, nt):
    """The target's allowed values: t_up[c] and t_up[c] minus c, each
    mapped to the mask of the c it allows."""
    allowed = {}
    for c in range(nt):
        for key in (t_up[c], t_up[c] & ~(1 << c)):
            allowed[key] = allowed.get(key, 0) | 1 << c
    return allowed


def _strict(s_up, ns):
    """The source's strict cones, and its worlds in ascending cone
    size."""
    above = [s_up[w] & ~(1 << w) for w in range(ns)]
    return above, sorted(range(ns), key=lambda w: s_up[w].bit_count())


def _profile(up, n):
    """The depth profile, entry h the count of worlds that start a chain
    of h + 1 worlds, and the sorted (cone size, down-set size) pairs,
    each one int c * (n + 1) + d (both are at most n): a tuple per
    world cost 0.5 MiB of companions peak RSS. Worlds above w have
    smaller cones, so their heights come first."""
    above, by_cone = _kept(up, _strict, n)
    height = [0] * n
    down = [1] * n
    for w in by_cone:
        h = 0
        m = above[w]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            down[v] += 1
            h = max(h, height[v])
        height[w] = h + 1
    depth = tuple(sum(x > h for x in height) for h in range(max(height, default=0)))
    return depth, tuple(sorted(c.bit_count() * (n + 1) + d for c, d in zip(up, down)))


def _domains(s_up, ns, spare):
    """The source's downward-closed domains of at least ns - spare
    worlds, in ascending mask order: the complements of its upsets of
    at most spare worlds, grown a world at a time."""
    above = _kept(s_up, _strict, ns)[0]
    cut = {0}
    grown = [0]
    for u in grown:
        if u.bit_count() < spare:
            for w in range(ns):
                v = u | (1 << w)
                if v != u and above[w] & ~u == 0 and v not in cut:
                    cut.add(v)
                    grown.append(v)
    return tuple(sorted(((1 << ns) - 1) ^ u for u in cut))


def _positive_from(i, covered, f, order, above, dom, allowed, pins, full_t):
    """Whether f, set on order[:i] with image covered, extends to a
    positive morphism on the domain dom whose values lie in pins; the
    first extension is left in f. See search_positive_morphism."""
    if i == len(order):
        return covered == full_t
    w = order[i]
    image = 0
    m = above[w] & dom
    while m:
        image |= 1 << f[(m & -m).bit_length() - 1]
        m &= m - 1
    m = allowed.get(image, 0) & pins[w]
    while m:
        c = (m & -m).bit_length() - 1
        m &= m - 1
        newcov = covered | (1 << c)
        if (full_t & ~newcov).bit_count() < len(order) - i:
            f[w] = c
            if _positive_from(i + 1, newcov, f, order, above, dom, allowed, pins, full_t):
                return True
    return False
