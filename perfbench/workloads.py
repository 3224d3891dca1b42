"""The four benchmark workloads: seeded inputs, item runners, output gates.

Each workload is a class with

* ``build(rng, root, count)``: about ``count`` inputs, as a list of
  ``(kind, data)`` pairs. ``data`` is plain Python data (ints, tuples, strings) drawn by the
  benchmark's own generators below, so a change to the package cannot
  change the inputs. The structures the workload names as set-up (the
  algebra corpus, the top frames, the unlabeled posets) are built here
  too, through the package.
* ``per_s``: the items per second of run time the workload is sized
  to: at the benchmark's seconds, one stream of ``per_s * seconds / 3``
  items takes about a third of them on a 2-vCPU shared Xeon with the
  pure backend.
* ``run(kind, data)``: one item, the work a user waits for. It returns
  the item's raw result.
* ``check(kind, data, result)``: the output gate, run outside the timed
  region. It raises ``GateError`` on a wrong answer and returns the
  item's outcome: ``(outcome class, witness text)``. The witness texts
  of a whole pass make the digest that ``frozen.json`` pins.

Package functions are looked up on their modules at call time
(``_pkg``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

NAMES = ("p", "q")


class GateError(Exception):
    """An item's output failed its check."""


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


# --------------------------------------------------------------------------
# input generators (independent of the package)


def random_tree(rng: random.Random, names, depth: int):
    """A random propositional formula of connective depth <= depth, as
    a nested tuple: a variable name, "T", ("~", a) or (op, a, b)."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(list(names) + ["T"])
    op = rng.choice(("&", "|", "->", "~"))
    if op == "~":
        return ("~", random_tree(rng, names, depth - 1))
    return (op, random_tree(rng, names, depth - 1), random_tree(rng, names, depth - 1))


def text(tree) -> str:
    if isinstance(tree, str):
        return tree
    if tree[0] == "~":
        return "~" + text(tree[1])
    return f"({text(tree[1])} {tree[0]} {text(tree[2])})"


def _classical(tree, env) -> bool:
    if isinstance(tree, str):
        return True if tree == "T" else env[tree]
    if tree[0] == "~":
        return not _classical(tree[1], env)
    a, b = _classical(tree[1], env), _classical(tree[2], env)
    return {"&": a and b, "|": a or b, "->": not a or b}[tree[0]]


def tautology(tree, names=NAMES) -> bool:
    """Classical validity. A classical non-tautology fails on the
    one-world frame with classical negation, which every logic's class
    holds, so only tautologies can make a search exhaust its frames."""
    return all(
        _classical(tree, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    )


def formula_text(rng: random.Random, names, depth: int) -> str:
    return text(random_tree(rng, names, depth))


def _close(cones: list[int]) -> tuple[int, ...]:
    n = len(cones)
    cones = list(cones)
    for k in range(n):
        for w in range(n):
            if (cones[w] >> k) & 1:
                cones[w] |= cones[k]
    return tuple(cones)


def random_poset(rng: random.Random, n: int) -> tuple[int, ...]:
    """Up-masks of a poset drawn by thinning a shuffled linear order."""
    perm = list(range(n))
    rng.shuffle(perm)
    cones = [1 << w for w in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                cones[perm[a]] |= 1 << perm[b]
    return _close(cones)


def random_preorder(rng: random.Random, n: int) -> tuple[int, ...]:
    cones = [1 << w for w in range(n)]
    for w in range(n):
        for v in range(n):
            if v != w and rng.random() < 0.35:
                cones[w] |= 1 << v
    return _close(cones)


def upsets(n: int, cones) -> list[int]:
    return [
        x
        for x in range(1 << n)
        if all(cones[w] & ~x == 0 for w in range(n) if (x >> w) & 1)
    ]


def trace_table(rng: random.Random, n: int, cones, domain) -> tuple[int, ...]:
    """A lawful negation table over ``domain`` (ascending masks).

    World w holds N(X) iff X cut to w's cone lies in w's trace family.
    Families are drawn from small cones outward, each trace cut to a
    higher cone landing in that cone's family, so the values are
    cone-closed and local by construction. Worlds with one cone share a
    family. Entries outside ``domain`` are -1.
    """
    families: dict[int, set[int]] = {}
    for cone in sorted(set(cones), key=lambda c: (bin(c).count("1"), c)):
        higher = sorted({cones[v] for v in range(n) if (cone >> v) & 1} - {cone})
        families[cone] = {
            z
            for z in sorted({x & cone for x in domain})
            if all(z & h in families[h] for h in higher) and rng.random() < 0.5
        }
    table = [-1] * (1 << n)
    for x in domain:
        table[x] = sum(1 << w for w in range(n) if x & cones[w] in families[cones[w]])
    return tuple(table)


def random_frame(rng: random.Random, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    up = random_poset(rng, n)
    return n, up, trace_table(rng, n, up, upsets(n, up))


def random_model(rng: random.Random, n: int, names):
    n, up, table = random_frame(rng, n)
    ups = upsets(n, up)
    return n, up, table, tuple((x, rng.choice(ups)) for x in names)


def _subtrees(tree):
    yield tree
    if not isinstance(tree, str):
        for sub in tree[1:]:
            yield from _subtrees(sub)


def truth(tree, n, up, table, val) -> int:
    """Truth set of a formula tree in a model, as a world mask."""
    if isinstance(tree, str):
        return (1 << n) - 1 if tree == "T" else val[tree]
    if tree[0] == "~":
        return table[truth(tree[1], n, up, table, val)]
    a = truth(tree[1], n, up, table, val)
    b = truth(tree[2], n, up, table, val)
    if tree[0] == "&":
        return a & b
    if tree[0] == "|":
        return a | b
    return sum(1 << w for w in range(n) if up[w] & a & ~b == 0)


def filtration_count(model, tree) -> int:
    """How many filtrations the model has through the subformula closure
    of the tree: Sigma-agreement classes, every transitive order between
    the projected source order and the greatest one, and on each quotient
    upset any subset of the projected negation of its preimage, except
    where a negated Sigma formula pins the value."""
    n, up, table, val = model
    val = dict(val)
    sigma = set(_subtrees(tree))
    sets = [truth(f, n, up, table, val) for f in sigma]
    profiles = sorted({tuple((t >> w) & 1 for t in sets) for w in range(n)})
    pi = [profiles.index(tuple((t >> w) & 1 for t in sets)) for w in range(n)]
    k = len(profiles)
    members = [sum(1 << w for w in range(n) if pi[w] == c) for c in range(k)]

    def project(mask):
        out = 0
        for w in range(n):
            if (mask >> w) & 1:
                out |= 1 << pi[w]
        return out

    floor = [1 << c for c in range(k)]
    for w in range(n):
        floor[pi[w]] |= project(up[w])
    ceil = [
        sum(1 << d for d in range(k) if all(a <= b for a, b in zip(profiles[c], profiles[d])))
        for c in range(k)
    ]
    gap = [(c, d) for c in range(k) for d in range(k) if (ceil[c] & ~floor[c]) >> d & 1]
    forced = {
        project(truth(f[1], n, up, table, val))
        for f in sigma
        if not isinstance(f, str) and f[0] == "~"
    }
    total = 0
    for pick in range(1 << len(gap)):
        order = list(floor)
        for i, (c, d) in enumerate(gap):
            if (pick >> i) & 1:
                order[c] |= 1 << d
        if any(order[d] & ~order[c] for c in range(k) for d in range(k) if order[c] >> d & 1):
            continue
        ways = 1
        for x in upsets(k, order):
            if x not in forced:
                pre = sum(members[c] for c in range(k) if (x >> c) & 1)
                ways <<= bin(project(table[pre])).count("1")
        total += ways
    return total


def sample(rng: random.Random, count: int, draw, key, spread: int = 8, finish=None) -> list:
    """``count`` inputs from the generator ``draw(rng)``, stratified.

    ``spread * count`` seeded draws are ordered by ``key``, a cost proxy
    the benchmark computes itself, and every ``spread``-th is kept from a
    seeded offset, then the kept ones are shuffled. Each kept input is a
    plain draw, so the sample follows the generator's own distribution
    (no share is chosen by hand), while its cost does not hinge on the
    luck of a few costly draws. ``finish(rng, kept)`` completes a kept
    draw with the parts the cost proxy does not depend on, so that they
    are drawn only for the inputs kept.
    """
    pool = sorted((draw(rng) for _ in range(spread * count)), key=key)
    chosen = pool[rng.randrange(spread) :: spread]
    rng.shuffle(chosen)
    return chosen if finish is None else [finish(rng, d) for d in chosen]


def _split(count: int, weights: dict[str, int]) -> dict[str, int]:
    """``count`` divided in proportion to ``weights`` (largest remainder)."""
    total = sum(weights.values())
    exact = {k: count * w / total for k, w in weights.items()}
    out = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: out[k] - exact[k])[: count - sum(out.values())]:
        out[k] += 1
    return out


def positive_exists(target_up, source_up) -> bool:
    """Whether some partial map from the source poset onto the target
    (up-masks, target with a top) has a downward-closed domain D and
    maps each world's cone within D onto the cone of its image. That is
    ``positive_morphism``'s contract, decided here by a search of the
    benchmark's own: worlds of D are assigned from the top down, so a
    world's cone above it is already mapped, and its image c must have
    exactly that image plus c as its own cone."""
    nt, ns = len(target_up), len(source_up)
    full_t = (1 << nt) - 1
    for dom in range(1, 1 << ns):
        if bin(dom).count("1") < nt:
            continue
        if any((dom >> w) & 1 and source_up[v] >> w & 1 and not (dom >> v) & 1 for w in range(ns) for v in range(ns)):
            continue
        # worlds of the domain, largest first: a world's strict cone is
        # mapped before the world itself
        order = sorted((w for w in range(ns) if (dom >> w) & 1), key=lambda w: bin(source_up[w] & dom).count("1"))
        image = [0] * ns

        def assign(i: int, hit: int) -> bool:
            if i == len(order):
                return hit == full_t
            w = order[i]
            above = 0
            for u in range(ns):
                if u != w and (dom >> u) & 1 and (source_up[w] >> u) & 1:
                    above |= 1 << image[u]
            for c in range(nt):
                if target_up[c] == above | (1 << c):
                    image[w] = c
                    if assign(i + 1, hit | (1 << c)):
                        return True
            return False

        if assign(0, 0):
            return True
    return False


def is_positive(target_up, source_up, partial: dict[int, int]) -> bool:
    """The contract of ``positive_exists`` for one given partial map."""
    ns = len(source_up)
    dom = sum(1 << w for w in partial)
    if set(partial.values()) != set(range(len(target_up))):
        return False
    for w, c in partial.items():
        if any(source_up[v] >> w & 1 and not (dom >> v) & 1 for v in range(ns)):
            return False
        cone = {partial[u] for u in partial if (source_up[w] >> u) & 1}
        if sum(1 << d for d in cone) != target_up[c]:
            return False
    return True


def is_order_onto(target_up, source_up, total) -> bool:
    """A total map from the source onto the target that keeps the order."""
    ns = len(source_up)
    if len(total) != ns or set(total) != set(range(len(target_up))):
        return False
    return all(
        target_up[total[w]] >> total[u] & 1 for w in range(ns) for u in range(ns) if source_up[w] >> u & 1
    )


def _pkg():
    import subminimal.algebra as algebra
    import subminimal.antichain as antichain
    import subminimal.cli as cli
    import subminimal.filtration as filtration
    import subminimal.frames as frames
    import subminimal.modal as modal
    import subminimal.syntax as syntax

    return algebra, antichain, cli, filtration, frames, modal, syntax


def _nmodel(data):
    _, _, _, _, frames, _, _ = _pkg()
    n, up, table, val = data
    return frames.NModel(frames.NFrame(frames.Poset(n, up), table), dict(val))


# --------------------------------------------------------------------------
# decide: the CLI answering decide / countermodel requests


def _formula_stratum(tree) -> str:
    if not tautology(tree):
        return "refutable"
    return "taut2" if len({f for f in _subtrees(tree) if f in NAMES}) == 2 else "taut1"


class Decide:
    """A seeded subcommand (decide or countermodel), one of the four
    logics and a random formula over p, q of depth at most 3, always with
    three worlds at most. Of the generator's formulas, 67 % are classical
    non-tautologies, refuted on a one-world frame in a few milliseconds;
    the other 33 % (18 % on one variable, 15 % on two) are tautologies,
    which mostly exhaust every frame up to the bound and take most of a
    run's time. The sample is stratified by that class, logic,
    subcommand and formula size."""

    name = "decide"
    per_s = 50

    def build(self, rng, root, count):
        def draw(rng):
            cmd = rng.choice(("decide", "countermodel"))
            logic = rng.choice(("n", "nef", "copc", "mpc"))
            tree = random_tree(rng, NAMES, 3)
            return _formula_stratum(tree), logic, cmd, len(set(_subtrees(tree))), text(tree)

        return [
            (f"{cmd}.{logic}.{stratum}", (cmd, formula, "--logic", logic, "--max-worlds", "3"))
            for stratum, logic, cmd, _, formula in sample(rng, count, draw, key=lambda d: d[:4])
        ]

    def run(self, kind, argv):
        cli = _pkg()[2]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, kind, argv, result):
        _, _, _, _, frames, _, syntax = _pkg()
        code, printed = result
        payload = json.loads(printed)
        status = payload.get("status")
        _need(code in (0, 1, 2), f"exit code {code}")
        if kind.endswith(".refutable"):
            # refuted on the one-world frame, which every logic's class holds
            _need(code == 1, f"a classical non-tautology answered exit {code}")
        if code == 1:
            _need(status == "refuted", f"exit 1 with status {status}")
            m = frames.model_from_dict(payload["model"])
            logic = syntax.LOGICS[argv[3]]
            _need(m.frame.n <= 3, "witness beyond the world bound")
            _need(frames.check_nframe(m.frame.poset, m.frame.ntable) is None, "witness breaks locality")
            _need(frames.frame_class(m.frame, logic), "witness outside the logic's class")
            value = frames.eval_formula(m, syntax.parse(argv[1]))
            _need(not (value >> payload["world"]) & 1, "witness does not refute")
        elif code == 2:
            _need(status == "error", "exit 2 without an error payload")
            _need("above the limit of 3" in payload["error"], "exit 2 is not the resource limit")
        else:
            _need(status in ("theorem", "no-countermodel-up-to-bound"), f"exit 0 with {status}")
        return f"exit{code}.{status}", f"{code} {printed.strip()}"


# --------------------------------------------------------------------------
# filtrate: greatest filtrations and, on small models, all of them

# Largest enumeration admitted, in filtrations times |Sigma|, about
# 0.2 s of work. Enumeration grows exponentially: of the generator's
# enumeration draws 1.9 % exceed it and one in a thousand exceeds
# 720,000 (one 3-world model has 288,768 filtrations), so those are drawn
# again, as the limit of three worlds already does for larger models.
WORK_CAP = 5000


class Filtrate:
    """Random models on 1 to 5 worlds, Sigma the closure of a random
    formula of depth at most 3. A quarter of the items on at most three
    worlds also enumerate every filtration and check each against the
    greatest one; that costs about the number of filtrations times
    |Sigma|, which ``filtration_count`` gives beforehand, so the sample
    is stratified by that cost, and by world count and |Sigma|."""

    name = "filtrate"
    per_s = 600

    def build(self, rng, root, count):
        def draw(rng):
            n = rng.randint(1, 5)
            names = NAMES[: rng.randint(1, 2)]
            tree = random_tree(rng, names, 3)
            size = len(set(_subtrees(tree)))
            if n > 3 or rng.random() >= 0.25:
                return "greatest", 0, n, size, names, tree, None
            while True:
                model = random_model(rng, n, names)
                total = filtration_count(model, tree)
                if total * size <= WORK_CAP:
                    return "enumerate", total * size, n, size, names, tree, (model, total)
                names = NAMES[: rng.randint(1, 2)]
                tree = random_tree(rng, names, 3)
                size = len(set(_subtrees(tree)))

        def finish(rng, d):
            mode, _, n, _, names, tree, drawn = d
            model, total = drawn or (random_model(rng, n, names), None)
            return f"{mode}.{n}", (model, text(tree), total)

        return sample(rng, count, draw, key=lambda d: d[:4], finish=finish)

    def run(self, kind, data):
        _, _, _, filtration, _, _, syntax = _pkg()
        model, formula, _ = data
        m = _nmodel(model)
        sigma = filtration.close_sigma([syntax.parse(formula)])
        r = filtration.greatest_filtration(m, sigma)
        out = [r, len(sigma), filtration.check_conditions(m, r), filtration.filtration_theorem_check(m, r)]
        if kind.startswith("enumerate"):
            every = filtration.enumerate_filtrations(m, sigma)
            out.append([filtration.greatest_among(m, sigma, f) for f in every])
        return out

    def check(self, kind, data, result):
        r, size, conditions, theorem = result[:4]
        _need(conditions is None, f"filtration conditions fail: {conditions}")
        _need(theorem is None, f"filtration theorem fails: {theorem}")
        q = r.quotient
        _need(q.frame.n <= 2**size, "quotient larger than 2^|Sigma|")
        witness = f"{r.pi} {q.frame.poset.up} {q.frame.ntable} {sorted(q.valuation.items())}"
        if kind.startswith("greatest"):
            return f"classes{q.frame.n}", witness
        dominated = result[4]
        _need(len(dominated) == data[2], f"{len(dominated)} filtrations, {data[2]} expected")
        _need(all(dominated), "the greatest filtration does not dominate")
        return "enumerate", witness


# --------------------------------------------------------------------------
# duality: the algebra corpus, one-shot upset algebras, top frames


class Duality:
    """(a) consecutive triples on each corpus algebra share work per
    algebra; (b) one-shot upset algebras of random 4-world frames share
    none, and their cost doubles with each upset (prime filters scan all
    subsets), so the sample is stratified by size; of the generator's
    frames 4.6 % are the antichain, whose 16 upsets set the tail;
    (c) every top frame of up to 3 worlds, once. The one-shot items fill
    the run beyond the fixed (a) and (c) items."""

    name = "duality"
    per_s = 170
    triples = 2

    def build(self, rng, root, count):
        algebra, _, _, _, frames, _, _ = _pkg()
        self.corpus = algebra.algebra_corpus(3)
        self.topframes = [
            tf
            for n in range(1, 4)
            for p in frames.enumerate_posets(n)
            if p.top() is not None
            for tf in algebra.enumerate_topframes(p)
        ]
        _need(len(self.corpus) == 271 and len(self.topframes) == 147, "corpus sizes")
        items = []
        for i, a in enumerate(self.corpus):
            for _ in range(self.triples):
                x, y = rng.randrange(a.size), rng.randrange(a.size)
                items.append(("corpus", (i, x, y, formula_text(rng, NAMES, 2))))

        def draw(rng):
            frame = random_frame(rng, 4)
            size = len(upsets(4, frame[1]))
            x, y = rng.randrange(size), rng.randrange(size)
            return size, (frame, x, y, formula_text(rng, NAMES, 2))

        oneshot = max(20, count - len(items) - len(self.topframes))
        items += [(f"oneshot.{size}", d) for size, d in sample(rng, oneshot, draw, key=lambda d: d[0])]
        tops = list(range(len(self.topframes)))
        rng.shuffle(tops)
        items += [("topframe", i) for i in tops]
        return items

    def run(self, kind, data):
        algebra, _, _, filtration, frames, _, syntax = _pkg()
        if kind == "topframe":
            return algebra.duality_check(self.topframes[data])
        source, x, y, formula = data
        sigma = filtration.close_sigma([syntax.parse(formula)])
        if kind == "corpus":
            a = self.corpus[source]
            return algebra.least_filtration_correspondence(a, {"p": x, "q": y}, sigma)
        n, up, table = source
        a = algebra.upset_algebra(frames.NFrame(frames.Poset(n, up), table))
        return (
            algebra.check_nalgebra(a),
            algebra.duality_check(a),
            algebra.least_filtration_correspondence(a, {"p": x, "q": y}, sigma),
            a.size,
        )

    def check(self, kind, data, result):
        if kind.startswith("oneshot"):
            laws, round_trip, corresponds, size = result
            _need(laws is None, f"upset algebra breaks {laws}")
            _need(round_trip is True and corresponds is True, "duality fails")
            _need(size == len(upsets(4, data[0][1])), "algebra size is not the upset count")
            return "oneshot", f"{data} {size}"
        _need(result is True, f"{kind} round trip fails")
        return kind, str(data)


# --------------------------------------------------------------------------
# companions: translation, NS4 soundness, intersection law, proofs, antichain


def _proof_mutations(items, limit=20):
    """The first ``limit`` single-line corruptions of a proof, each of
    which the checker must reject (the same family the proof tests use)."""
    out = []

    def mutate(i, **fields):
        copy = [dict(line) for line in items]
        copy[i] = {**copy[i], **fields}
        return copy

    for i, line in enumerate(items):
        refs = line["refs"]
        if refs:
            out.append(mutate(i, refs=[]))
            out.append(mutate(i, rule="K"))
            if len(refs) == 2:
                out.append(mutate(i, refs=refs[::-1]))
            elif i > 1 and (refs[0] + 1) % i != refs[0]:
                out.append(mutate(i, refs=[(refs[0] + 1) % i]))
        else:
            out.append(mutate(i, rule="MP"))
            out.append(mutate(i, formula="[](" + line["formula"] + ")"))
    return out[:limit]


PROOFS = (("proof_cong.json", "ns4"), ("proof_rule1.json", "ns4"), ("proof_contra.json", "cos4"))


class Companions:
    """Where the kernels do most of the work: the lift and translation
    gap, modal refutation, the intersection law and its rule, and the
    order-morphism searches. The unlabeled posets on up to 6 worlds are
    built in set-up (the n! canonical key is most of its time). Each
    kind has a fixed share of the items, and the items are cheap and
    many, so within a kind the draws are plain."""

    name = "companions"
    per_s = 4000
    shares = {"gap": 300, "preserve": 300, "ns4": 60, "enrn": 200, "antichain": 600}

    def build(self, rng, root, count):
        frames = _pkg()[4]
        posets = [p for k in range(1, 7) for p in frames.enumerate_posets_unlabeled(k)]
        self.posets = posets
        self.ups = [p.up for p in posets]
        topped = [i for i, p in enumerate(posets) if p.top() is not None]

        def draw(rng, kind):
            if kind == "gap":
                return random_frame(rng, rng.randint(1, 4))
            if kind == "preserve":
                names = NAMES[: rng.randint(1, 2)]
                return random_model(rng, rng.randint(1, 4), names), formula_text(rng, names, 3)
            if kind == "ns4":
                rel = random_preorder(rng, 3)
                return 3, rel, trace_table(rng, 3, rel, range(8))
            if kind == "enrn":
                return 3, tuple(rng.randrange(8) for _ in range(8))
            return rng.choice(topped), rng.randrange(len(posets))

        items = []
        proofs = []
        for name, system in PROOFS:
            lines = json.loads((root / "tests" / "data" / name).read_text())
            proofs.append(("proof", (lines, system, True)))
            proofs += [("proof", (bad, system, False)) for bad in _proof_mutations(lines)]
        for kind, k in _split(max(0, count - len(proofs)), self.shares).items():
            items += [(kind, draw(rng, kind)) for _ in range(k)]
        items += proofs
        rng.shuffle(items)
        return items

    def run(self, kind, data):
        _, antichain, _, _, frames, modal, syntax = _pkg()
        if kind == "gap":
            n, up, table = data
            return modal.translation_gap_search(frames.NFrame(frames.Poset(n, up), table), 3)
        if kind == "preserve":
            model, text = data
            return modal.translation_preservation(_nmodel(model), syntax.parse(text))
        if kind == "ns4":
            fr = modal.NS4Frame(*data)
            return modal.ns4_check_frame(fr), [
                modal.ns4_frame_validates(fr, ax) for ax in modal.NS4_AXIOMS.values()
            ]
        if kind == "enrn":
            fr = modal.ModalNFrame(*data)
            return [(modal.en_check(fr, k), modal.rn_validity(fr, k)) for k in range(3)]
        if kind == "proof":
            lines, system, _ = data
            return modal.check_proof(modal.proof_from_list(lines, system))
        target, source = self.posets[data[0]], self.posets[data[1]]
        partial = antichain.positive_morphism(target, source)
        if partial is None:
            return None
        total = antichain.extend_positive(target, source, partial)
        return partial, total, antichain.verify_order_onto(target, source, total)

    def check(self, kind, data, result):
        if kind in ("gap", "preserve"):
            _need(result is None, f"translation disagrees: {result}")
            return kind, str(data)
        if kind == "ns4":
            law, valid = result
            _need(law is None and all(valid), "NS4 axiom fails on a lawful frame")
            return kind, str(data)
        if kind == "enrn":
            _need(all(en is rn for en, rn in result), "intersection law and rule disagree")
            return f"enrn.{sum(en for en, _ in result)}", f"{data} {result}"
        if kind == "proof":
            sound = data[2]
            _need((result is None) is sound, f"proof verdict {result}")
            return f"proof.{'ok' if sound else 'rejected'}", str(result)
        target, source = self.ups[data[0]], self.ups[data[1]]
        if result is None:
            _need(not positive_exists(target, source), "a positive morphism exists but none was found")
            return "antichain.none", str(data)
        partial, total, onto = result
        _need(is_positive(target, source, partial), "the partial map is not a positive morphism")
        _need(is_order_onto(target, source, total) and onto is True, "extension is not an onto order map")
        return "antichain.extended", f"{data} {sorted(partial.items())} {total}"


WORKLOADS = {w.name: w for w in (Decide, Filtrate, Duality, Companions)}
