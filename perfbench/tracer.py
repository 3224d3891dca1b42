"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install()`` wraps every public function of the layer modules,
the ``NFrame`` constructor and the twelve kernel dispatch functions.
The package binds names with ``from ... import``, so each wrapper is
rebound on every package module attribute that holds the same function
object. Callers reach kernels through ``kernels.<fn>`` at call time, so
rebinding the dispatch module covers them, while a pure kernel's
internal calls stay inside its span.

Each call, or each resumption of a generator, is one span: name, start,
end and parent, kept in memory until ``write``. ``summary`` turns the
spans into per-name calls, inclusive time and self time (duration minus
the time covered by child spans). Alongside, ``counts`` holds the result
counts some layers report: frames accepted by their class, refuting
valuations found, positive morphisms found, filtrations enumerated, and
posets kept against pair masks tried.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "syntax", "frames", "filtration", "algebra", "modal", "antichain")

KERNELS = (
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
)

# results counted as "<name>.hits"
HITS = {
    "frames.frame_class": lambda r: r is True,
    "frames.refuting_valuation": lambda r: r is not None,
    "antichain.positive_morphism": lambda r: r is not None,
}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        # spans as parallel lists: name index, start ns, end ns, parent
        # span index (-1 at the top)
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _open(self, key: int) -> int:
        i = len(self.span_name)
        self.span_name.append(key)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        tracer = self
        hit = HITS.get(name)
        filtrations = name == "filtration.enumerate_filtrations"
        posets = name == "frames.enumerate_posets"

        def call(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hit is not None and hit(result):
                tracer.count(name + ".hits")
            if filtrations:
                tracer.count(name + ".results", len(result))
            return result

        def generate(*args, **kwargs):
            if not tracer.on:
                yield from fn(*args, **kwargs)
                return
            tracer.count(name + ".calls")
            gen = fn(*args, **kwargs)
            last = None
            exhausted = False
            try:
                while True:
                    i = tracer._open(key)
                    try:
                        last = next(gen)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        tracer._close(i)
                    if posets:
                        tracer.count(name + ".kept")
                    yield last
            finally:
                gen.close()
                if posets:
                    # the enumerator walks the pair masks 0 .. 2^(n(n-1))-1
                    # in order; a stream closed early (the search found
                    # its witness) has tried every mask up to its last poset
                    n = args[0]
                    tried = (1 << n * (n - 1)) if exhausted else last.pair_mask() + 1 if last else 0
                    tracer.count(name + ".tried", tried)

        wrapper = generate if inspect.isgeneratorfunction(fn) else call
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and rebind them package-wide."""
        import subminimal.kernels as kernels

        modules = {m: importlib.import_module(f"subminimal.{m}") for m in LAYERS}
        replace = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    replace[obj] = self._wrap(f"{short}.{attr}", obj)
        package = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "subminimal"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
        for attr in KERNELS:
            setattr(kernels, attr, self._wrap(f"kernels.{attr}", getattr(kernels, attr)))
        nframe = modules["frames"].NFrame
        nframe.__init__ = self._wrap("frames.NFrame", nframe.__init__)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per name: calls, inclusive ns and self ns. A generator counts
        one call per creation and one span per resumption."""
        total = len(self.span_name)
        child = [0] * total
        for i in range(total):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(total):
            row = out.setdefault(self.names[self.span_name[i]], {"calls": 0, "ns": 0, "self_ns": 0})
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child[i]
        for name, row in out.items():
            row["calls"] = self.counts.get(name + ".calls", row["calls"])
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated name, start ns, end ns, parent
        index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\n"
                )
