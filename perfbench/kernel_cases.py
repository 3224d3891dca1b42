"""Check the kernel micro-cases of benchmarks/bench_kernels.py.

    python3 perfbench/kernel_cases.py

Runs each micro-case of ``benchmarks/bench_kernels.py`` once on the pure
kernels and, when it is built, on the compiled extension, and compares
every result with the value frozen below. That script only compares the
two backends with each other, so without the compiled backend it checks
nothing. Exits 1 on any mismatch. Timings of the kernel layer come from
the traced benchmark runs (``run.py --trace 1``), not from here.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# case name -> frozen result; for the translation gap only whether a gap
# exists is part of the contract, since the backends may report
# different gap witnesses
EXPECTED = {
    "refute copc axiom, 6-chain": 6,
    "refute translated axiom, 6-chain": 48,
    "translation gap, 6-antichain depth 2": False,
    "order onto, delta2 <- delta3": None,
    "positive morphism, delta1 <- delta1": [511, [0, 1, 2, 3, 4, 5, 6, 7, 8]],
    "locality sweep, diamond x 2000": [32],
}


def _normal(name: str, value):
    """The result in plain JSON terms, so both backends compare alike."""
    if name.startswith("translation gap"):
        return value != -1
    if name.startswith("locality sweep"):
        return sorted(set(value))
    return json.loads(json.dumps(value))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    backends = [("pure", bench.pure)] + ([("compiled", bench.compiled)] if bench.compiled else [])
    bad = 0
    for name, fn, _ in bench._workloads():
        want = EXPECTED[name]
        for label, kernels in backends:
            got = _normal(name, fn(kernels))
            ok = got == want
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label:8s} {name}: {got!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
