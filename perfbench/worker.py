"""One benchmark process: set up a workload, then time or trace it.

    python3 perfbench/worker.py WORKLOAD SEED STREAM MODE COUNT SPAWN_NS

MODE is one of

* ``time``: set up, then run every item once;
* ``trace``: the same with the tracer installed before set-up, so the
  per-layer summary, counts and spans cover set-up and the items.

SEED and STREAM fix the inputs, and COUNT sizes them (``build``); the
streams of one seed are independent draws. SPAWN_NS is the parent's
``time.monotonic_ns()`` just before it started this process, so set-up
time covers interpreter start, imports, input generation and the
workload's own structures. The closed loop has one caller: each item
starts when the previous one has returned and been checked. Each item
is timed on its own, and runs once, so nothing a call leaves behind is
timed twice on the same input; the output gate runs outside the timed
region (with tracing paused). Between items, about every 0.1 s, a fixed
loop that calls no package code measures the host's speed. The result
is one JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 0.1


def probe_ns() -> int:
    """Nanoseconds a fixed pure-Python loop takes: the host's speed now."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return time.perf_counter_ns() - t0


def main(argv: list[str]) -> None:
    name, seed, stream, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    count, spawn_ns = int(argv[4]), int(argv[5])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.on = True
    workloads._pkg()
    from subminimal import kernels

    workload = workloads.WORKLOADS[name]()
    items = workload.build(random.Random(f"{seed}.{stream}"), ROOT, count)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    out: dict = {"stream": stream, "setup_s": setup_s, "backend": kernels.BACKEND}
    item_ns = []
    probes = []
    probe_at = []
    failed = 0
    outcomes: dict[str, int] = {}
    errors: list[str] = []
    digest = hashlib.sha256()
    began = next_probe = time.perf_counter()
    for kind, data in items:
        if time.perf_counter() >= next_probe:
            probes.append(probe_ns())
            probe_at.append(len(item_ns))
            next_probe = time.perf_counter() + PROBE_EVERY_S
        t0 = time.perf_counter_ns()
        try:
            result = workload.run(kind, data)
        except Exception as exc:  # an unexpected raise is a failed item
            result = exc
        item_ns.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.on = False
        try:
            if isinstance(result, Exception):
                raise result
            outcome, witness = workload.check(kind, data, result)
        except Exception as exc:  # the gate failed or the item raised
            failed += 1
            outcome, witness = "failed", f"{type(exc).__name__}: {exc}"
            if len(errors) < 5:
                errors.append(f"{kind} {data!r:.200}: {witness}")
        if tracer is not None:
            tracer.on = True
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        digest.update(f"{kind}\t{witness}\n".encode())
    pass_s = time.perf_counter() - began
    if tracer is not None:
        tracer.on = False
        out["layers"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        tracer.write(ROOT / ".perfbench" / f"spans-{name}.tsv.gz")

    kinds: dict[str, int] = {}
    for kind, _ in items:
        kinds[kind] = kinds.get(kind, 0) + 1
    out.update(
        items=len(items),
        kinds=kinds,
        attempted=len(items),
        failed=failed,
        errors=errors,
        outcomes=outcomes,
        digest=digest.hexdigest(),
        pass_s=pass_s,
        item_ns=item_ns,
        probe_ns=probes,
        probe_at=probe_at,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
