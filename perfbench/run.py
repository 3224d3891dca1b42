"""The repository benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src``
as a plain install would give it, so on a machine without Cython it is
the pure backend, and the run records which backend ran.

The seed fixes the inputs; S sizes them, so that one pass over them
takes about S/3 seconds on the reference host (``per_s`` in
``workloads.py``). With ``--trace 0`` the run measures the end-to-end
metrics. It starts three fresh interpreters one at a time, each of which
sets up and runs every item of its own input stream once (streams 0, 1
and 2 of the seed). No input is
timed twice, so a cache that outlives a call helps only where the
traffic itself repeats work. ``items_per_s`` is the item count over
the sum of the item times, and ``item_ms.p50``/``item_ms.p95`` are
percentiles over the items of all three. ``setup_s`` is the median of
the three set-up times. ``peak_rss_mb`` is the largest of the three
interpreters' own peak resident sizes.

The host is shared, and its speed drifts by a third and more, over
seconds and over spans longer than a run. So every interpreter times a
fixed loop that calls no package code (``worker.probe_ns``), every
0.1 s between items. Each item's time is divided by the median of the
eight samples around it, and each set-up time by the median of its
interpreter's samples, over
``PROBE_REF_MS``, that median on the reference host: the metrics are
times at the reference host's speed. The run record keeps the host
speeds and the unscaled metrics.

With ``--trace 1`` the run measures the per-layer metrics: an untraced
and a traced interpreter, each running every item once. Layer times and
counts cover the traced set-up and items; counts are exact, and a count
that differs from the previous traced run of the same code at the same
seed fails the run. Both run stream 0. ``trace.overhead_ratio`` is the
traced over the untraced items/s, both scaled as above.

Every item's output is checked (``workloads.py``); at the default seed
and seconds the outcome counts and the digest of all witnesses must
match ``frozen.json``. The
last line of stdout is the result: correctness, items attempted and
failed, and the metrics. The line before it is the full run record,
also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench"
DEFAULT_SEED = 1
BUDGET_S = 170
STREAMS = 3
# median time of the probe (worker.probe_ns) on the reference host, a
# 2-vCPU shared Xeon
PROBE_REF_MS = 1.8
MIN_ITEMS = 200

sys.path.insert(0, str(HERE))
from compare import count_mismatches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, stream: int, mode: str, count: int, deadline: float) -> dict:
    spawn = time.monotonic_ns()
    args = [workload, str(seed), str(stream), mode, str(count), str(spawn)]
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    """SHA-256 over the package and the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _record(args, runs: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "backend": runs[0]["backend"],
        "SUBMINIMAL_PURE": os.environ.get("SUBMINIMAL_PURE"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "kinds": _total(runs, "kinds"),
    }


def _total(runs: list[dict], key: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for run in runs:
        for k, v in run[key].items():
            out[k] = out.get(k, 0) + v
    return dict(sorted(out.items()))


def _check(runs: list[dict], seed: int, workload: str, count: int) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they are right."""
    problems = [f"{run['failed']} items failed: {run['errors']}" for run in runs if run["failed"]]
    if len({run["backend"] for run in runs}) > 1:
        problems.append("the interpreters ran different backends")
    frozen = json.loads((HERE / "frozen.json").read_text())
    want = frozen["workloads"].get(workload)
    if seed == frozen["seed"] and want is not None and want["count"] == count:
        for run in runs:
            if run["digest"] != want["digests"][run["stream"]]:
                problems.append(f"stream {run['stream']} outputs differ from frozen.json: {run['digest']}")
        streams = sorted(run["stream"] for run in runs)
        if streams == list(range(len(want["digests"]))) and _total(runs, "outcomes") != want["outcomes"]:
            problems.append(f"outcomes differ from frozen.json: {_total(runs, 'outcomes')}")
    return problems


def _speed(run: dict) -> float:
    """How much slower than the reference host this interpreter ran: the
    median of its probe samples over ``PROBE_REF_MS``."""
    return statistics.median(run["probe_ns"]) / 1e6 / PROBE_REF_MS


def _item_ms(run: dict, scale: bool = True) -> list[float]:
    """The item times in ms, each divided by the host speed around it:
    the median of the eight probe samples nearest to it."""
    at, probes = run["probe_at"], run["probe_ns"]
    out = []
    for i, ns in enumerate(run["item_ns"]):
        j = bisect.bisect_right(at, i)
        speed = statistics.median(probes[max(0, j - 4) : j + 4]) / 1e6 / PROBE_REF_MS if scale else 1.0
        out.append(ns / 1e6 / speed)
    return out


def _end_to_end(runs: list[dict], scale: bool = True) -> dict:
    """The end-to-end metrics at the reference host speed (``scale``) or
    as measured."""
    ms = [t for run in runs for t in _item_ms(run, scale)]
    speed = _speed if scale else (lambda run: 1.0)
    return {
        "items_per_s": (len(ms) / (sum(ms) / 1e3), "items/s"),
        "item_ms.p50": (statistics.median(ms), "ms"),
        "item_ms.p95": (statistics.quantiles(ms, n=20)[18], "ms"),
        "setup_s": (statistics.median(run["setup_s"] / speed(run) for run in runs), "s"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MiB"),
    }


def _per_layer(spec: list[dict], plain: dict, traced: dict) -> dict:
    layers, counts = traced["layers"], traced["counts"]
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_ratio":
            value = sum(_item_ms(plain)) / sum(_item_ms(traced))
        else:
            fn, stat = name.rsplit(".", 1)
            row = layers.get(fn, {"calls": 0, "ns": 0, "self_ns": 0})
            if stat == "calls":
                value = row["calls"]
            elif stat == "s":
                value = row["ns"] / 1e9
            elif stat == "self_s":
                value = row["self_ns"] / 1e9
            elif stat == "results":
                value = counts.get(fn + ".results", 0)
            elif stat == "kept_ratio":
                value = counts.get(fn + ".kept", 0) / max(1, counts.get(fn + ".tried", 0))
            elif stat in ("accept_ratio", "hit_ratio"):
                value = counts.get(fn + ".hits", 0) / max(1, row["calls"])
            else:
                raise BenchError(f"no rule for per-layer metric {name}")
        out[name] = (value, unit)
    return out


def _previous_trace(record: dict) -> dict | None:
    best = None
    for path in RESULTS.glob(f"{record['workload']}-seed{record['seed']}-trace1-*.json"):
        old = json.loads(path.read_text())
        if (old["source_sha256"], old.get("count")) == (record["source_sha256"], record["count"]):
            if best is None or old["finished"] > best["finished"]:
                best = old
    return best


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "subminimal" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    count = max(MIN_ITEMS, round(WORKLOADS[args.workload].per_s * args.seconds / STREAMS))
    if args.trace == 0:
        runs = [_worker(args.workload, args.seed, stream, "time", count, deadline) for stream in range(STREAMS)]
        measured = _end_to_end(runs)
        metrics = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
        record = _record(args, runs)
        record.update(
            setups_s=[run["setup_s"] for run in runs],
            samples=sum(len(run["item_ns"]) for run in runs),
            unscaled={k: v for k, (v, _) in _end_to_end(runs, scale=False).items()},
        )
    else:
        runs = [
            _worker(args.workload, args.seed, 0, "time", count, deadline),
            _worker(args.workload, args.seed, 0, "trace", count, deadline),
        ]
        metrics = _per_layer(spec["per_layer"], *runs)
        record = _record(args, runs[1:])
    problems = _check(runs, args.seed, args.workload, count)
    if args.trace and runs[0]["digest"] != runs[1]["digest"]:
        problems.append("tracing changed the outputs")
    record.update(
        count=count,
        digests=[run["digest"] for run in runs],
        outcomes=_total(runs[1:] if args.trace else runs, "outcomes"),
        pass_s=[run["pass_s"] for run in runs],
        host_speed=[_speed(run) for run in runs],
        attempted=sum(run["attempted"] for run in runs),
        failed=sum(run["failed"] for run in runs),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        finished=time.time(),
    )
    if args.trace:
        previous = _previous_trace(record)
        if previous is not None:
            problems += count_mismatches(previous, record)
    record["problems"] = problems
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
